"""The sharded multi-core serving engine (:mod:`repro.serve.shard`):
event-vs-dense scheduling equivalence, placement policies, migration
charging, the memoized service model, the scale-grid cells, and the
CLI."""

from __future__ import annotations

import json

import pytest

from repro.exec import EngineConfig, ExperimentEngine
from repro.obs import events as ev
from repro.serve import ServeConfig
from repro.serve.shard import (
    PLACEMENT_POLICIES,
    Placer,
    ShardedServeConfig,
    affinity_placement,
    histogram_percentile,
    latency_histogram,
    memo_tables_of,
    merge_scale_shards,
    plan_placement,
    run_serve_sharded,
    scale_shard_cell,
    serve_cell,
    sharded_config_from_params,
    static_placement,
)
from repro.serve.__main__ import main as serve_main


def canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


#: Small-but-real config reused across the tests: queueing pressure,
#: two profiles, rare paths on.
BASE = dict(scheme="fence", seed=0, tenants=3, requests_per_tenant=5,
            mean_interarrival=3_000.0, profile_requests=2)


# ---------------------------------------------------------------------------
# Config and placement
# ---------------------------------------------------------------------------


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedServeConfig(**BASE, shards=0)
        with pytest.raises(ValueError, match="placement"):
            ShardedServeConfig(**BASE, placement="round-robin")
        with pytest.raises(ValueError, match="service_model"):
            ShardedServeConfig(**BASE, service_model="magic")
        with pytest.raises(ValueError, match="memo_warmup"):
            ShardedServeConfig(**BASE, memo_warmup=0)
        with pytest.raises(ValueError, match="migrate_every"):
            ShardedServeConfig(**BASE, migrate_every=-1)

    def test_as_dict_superset_and_from_params(self):
        config = ShardedServeConfig(**BASE, shards=2,
                                    placement="least-loaded")
        legacy = ServeConfig(**BASE).as_dict()
        out = config.as_dict()
        for key, value in legacy.items():
            assert out[key] == value
        rebuilt = sharded_config_from_params(out)
        assert rebuilt == config

    def test_static_placement_properties(self):
        # Deterministic, in range, and independent of evaluation order.
        for policy in PLACEMENT_POLICIES:
            for tenant in range(16):
                s = static_placement(7, tenant, 4)
                assert 0 <= s < 4
                assert s == static_placement(7, tenant, 4)
        assert affinity_placement(0, "httpd", 4) == \
            affinity_placement(0, "httpd", 4)

    def test_plan_covers_tenants(self):
        config = ShardedServeConfig(**BASE, shards=2,
                                    placement="least-loaded",
                                    migrate_every=3)
        members, migrations, loads = plan_placement(config)
        # Members are "tenants that ever run here": a migrating tenant
        # appears on every shard it visits, so assert coverage, not a
        # partition.
        seen = set(t for shard in members for t in shard)
        assert seen == set(range(config.tenants))
        assert sum(loads) == config.tenants * config.requests_per_tenant
        # Replans agree: the placement pre-pass is a pure function.
        again = plan_placement(config)
        assert again[0] == members and again[1] == migrations

    def test_placer_routes_every_arrival(self):
        config = ShardedServeConfig(**BASE, shards=2,
                                    placement="least-loaded",
                                    migrate_every=2)
        placer = Placer(config)
        from repro.serve.shard import _arrivals
        for arr in _arrivals(config):
            shard, migration = placer.route(arr)
            assert 0 <= shard < config.shards
            if migration is not None:
                assert migration.dst == shard
                assert migration.src != migration.dst


# ---------------------------------------------------------------------------
# Event-driven vs dense scheduling
# ---------------------------------------------------------------------------


class TestEventVsDense:
    def test_byte_identical_reports(self):
        config = ShardedServeConfig(**BASE, shards=2,
                                    placement="least-loaded",
                                    migrate_every=4)
        event = run_serve_sharded(config, mode="event").as_dict()
        dense = run_serve_sharded(config, mode="dense").as_dict()
        assert canon(event) == canon(dense)

    def test_dense_quantum_does_not_matter(self):
        config = ShardedServeConfig(**BASE, shards=2)
        coarse = run_serve_sharded(config, mode="dense",
                                   dense_quantum=10_000.0).as_dict()
        fine = run_serve_sharded(config, mode="dense",
                                 dense_quantum=500.0).as_dict()
        assert canon(coarse) == canon(fine)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            run_serve_sharded(ShardedServeConfig(**BASE), mode="warp")


# ---------------------------------------------------------------------------
# Migration charging
# ---------------------------------------------------------------------------


class TestMigrations:
    CONFIG = dict(BASE, requests_per_tenant=8, shards=2,
                  placement="least-loaded", migrate_every=3)

    def test_counters_and_journal(self):
        # Fence emits one event per fenced load (~18k in this config);
        # size the ring so migration events survive to the end.
        journal = ev.EventJournal(capacity=100_000)
        with ev.journaling(journal):
            report = run_serve_sharded(ShardedServeConfig(**self.CONFIG))
        out = report.as_dict()
        assert out["migrations"] == len(report.migrations) > 0
        flushes = sum(s.ibpb_flushes for s in report.shards)
        moved = sum(s.migrations_in for s in report.shards)
        assert moved == out["migrations"] == flushes
        assert out["migration_excess_cycles"] >= 0.0
        kinds = [e for e in journal.events()
                 if e.kind == "tenant-migration"]
        assert len(kinds) == out["migrations"]
        assert all("shard" in e.reason for e in kinds)

    def test_static_policies_never_migrate(self):
        for policy in ("hash", "affinity"):
            config = ShardedServeConfig(
                **dict(self.CONFIG, placement=policy))
            report = run_serve_sharded(config)
            assert report.as_dict()["migrations"] == 0

    def test_conservation_across_shards(self):
        report = run_serve_sharded(ShardedServeConfig(**self.CONFIG))
        offered = self.CONFIG["tenants"] * self.CONFIG[
            "requests_per_tenant"]
        admitted = sum(s.admitted for s in report.shards)
        shed = sum(s.shed for s in report.shards)
        assert admitted + shed == offered
        assert sum(s.arrivals for s in report.shards) == offered


# ---------------------------------------------------------------------------
# Memoized service model
# ---------------------------------------------------------------------------


class TestMemoModel:
    CONFIG = dict(BASE, requests_per_tenant=10, shards=2,
                  service_model="memo", memo_period=6)

    def test_deterministic(self):
        a = run_serve_sharded(ShardedServeConfig(**self.CONFIG))
        b = run_serve_sharded(ShardedServeConfig(**self.CONFIG))
        assert canon(a.as_dict()) == canon(b.as_dict())

    def test_transplant_is_interpretation_free(self):
        config = ShardedServeConfig(**self.CONFIG)
        warm = run_serve_sharded(config)
        replay = run_serve_sharded(config,
                                   memo_seed=memo_tables_of(warm))
        out, ref = replay.as_dict(), warm.as_dict()
        assert out["memo_interpreted"] == 0
        assert out["memo_replays"] == out["completed"] + \
            out["switches"]
        for d in [out] + out["shards"]:
            d.pop("memo_replays", None)
            d.pop("memo_interpreted", None)
        for d in [ref] + ref["shards"]:
            d.pop("memo_replays", None)
            d.pop("memo_interpreted", None)
        assert canon(out) == canon(ref)

    def test_replays_preserve_totals(self):
        # Memoization changes *which* dispatches interpret, never the
        # aggregate accounting identities.
        report = run_serve_sharded(ShardedServeConfig(**self.CONFIG))
        out = report.as_dict()
        assert out["completed"] + out["shed"] == \
            self.CONFIG["tenants"] * self.CONFIG["requests_per_tenant"]
        assert out["memo_replays"] + out["memo_interpreted"] > 0
        assert out["kernel_cycles"] > 0


# ---------------------------------------------------------------------------
# Scale-grid cells and the serve-scale experiment
# ---------------------------------------------------------------------------

SCALE_PARAMS = {"schemes": ["fence"], "tenants": [3], "shards": [1, 2],
                "seed": 0, "requests_per_tenant": 5,
                "mean_interarrival": 3_000.0, "queue_bound": 0,
                "rare_every": 0, "profile_requests": 2,
                "placement": "least-loaded", "migrate_every": 4,
                "service_model": "memo", "memo_warmup": 1,
                "memo_period": 6, "block_cache": True}


class TestScaleGrid:
    def test_cells_merge_to_in_process_run(self):
        shards = 2
        payloads = [scale_shard_cell({
            **{k: v for k, v in SCALE_PARAMS.items()
               if k not in ("schemes", "tenants", "shards")},
            "scheme": "fence", "tenants": 3, "shards": shards,
            "shard": k}) for k in range(shards)]
        merged = merge_scale_shards("fence", 3, shards, payloads)
        direct = run_serve_sharded(sharded_config_from_params({
            **{k: v for k, v in SCALE_PARAMS.items()
               if k not in ("schemes", "tenants", "shards")},
            "scheme": "fence", "tenants": 3,
            "shards": shards})).as_dict()
        assert merged["completed"] == direct["completed"]
        assert merged["kernel_cycles"] == direct["kernel_cycles"]
        assert merged["makespan_cycles"] == direct["makespan_cycles"]
        assert merged["migrations_in"] == direct["migrations"]
        assert merged["offered"] == \
            merged["completed"] + merged["shed"]

    def test_parallel_matches_serial_byte_exact(self, tmp_path):
        serial, _ = ExperimentEngine(EngineConfig(
            workers=1, cache_dir=tmp_path / "c1")).run(
                "serve-scale", SCALE_PARAMS)
        parallel, _ = ExperimentEngine(EngineConfig(
            workers=2, cache_dir=tmp_path / "c2")).run(
                "serve-scale", SCALE_PARAMS)
        assert canon(serial) == canon(parallel)
        rows = serial["experiments"]
        assert [(r["scheme"], r["tenants"], r["shards"])
                for r in rows] == [("fence", 3, 1), ("fence", 3, 2)]

    def test_serve_cell_accepts_shard_params(self):
        cell = serve_cell({**BASE, "shards": 2,
                           "placement": "least-loaded",
                           "migrate_every": 4}, observe=True)
        assert cell["config"]["shards"] == 2
        assert len(cell["shards"]) == 2
        gauges = cell["metrics"]["gauges"]
        assert gauges["serve.cell.s0.t3.shards"] == 2
        assert "serve.cell.s0.t3.migrations" in gauges


class TestHistogram:
    def test_histogram_percentile_brackets_sample(self):
        lats = [1_500.0, 2_400.0, 9_000.0, 45_000.0, 45_000.0]
        counts = latency_histogram(lats)
        assert sum(counts) == len(lats)
        p99 = histogram_percentile(counts, 99.0)
        assert p99 >= max(lats)

    def test_empty_histogram(self):
        counts = latency_histogram([])
        assert sum(counts) == 0
        assert histogram_percentile(counts, 99.0) == 0.0


class TestScaleCLI:
    def test_scale_smoke_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "scale.json"
        art = tmp_path / "artifacts"
        rc = serve_main(["scale", "--smoke", "--no-cache",
                         "-o", str(out), "--artifacts", str(art)])
        assert rc == 0
        snap = json.loads(out.read_text())
        assert snap["meta"]["plane"] == "repro.serve.scale"
        assert any(k.startswith("serve_scale.") for k in snap["gauges"])
        assert (art / "serve_scale_curves.csv").exists()

    def test_sweep_accepts_shards_flag(self, tmp_path):
        out = tmp_path / "smoke.json"
        rc = serve_main(["--smoke", "--no-cache", "--shards", "1",
                         "-o", str(out)])
        assert rc == 0
        snap = json.loads(out.read_text())
        assert snap["meta"]["shards"] == 1
