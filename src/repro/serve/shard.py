"""Sharded multi-core serving: N MiniKernels, placement, migration.

This is the serve driver: :func:`run_serve_sharded` (and its grid
cells, :func:`serve_cell` and :func:`scale_shard_cell`) is the one way
to run the engine.  :mod:`repro.serve.engine` models one simulated core;
Perspective's costs are fundamentally *per-core* state -- ISV/DSV view
caches, the DSVMT walker state, the branch unit -- so the datacenter
setting the paper targets needs a multi-core model: this module runs
``shards`` independent cores (one by default), each a full
:class:`MiniKernel` with private speculation state, with tenants placed
across shards by deterministic policies and cross-shard migrations
explicitly charged on the destination core.

Placement policies (all pure functions of the config + schedule):

* ``hash`` -- static: ``crc32("serve:place:<seed>:tenant:<t>") % shards``.
* ``affinity`` -- static: tenants hash by *profile name*, so same-mix
  tenants co-locate (warm per-profile ISV/branch state, at the price of
  load skew).
* ``least-loaded`` -- dynamic: a tenant's first arrival goes to the
  shard with the fewest routed arrivals so far (ties broken by a
  string-seeded draw, so the choice survives ``PYTHONHASHSEED``); with
  ``migrate_every > 0``, every ``migrate_every``-th arrival of a tenant
  re-evaluates and migrates off a strictly-overloaded home shard.

Migration charging: the *destination* shard pays an IBPB-style
``BranchUnit.reset()`` (full predictor flush -- the migrated context
must not inherit the destination core's training, and its own training
stayed behind) plus ASID-targeted ISV/DSV view-cache invalidation (the
migrated context's views are cold on the new core and refill through
DSVMT walks).  Each migration is journaled as a ``tenant-migration``
event, and the excess service cycles of post-migration cold dispatches
over the tenant's warm steady state are attributed to
``migration_excess_cycles``.

Service models:

* ``full`` -- every request interpreted through the pipeline by the
  base :meth:`RunToCompletionScheduler.dispatch`.
* ``memo`` -- steady-state service memoization: each (tenant, request
  phase, migration-cold, rare-phase) class is interpreted through the
  real pipeline ``memo_warmup`` times, then replayed by pure accounting
  (cycles, syscalls, fence stalls, fenced-load mix).  Request mixes are
  periodic (``PROFILE_PERIODS``), so the class space is small and the
  replay is deterministic -- this is what makes 10^6+ request
  experiments feasible.  The approximation is explicit: replayed
  requests reuse the last interpreted cost of their class instead of
  re-simulating microarchitectural drift within the class.

Scheduling is event-driven in both cases: arrivals stream through a
``heapq`` merge and each shard skips straight from its ``free_at``
horizon to the next arrival, never stepping idle cycles.  A dense
quantum-stepping reference loop (``mode="dense"``) is kept for the
benchmark: it produces byte-identical reports while paying O(makespan /
quantum) wall clock, which is exactly the gap
``benchmarks/bench_serve_scale.py`` measures.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from random import Random
from typing import Any, Iterator
from zlib import crc32

from repro.obs import events as ev
from repro.obs import registry as obs
from repro.obs import reqtrace as rt
from repro.obs import slo
from repro.serve.arrival import Arrival, arrival_stream, percentile
from repro.serve.engine import (
    CORE_HZ, LATENCY_BUCKETS, RunToCompletionScheduler, ServeConfig,
    Tenant, TenantReport, boot_tenants, collect_tenant_stats)

#: Request-mix periodicity per profile: the request bodies in
#: :mod:`repro.workloads.apps` condition only on ``i % k`` (and httpd /
#: nginx rotate the opened file kind over the six fops tables), so the
#: service-cost classes repeat with these periods.
PROFILE_PERIODS: dict[str, int] = {
    "httpd": 6, "nginx": 6, "memcached": 96, "redis": 24, "lebench": 24,
}

#: Fixed latency buckets for cross-process scale aggregation (a 1-2-5
#: ladder).  Shard cells ship bucket counts instead of raw latencies, so
#: merged p50/p99 are bucket-resolution -- the same contract
#: :mod:`repro.obs.slo` uses -- and stay byte-exact under any fan-out.
SCALE_LATENCY_BUCKETS: tuple[float, ...] = (
    1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5,
    1e6, 2e6, 5e6, 1e7, 2e7, 5e7, 1e8, 2e8, 5e8, 1e9, 1e10)

PLACEMENT_POLICIES = ("hash", "least-loaded", "affinity")
SERVICE_MODELS = ("full", "memo")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardedServeConfig(ServeConfig):
    """ServeConfig plus the multi-core knobs."""

    shards: int = 1
    placement: str = "hash"
    #: Re-evaluate a tenant's placement every Nth arrival (0 = never).
    #: Only ``least-loaded`` actually migrates; static policies never
    #: change their answer.
    migrate_every: int = 0
    service_model: str = "full"
    #: Interpreted dispatches per memo class before replay kicks in.
    memo_warmup: int = 1
    #: Cap on the per-profile phase period (0 = exact).  Smaller caps
    #: fold phases together: fewer warmup interpretations, coarser
    #: approximation.
    memo_period: int = 0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.service_model not in SERVICE_MODELS:
            raise ValueError(
                f"unknown service_model {self.service_model!r}")
        if self.memo_warmup < 1:
            raise ValueError("memo_warmup must be >= 1")
        if self.migrate_every < 0 or self.memo_period < 0:
            raise ValueError("migrate_every/memo_period must be >= 0")

    def as_dict(self) -> dict[str, Any]:
        out = super().as_dict()
        out.update({
            "shards": self.shards, "placement": self.placement,
            "migrate_every": self.migrate_every,
            "service_model": self.service_model,
            "memo_warmup": self.memo_warmup,
            "memo_period": self.memo_period,
        })
        return out

    def period_of(self, tenant: int) -> int:
        period = PROFILE_PERIODS.get(self.profile_of(tenant), 96)
        if self.memo_period:
            period = min(period, self.memo_period)
        return period


def sharded_config_from_params(params: dict[str, Any]) -> ShardedServeConfig:
    """Build a :class:`ShardedServeConfig` from a JSON-able param dict
    (keys that are not config fields are ignored)."""
    known = {"scheme", "tenants", "seed", "requests_per_tenant",
             "mean_interarrival", "queue_bound", "profiles",
             "rare_every", "profile_requests", "shards", "placement",
             "migrate_every", "service_model", "memo_warmup",
             "memo_period"}
    kwargs = {k: v for k, v in params.items() if k in known}
    if "profiles" in kwargs:
        kwargs["profiles"] = tuple(kwargs["profiles"])
    return ShardedServeConfig(**kwargs)


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Migration:
    """One cross-shard move, decided at arrival ``(tenant, seq)``."""

    tenant: int
    seq: int
    src: int
    dst: int


def static_placement(seed: int, tenant: int, shards: int) -> int:
    """The ``hash`` policy's answer (pure, PYTHONHASHSEED-proof)."""
    return crc32(f"serve:place:{seed}:tenant:{tenant}".encode()) % shards


def affinity_placement(seed: int, profile: str, shards: int) -> int:
    """The ``affinity`` policy's answer: co-locate by profile name."""
    return crc32(f"serve:place:{seed}:profile:{profile}".encode()) % shards


class Placer:
    """Incremental, deterministic tenant->shard routing.

    A pure function of the arrival sequence it is fed: the load counters
    that drive ``least-loaded`` count *routed arrivals*, which depend
    only on earlier routing decisions -- never on service outcomes -- so
    a planning pass, the serving pass, and every per-shard grid cell
    all reconstruct identical placements independently.
    """

    def __init__(self, config: ShardedServeConfig) -> None:
        self.config = config
        self.home: dict[int, int] = {}
        self.load = [0] * config.shards
        self.seen: dict[int, int] = {}
        self._decisions: dict[int, int] = {}
        self.migrations: list[Migration] = []

    def _choose_least_loaded(self, tenant: int) -> int:
        lo = min(self.load)
        candidates = [s for s in range(self.config.shards)
                      if self.load[s] == lo]
        if len(candidates) == 1:
            return candidates[0]
        k = self._decisions.get(tenant, 0)
        rng = Random(
            f"serve:place:{self.config.seed}:tenant:{tenant}:tie:{k}")
        return candidates[rng.randrange(len(candidates))]

    def _initial(self, tenant: int) -> int:
        config = self.config
        if config.placement == "hash":
            return static_placement(config.seed, tenant, config.shards)
        if config.placement == "affinity":
            return affinity_placement(
                config.seed, config.profile_of(tenant), config.shards)
        return self._choose_least_loaded(tenant)

    def route(self, arr: Arrival) -> tuple[int, Migration | None]:
        """Route one arrival; returns (shard, migration-or-None)."""
        tenant = arr.tenant
        config = self.config
        seen = self.seen.get(tenant, 0)
        migration = None
        if tenant not in self.home:
            self.home[tenant] = self._initial(tenant)
            self._decisions[tenant] = self._decisions.get(tenant, 0) + 1
        elif (config.migrate_every and config.placement == "least-loaded"
                and seen % config.migrate_every == 0):
            cur = self.home[tenant]
            if self.load[cur] > min(self.load):
                dst = self._choose_least_loaded(tenant)
                self._decisions[tenant] = self._decisions.get(tenant, 0) + 1
                if dst != cur:
                    migration = Migration(tenant=tenant, seq=arr.seq,
                                          src=cur, dst=dst)
                    self.migrations.append(migration)
                    self.home[tenant] = dst
        shard = self.home[tenant]
        self.load[shard] += 1
        self.seen[tenant] = seen + 1
        return shard, migration


def plan_placement(config: ShardedServeConfig,
                   ) -> tuple[list[list[int]], list[Migration], list[int]]:
    """Streaming pre-pass: which tenants ever run on which shard.

    Returns (members-per-shard, migrations, arrivals-routed-per-shard).
    Each shard boots exactly its member set -- cross-shard moves are
    known before any kernel exists, which is what lets shards run as
    independent :mod:`repro.exec` grid cells.
    """
    placer = Placer(config)
    members: list[set[int]] = [set() for _ in range(config.shards)]
    for arr in _arrivals(config):
        shard, _ = placer.route(arr)
        members[shard].add(arr.tenant)
    return ([sorted(m) for m in members], placer.migrations,
            list(placer.load))


def _arrivals(config: ServeConfig) -> Iterator[Arrival]:
    return arrival_stream(config.seed, config.tenants,
                          config.requests_per_tenant,
                          config.mean_interarrival)


# ---------------------------------------------------------------------------
# Memoized service records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoRecord:
    """The measured cost of one interpreted dispatch class."""

    kernel_cycles: float
    syscalls: int
    driver_calls: int
    fence_stall_cycles: float
    fenced_loads: tuple[tuple[str, int], ...]


@dataclass
class _ReplayedStats:
    """Driver-equivalent accounting for replayed (non-interpreted)
    dispatches, folded in at collect time."""

    kernel_cycles: float = 0.0
    syscalls: int = 0
    fence_stall_cycles: float = 0.0
    fenced_loads: dict[str, int] = field(default_factory=dict)

    def add(self, rec: MemoRecord) -> None:
        self.kernel_cycles += rec.kernel_cycles
        self.syscalls += rec.syscalls
        self.fence_stall_cycles += rec.fence_stall_cycles
        for kind, count in rec.fenced_loads:
            self.fenced_loads[kind] = self.fenced_loads.get(kind, 0) + count

    def fold_into(self, report: TenantReport) -> None:
        """Add the replayed accounting on top of the driver's figures."""
        report.kernel_cycles += self.kernel_cycles
        report.syscalls += self.syscalls
        report.fence_stall_cycles += self.fence_stall_cycles
        fenced = dict(report.fenced_loads)
        for kind, count in self.fenced_loads.items():
            fenced[kind] = fenced.get(kind, 0) + count
        report.fenced_loads = dict(sorted(fenced.items()))


# ---------------------------------------------------------------------------
# The per-shard scheduler
# ---------------------------------------------------------------------------


class ShardScheduler(RunToCompletionScheduler):
    """Run-to-completion scheduling on one shard's private core.

    Adds migration charging and the ``memo`` service model on top of
    the base scheduler.  In ``full`` mode the dispatch path is the
    inherited one plus cold-migration flushes and excess-cycle
    attribution around it; ``memo`` replaces only the service step and
    books completions through the same base-class helpers.
    """

    def __init__(self, tenants: list[Tenant | None],
                 reports: list[TenantReport], queue_bound: int = 0, *,
                 trace_seed: int = 0, trace_cell: str = "",
                 kernel=None, shard_index: int = 0,
                 config: ShardedServeConfig | None = None) -> None:
        super().__init__(tenants, reports, queue_bound,
                         trace_seed=trace_seed, trace_cell=trace_cell)
        self.kernel = kernel
        self.shard_index = shard_index
        self.config = config or ShardedServeConfig()
        self.memo_mode = self.config.service_model == "memo"
        #: tenant -> source shard of a pending (not yet charged) move-in.
        self._cold_from: dict[int, int] = {}
        self.migrations_in = 0
        self.tenant_migrations: dict[int, int] = {}
        self.ibpb_flushes = 0
        self.migration_cold_dispatches = 0
        self.migration_excess_cycles = 0.0
        #: (tenant, phase) -> last warm total service cycles, the
        #: reference the cold-dispatch excess is attributed against.
        self._warm_obs: dict[tuple[int, int], float] = {}
        # Memo state: service classes keyed (tenant, phase, cold,
        # rare-phase); switch classes keyed (tenant, cold, rare-phase).
        self._service_memo: dict[tuple, MemoRecord] = {}
        self._switch_memo: dict[tuple, MemoRecord] = {}
        self._seen: dict[tuple, int] = {}
        self._replayed: dict[int, _ReplayedStats] = {}
        self.memo_replays = 0
        self.memo_interpreted = 0

    # -- migration ---------------------------------------------------------

    def note_migration(self, tenant: int, src: int) -> None:
        """A tenant just migrated in; its next dispatch runs cold."""
        self._cold_from[tenant] = src
        self.migrations_in += 1
        self.tenant_migrations[tenant] = \
            self.tenant_migrations.get(tenant, 0) + 1
        obs.add("serve.migrations")

    def _flush_for_migration(self, tenant_idx: int, src: int) -> None:
        """Charge the move-in on this core: IBPB-style full predictor
        flush plus ASID-targeted view-cache invalidation, so the next
        dispatches pay cold-refill costs through the real pipeline."""
        tenant = self.tenants[tenant_idx]
        ctx = tenant.proc.cgroup.cg_id
        self.kernel.branch_unit.reset()
        # Force the context-switch flush path on the next syscall too:
        # whatever ran last on this core, the migrated context is new.
        self.kernel._last_kernel_ctx = None
        framework = getattr(self.kernel.pipeline.policy, "framework", None)
        if framework is not None:
            framework.isv_cache.invalidate_asid(ctx)
            framework.dsv_cache.invalidate_asid(ctx)
        self.ibpb_flushes += 1
        obs.add("serve.migration.flushes")
        ev.emit("tenant-migration", context=ctx,
                reason=f"shard{src}->shard{self.shard_index}",
                scheme=self.kernel.pipeline.policy.name)

    # -- memo plumbing -----------------------------------------------------

    def _rare_phase(self, tenant: Tenant) -> int:
        rare = tenant.driver.rare_every
        return tenant.driver._counter % rare if rare else 0

    def _snapshot(self, tenant: Tenant):
        stats = tenant.driver.stats
        return (stats.kernel_cycles, stats.syscalls,
                tenant.driver._counter, stats.exec.fence_stall_cycles,
                dict(stats.exec.fenced_loads))

    def _delta(self, tenant: Tenant, before) -> MemoRecord:
        stats = tenant.driver.stats
        fenced = tuple(sorted(
            (kind, count - before[4].get(kind, 0))
            for kind, count in stats.exec.fenced_loads.items()
            if count != before[4].get(kind, 0)))
        return MemoRecord(
            kernel_cycles=stats.kernel_cycles - before[0],
            syscalls=stats.syscalls - before[1],
            driver_calls=tenant.driver._counter - before[2],
            fence_stall_cycles=stats.exec.fence_stall_cycles - before[3],
            fenced_loads=fenced)

    def _replay(self, tenant_idx: int, rec: MemoRecord) -> None:
        acc = self._replayed.get(tenant_idx)
        if acc is None:
            acc = self._replayed[tenant_idx] = _ReplayedStats()
        acc.add(rec)
        # Advance the driver's call counter so rare-path phases stay
        # aligned with what full interpretation would have seen.
        self.tenants[tenant_idx].driver._counter += rec.driver_calls

    def preload_memo(self, tables: dict[str, dict]) -> None:
        """Transplant memo tables from a prior run of the same config
        (the benchmark pre-warms once, then times pure scheduling)."""
        self._service_memo.update(tables.get("service", {}))
        self._switch_memo.update(tables.get("switch", {}))
        for key in list(tables.get("service", {})) \
                + list(tables.get("switch", {})):
            self._seen[key] = self.config.memo_warmup

    def memo_tables(self) -> dict[str, dict]:
        return {"service": dict(self._service_memo),
                "switch": dict(self._switch_memo)}

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, arr: Arrival) -> None:
        cold = arr.tenant in self._cold_from
        if cold:
            src = self._cold_from.pop(arr.tenant)
            self._flush_for_migration(arr.tenant, src)
            self.migration_cold_dispatches += 1
        tenant = self.tenants[arr.tenant]
        phase = tenant.counter % self.config.period_of(arr.tenant)
        if self.memo_mode:
            self._dispatch_memo(arr, cold, phase)
            return
        before = tenant.driver.stats.kernel_cycles
        super().dispatch(arr)
        total = tenant.driver.stats.kernel_cycles - before
        self._account_cost(arr.tenant, phase, cold, total)

    def _account_cost(self, tenant_idx: int, phase: int, cold: bool,
                      total: float) -> None:
        key = (tenant_idx, phase)
        if cold:
            warm = self._warm_obs.get(key)
            if warm is not None:
                self.migration_excess_cycles += max(0.0, total - warm)
        else:
            self._warm_obs[key] = total

    def _memoized(self, memo: dict[tuple, MemoRecord], key: tuple,
                  tenant_idx: int, run, *args) -> tuple[MemoRecord, bool]:
        """Replay ``key``'s record once it is warm; otherwise interpret
        ``run(*args)`` through the pipeline and record its cost.
        Returns the record and whether it was replayed."""
        mrec = memo.get(key)
        if mrec is not None \
                and self._seen.get(key, 0) >= self.config.memo_warmup:
            self._replay(tenant_idx, mrec)
            self.memo_replays += 1
            obs.add("serve.memo.replays")
            return mrec, True
        tenant = self.tenants[tenant_idx]
        before = self._snapshot(tenant)
        run(*args)
        mrec = self._delta(tenant, before)
        memo[key] = mrec
        self._seen[key] = self._seen.get(key, 0) + 1
        self.memo_interpreted += 1
        obs.add("serve.memo.interpreted")
        return mrec, False

    def _dispatch_memo(self, arr: Arrival, cold: bool, phase: int) -> None:
        tenant = self.tenants[arr.tenant]
        start, rec, trace = self._open_slice(arr)
        switch_cycles = 0.0
        if self.current != arr.tenant:
            skey = ("sw", arr.tenant, cold, self._rare_phase(tenant))
            srec, _ = self._memoized(self._switch_memo, skey, arr.tenant,
                                     tenant.driver.call, "sched_yield")
            switch_cycles = srec.kernel_cycles
            self._note_switch(arr.tenant, switch_cycles)
        key = (arr.tenant, phase, cold, self._rare_phase(tenant))
        mrec, replayed = self._memoized(
            self._service_memo, key, arr.tenant, tenant.profile.request,
            tenant.driver, tenant.state, tenant.counter)
        tenant.counter += 1
        service = mrec.kernel_cycles
        if replayed and rec is not None:
            rec.record("service", "memo-replay", service, {})
        self._account_cost(arr.tenant, phase, cold,
                           switch_cycles + service)
        self._complete(arr, start, start + switch_cycles + service,
                       rec, trace)


# ---------------------------------------------------------------------------
# Shard construction, serving loops, reports
# ---------------------------------------------------------------------------


@dataclass
class ShardState:
    """One booted shard: its kernel, member tenants, and scheduler."""

    index: int
    members: list[int]
    kernel: Any = None
    tenants: list[Tenant | None] = field(default_factory=list)
    reports: list[TenantReport] = field(default_factory=list)
    sched: ShardScheduler | None = None


@dataclass
class ShardReport:
    """Per-shard outcome (JSON-stable via as_dict)."""

    shard: int
    tenants: list[int]
    arrivals: int = 0
    admitted: int = 0
    shed: int = 0
    completed: int = 0
    makespan_cycles: float = 0.0
    kernel_cycles: float = 0.0
    switches: int = 0
    switch_cycles: float = 0.0
    migrations_in: int = 0
    ibpb_flushes: int = 0
    migration_cold_dispatches: int = 0
    migration_excess_cycles: float = 0.0
    memo_keys: int = 0
    memo_replays: int = 0
    memo_interpreted: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "shard": self.shard, "tenants": list(self.tenants),
            "arrivals": self.arrivals, "admitted": self.admitted,
            "shed": self.shed, "completed": self.completed,
            "makespan_cycles": self.makespan_cycles,
            "kernel_cycles": self.kernel_cycles,
            "switches": self.switches,
            "switch_cycles": self.switch_cycles,
            "migrations_in": self.migrations_in,
            "ibpb_flushes": self.ibpb_flushes,
            "migration_cold_dispatches": self.migration_cold_dispatches,
            "migration_excess_cycles": self.migration_excess_cycles,
            "memo_keys": self.memo_keys,
            "memo_replays": self.memo_replays,
            "memo_interpreted": self.memo_interpreted,
        }


@dataclass
class ShardedServeReport:
    """Aggregate outcome across all shards (JSON-stable via as_dict)."""

    config: ShardedServeConfig
    tenants: list[TenantReport] = field(default_factory=list)
    shards: list[ShardReport] = field(default_factory=list)
    makespan_cycles: float = 0.0
    migrations: list[Migration] = field(default_factory=list)
    placement_home: dict[int, int] = field(default_factory=dict)
    #: Wall-clock seconds of the serving loop only (boot and the
    #: placement pre-pass excluded); diagnostic, never part of as_dict.
    serve_seconds: float = 0.0

    @property
    def completed(self) -> int:
        return sum(t.completed for t in self.tenants)

    @property
    def shed(self) -> int:
        return sum(t.shed for t in self.tenants)

    @property
    def all_latencies(self) -> list[float]:
        merged: list[float] = []
        for tenant in self.tenants:
            merged.extend(tenant.latencies)
        return merged

    @property
    def throughput_rps(self) -> float:
        if self.makespan_cycles <= 0.0:
            return 0.0
        return self.completed * CORE_HZ / self.makespan_cycles

    def as_dict(self) -> dict[str, Any]:
        # Sorted once up front: percentile's own sort of a sorted list
        # is linear, which matters at 10^6 latencies.
        ordered = sorted(self.all_latencies)

        def pct(q: float) -> float:
            return percentile(ordered, q) if ordered else 0.0

        return {
            "config": self.config.as_dict(),
            "makespan_cycles": self.makespan_cycles,
            "completed": self.completed,
            "shed": self.shed,
            "throughput_rps": self.throughput_rps,
            "latency_p50": pct(50.0),
            "latency_p95": pct(95.0),
            "latency_p99": pct(99.0),
            "kernel_cycles": sum(t.kernel_cycles for t in self.tenants),
            "switches": sum(t.switches for t in self.tenants),
            "switch_cycles": sum(t.switch_cycles for t in self.tenants),
            "fence_stall_cycles": sum(t.fence_stall_cycles
                                      for t in self.tenants),
            "tenants": [t.as_dict() for t in self.tenants],
            "shards": [s.as_dict() for s in self.shards],
            "placement": {
                "policy": self.config.placement,
                "home": {str(t): s for t, s
                         in sorted(self.placement_home.items())},
            },
            "migrations": len(self.migrations),
            "migration_excess_cycles": sum(
                s.migration_excess_cycles for s in self.shards),
            "memo_replays": sum(s.memo_replays for s in self.shards),
            "memo_interpreted": sum(s.memo_interpreted
                                    for s in self.shards),
        }


def _fresh_reports(config: ServeConfig) -> list[TenantReport]:
    return [TenantReport(tenant=i, profile=config.profile_of(i))
            for i in range(config.tenants)]


def _trace_cell(config: ShardedServeConfig, shard_index: int) -> str:
    cell = f"s{config.seed}.t{config.tenants}"
    if config.shards > 1:
        cell += f".sh{shard_index}"
    return cell


def _boot_shard(config: ShardedServeConfig, index: int,
                members: list[int], image=None,
                block_cache: bool | None = None) -> ShardState:
    state = ShardState(index=index, members=members,
                       reports=_fresh_reports(config))
    if not members:
        state.tenants = [None] * config.tenants
        return state
    kernel, booted = boot_tenants(config, image=image,
                                  block_cache=block_cache,
                                  indices=members)
    tenants: list[Tenant | None] = [None] * config.tenants
    for tenant in booted:
        tenants[tenant.index] = tenant
    state.kernel = kernel
    state.tenants = tenants
    state.sched = ShardScheduler(
        tenants, state.reports, queue_bound=config.queue_bound,
        trace_seed=config.seed, trace_cell=_trace_cell(config, index),
        kernel=kernel, shard_index=index, config=config)
    return state


def _collect_shard(state: ShardState) -> None:
    """Fold driver stats, then replayed-dispatch accounting, into the
    shard's per-tenant reports."""
    if state.sched is None:
        return
    collect_tenant_stats([state.tenants[idx] for idx in state.members],
                         [state.reports[idx] for idx in state.members])
    for idx in state.members:
        replayed = state.sched._replayed.get(idx)
        if replayed is not None:
            replayed.fold_into(state.reports[idx])


def _shard_report(state: ShardState) -> ShardReport:
    out = ShardReport(shard=state.index, tenants=list(state.members))
    for report in state.reports:
        out.arrivals += report.arrivals
        out.admitted += report.admitted
        out.shed += report.shed
        out.completed += report.completed
        out.kernel_cycles += report.kernel_cycles
        out.switches += report.switches
        out.switch_cycles += report.switch_cycles
    sched = state.sched
    if sched is not None:
        out.makespan_cycles = sched.makespan
        out.migrations_in = sched.migrations_in
        out.ibpb_flushes = sched.ibpb_flushes
        out.migration_cold_dispatches = sched.migration_cold_dispatches
        out.migration_excess_cycles = sched.migration_excess_cycles
        out.memo_keys = (len(sched._service_memo)
                         + len(sched._switch_memo))
        out.memo_replays = sched.memo_replays
        out.memo_interpreted = sched.memo_interpreted
    return out


def _merge_tenant_reports(config: ShardedServeConfig,
                          states: list[ShardState]) -> list[TenantReport]:
    merged = _fresh_reports(config)
    for state in states:
        for idx in range(config.tenants):
            src = state.reports[idx]
            dst = merged[idx]
            dst.arrivals += src.arrivals
            dst.admitted += src.admitted
            dst.shed += src.shed
            dst.corrupt_shed += src.corrupt_shed
            dst.completed += src.completed
            dst.kernel_cycles += src.kernel_cycles
            dst.syscalls += src.syscalls
            dst.switches += src.switches
            dst.switch_cycles += src.switch_cycles
            dst.fence_stall_cycles += src.fence_stall_cycles
            for kind, count in src.fenced_loads.items():
                dst.fenced_loads[kind] = \
                    dst.fenced_loads.get(kind, 0) + count
            dst.latencies.extend(src.latencies)
    for report in merged:
        report.fenced_loads = dict(sorted(report.fenced_loads.items()))
    return merged


def _offer_routed(placer: Placer, scheds: dict[int, ShardScheduler],
                  arr: Arrival) -> None:
    """Route one arrival; the shard it lands on (when served here) is
    told of a migration first, then offered the arrival."""
    shard, migration = placer.route(arr)
    sched = scheds.get(shard)
    if sched is None:
        return
    if migration is not None:
        sched.note_migration(arr.tenant, migration.src)
    sched.offer(arr)


def _serve_events(config: ShardedServeConfig,
                  scheds: dict[int, ShardScheduler]) -> Placer:
    """The event loop: stream every arrival through a fresh placer to
    the schedulers in ``scheds`` (keyed by shard index; arrivals routed
    elsewhere are skipped), then drain them in key order."""
    placer = Placer(config)
    for arr in _arrivals(config):
        _offer_routed(placer, scheds, arr)
    for sched in scheds.values():
        sched.drain()
    return placer


def run_serve_sharded(config: ShardedServeConfig, image=None, *,
                      block_cache: bool | None = None,
                      mode: str = "event",
                      dense_quantum: float = 1000.0,
                      memo_seed: list[dict] | None = None,
                      ) -> ShardedServeReport:
    """Run the sharded open-loop simulation.

    ``mode="event"`` (default) streams arrivals and lets each shard
    jump from its ``free_at`` horizon straight to the next arrival.
    ``mode="dense"`` is the quantum-stepping reference loop: it walks
    simulated time in ``dense_quantum``-cycle ticks and polls every
    shard each tick.  Both produce byte-identical reports -- dispatch
    outcomes depend only on arrival order and queue state, never on
    when the host happens to execute them -- so the benchmark can time
    the scheduling strategies against each other in isolation.

    ``memo_seed`` transplants memo tables from a prior run of the same
    config (see :meth:`ShardScheduler.preload_memo`).
    """
    if mode not in ("event", "dense"):
        raise ValueError(f"unknown mode {mode!r}")
    members, _, _ = plan_placement(config)
    states = [_boot_shard(config, index, members[index], image=image,
                          block_cache=block_cache)
              for index in range(config.shards)]
    if memo_seed is not None:
        for state, tables in zip(states, memo_seed):
            if state.sched is not None:
                state.sched.preload_memo(tables)
    scheds = {state.index: state.sched for state in states
              if state.sched is not None}
    started = time.perf_counter()
    if mode == "event":
        placer = _serve_events(config, scheds)
    else:
        placer = Placer(config)
        stream = _arrivals(config)
        pending = next(stream, None)
        now = 0.0
        while pending is not None:
            now += dense_quantum
            while pending is not None and pending.cycle <= now:
                _offer_routed(placer, scheds, pending)
                pending = next(stream, None)
            for sched in scheds.values():
                sched.drain_until(now)
        for sched in scheds.values():
            sched.drain()
    serve_seconds = time.perf_counter() - started
    for state in states:
        _collect_shard(state)
    report = ShardedServeReport(
        config=config,
        tenants=_merge_tenant_reports(config, states),
        shards=[_shard_report(state) for state in states],
        makespan_cycles=max((s.sched.makespan for s in states
                             if s.sched is not None), default=0.0),
        migrations=list(placer.migrations),
        placement_home=dict(placer.home),
        serve_seconds=serve_seconds)
    report._states = states  # memo-table extraction (benchmark only)
    return report


def memo_tables_of(report: ShardedServeReport) -> list[dict]:
    """The per-shard memo tables of a finished run (for transplanting
    into a fresh engine of the same config)."""
    return [state.sched.memo_tables() if state.sched is not None else {}
            for state in report._states]


# ---------------------------------------------------------------------------
# The serve grid cell (the repro.exec fan-out unit)
# ---------------------------------------------------------------------------


def serve_cell(params: dict[str, Any],
               observe: bool = False) -> dict[str, Any]:
    """One (seed, tenants) cell of the serve sweep.

    Builds the config with :func:`sharded_config_from_params` (one
    shard and the ``full`` service model unless the params say
    otherwise) and returns the :func:`run_serve_sharded` report as a
    JSON-able dict; with ``observe=True`` the cell runs inside its own
    fresh :class:`repro.obs.MetricsRegistry` (the per-cell structure the
    parallel engine requires) and attaches its snapshot under
    ``"metrics"``.

    Extra (non-config) params, all observation-only -- the report bytes
    are identical with or without them:

    * ``block_cache`` -- force the block JIT on/off for the cell.
    * ``trace`` -- run under a fresh ``TraceRecorder``; attaches its
      snapshot under ``"traces"``.
    * ``slo_window`` -- run under a fresh ``SloRollup`` with this
      window width (simulated cycles); attaches it under ``"slo"``.
    """
    config = sharded_config_from_params(params)

    def run() -> dict[str, Any]:
        return run_serve_sharded(
            config, block_cache=params.get("block_cache")).as_dict()

    trace = bool(params.get("trace"))
    slo_window = params.get("slo_window")
    if not (observe or trace or slo_window):
        return run()
    from contextlib import ExitStack

    from repro.obs import MetricsRegistry, observing
    registry = MetricsRegistry() if observe else None
    recorder = rt.TraceRecorder() if trace else None
    rollup = slo.SloRollup(float(slo_window),
                           latency_buckets=LATENCY_BUCKETS) \
        if slo_window else None
    with ExitStack() as stack:
        if registry is not None:
            stack.enter_context(observing(registry))
        if recorder is not None:
            stack.enter_context(rt.tracing(recorder))
        if rollup is not None:
            stack.enter_context(slo.collecting(rollup))
        out = run()
        if registry is not None:
            # Summary gauges under a per-cell prefix, so merged cell
            # registries never collide and the smoke snapshot carries
            # the report figures the diff gate should watch.
            cell = f"serve.cell.s{config.seed}.t{config.tenants}"
            obs.gauge(f"{cell}.shards", config.shards)
            for key in ("completed", "shed", "throughput_rps",
                        "makespan_cycles", "latency_p50", "latency_p95",
                        "latency_p99", "switch_cycles",
                        "fence_stall_cycles", "migrations",
                        "migration_excess_cycles"):
                obs.gauge(f"{cell}.{key}", out[key])
    if registry is not None:
        out["metrics"] = registry.snapshot()
    if recorder is not None:
        out["traces"] = recorder.snapshot()
    if rollup is not None:
        out["slo"] = rollup.snapshot()
    return out


# ---------------------------------------------------------------------------
# The serve-scale grid cell (one shard of one experiment)
# ---------------------------------------------------------------------------


def latency_histogram(latencies: list[float]) -> list[int]:
    """Counts per SCALE_LATENCY_BUCKETS bound (last slot = overflow)."""
    counts = [0] * (len(SCALE_LATENCY_BUCKETS) + 1)
    for value in latencies:
        counts[bisect_left(SCALE_LATENCY_BUCKETS, value)] += 1
    return counts


def histogram_percentile(counts: list[int], q: float) -> float:
    """Nearest-rank percentile at bucket-bound resolution."""
    total = sum(counts)
    if not total:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * total))
    running = 0
    for index, count in enumerate(counts):
        running += count
        if running >= rank:
            return SCALE_LATENCY_BUCKETS[min(
                index, len(SCALE_LATENCY_BUCKETS) - 1)]
    return SCALE_LATENCY_BUCKETS[-1]


def scale_shard_cell(params: dict[str, Any]) -> dict[str, Any]:
    """One (scheme, tenants, shards, shard) cell of the scale grid.

    Reconstructs the placement plan independently (it is a pure
    function of the config), boots only this shard's members, serves
    only the arrivals routed here, and ships per-tenant summaries plus
    a fixed-bucket latency histogram -- everything the assembler needs
    for byte-exact merged scaling rows, without raw latency lists.
    """
    config = sharded_config_from_params(params)
    shard_index = int(params["shard"])
    members, _, _ = plan_placement(config)
    state = _boot_shard(config, shard_index, members[shard_index],
                        block_cache=params.get("block_cache"))
    _serve_events(config, {} if state.sched is None
                  else {shard_index: state.sched})
    _collect_shard(state)
    shard_report = _shard_report(state)
    latencies: list[float] = []
    tenant_rows = []
    for idx in state.members:
        report = state.reports[idx]
        latencies.extend(report.latencies)
        row = report.as_dict()
        del row["latency_p50"], row["latency_p95"], row["latency_p99"]
        del row["latency_mean"], row["latency_max"]
        row["migrations_in"] = \
            state.sched.tenant_migrations.get(idx, 0) \
            if state.sched else 0
        tenant_rows.append(row)
    return {
        "shard": shard_index,
        "members": list(state.members),
        "report": shard_report.as_dict(),
        "tenants": tenant_rows,
        "latency_hist": latency_histogram(latencies),
    }


def merge_scale_shards(scheme: str, tenants: int, shards: int,
                       payloads: list[dict[str, Any]]) -> dict[str, Any]:
    """Merge one experiment's per-shard cell payloads (in shard order)
    into a scaling row.  Pure dict/int arithmetic: byte-exact under any
    worker fan-out."""
    hist = [0] * (len(SCALE_LATENCY_BUCKETS) + 1)
    totals = {key: 0 for key in
              ("arrivals", "admitted", "shed", "completed", "switches",
               "migrations_in", "ibpb_flushes",
               "migration_cold_dispatches", "memo_keys", "memo_replays",
               "memo_interpreted")}
    cycles = {key: 0.0 for key in
              ("kernel_cycles", "switch_cycles",
               "migration_excess_cycles")}
    makespan = 0.0
    per_shard = []
    for payload in payloads:
        report = payload["report"]
        for key in totals:
            totals[key] += report[key]
        for key in cycles:
            cycles[key] += report[key]
        makespan = max(makespan, report["makespan_cycles"])
        for index, count in enumerate(payload["latency_hist"]):
            hist[index] += count
        per_shard.append({
            "shard": report["shard"],
            "tenants": len(payload["members"]),
            "completed": report["completed"],
            "makespan_cycles": report["makespan_cycles"],
            "migrations_in": report["migrations_in"],
        })
    offered = totals["arrivals"]
    if offered != totals["admitted"] + totals["shed"]:
        raise AssertionError(
            f"conservation violated: offered={offered} != "
            f"admitted={totals['admitted']} + shed={totals['shed']}")
    throughput = (totals["completed"] * CORE_HZ / makespan
                  if makespan > 0 else 0.0)
    return {
        "scheme": scheme, "tenants": tenants, "shards": shards,
        "offered": offered,
        **totals, **cycles,
        "makespan_cycles": makespan,
        "throughput_rps": throughput,
        "latency_p50": histogram_percentile(hist, 50.0),
        "latency_p99": histogram_percentile(hist, 99.0),
        "per_shard": per_shard,
    }
