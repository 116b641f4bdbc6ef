"""The four benchmark workloads, each one pass of simulated work.

A pass calls the simulator's public functions directly, in this process,
and returns a digest of everything it simulated plus its own correctness
verdict.  Inputs come only from the seed: the same seed gives the same
digest on every pass, in every run, traced or not.

* ``lebench`` -- the Fig. 9.2 grid: every ``PERF_SCHEMES`` column on a
  fresh environment, block JIT off.  Steady-state interpreter-bound.
* ``serve`` -- full-model multi-tenant serving on 2 shards with
  least-loaded placement and migration, block JIT on.  View switches,
  DSVMT walks and migration flushes between distrusting tenants.
* ``serve-scale`` -- the serve-scale grid's memo configuration, sized so
  replayed dispatches outnumber interpreted ones by more than 1000:1.
  Scheduler, arrivals, memo replay and obs hooks; little interpreter.
* ``conformance`` -- the seeded conformance corpus under all 8 schemes.
  Many short-lived kernels: boot, profiling and ISV builds run cold.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Committed Fig. 9.2-style defense matrix the lebench pass must agree with.
MATRIX_PATH = Path("benchmarks") / "out" / "defense_matrix.json"

SERVE_REQUESTS_PER_TENANT = 40
SERVE_MIGRATE_EVERY = 10
SCALE_REQUESTS_PER_TENANT = 40_000
#: Conformance traces per pass; seed ``s`` checks corpus seeds
#: ``[s * CONFORMANCE_TRACES, (s + 1) * CONFORMANCE_TRACES)``.
CONFORMANCE_TRACES = 6


@dataclass
class PassResult:
    """Outcome of one pass."""

    #: SHA-256 over the pass's simulated outputs.
    digest: str
    #: Outputs this pass checked, and how many of them failed.
    units: int
    failed: int = 0
    #: Simulated requests completed (serve workloads; 0 elsewhere).
    requests: int = 0
    #: Serve-plane counters for the traced run (names as reported).
    counts: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _sha(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# lebench
# ---------------------------------------------------------------------------


def lebench_pass(seed: int, image: Any, root: Path) -> PassResult:
    """Fig. 9.2: every PERF_SCHEMES column of LEBench.  Deterministic; the
    seed does not change its input."""
    from repro.eval.envs import PERF_SCHEMES, RARE_EVERY, make_env
    from repro.workloads.lebench import run_lebench
    cycles: dict[str, dict[str, float]] = {}
    fences: dict[str, tuple[int, int]] = {}
    for scheme in PERF_SCHEMES:
        env = make_env("lebench", scheme, image=image)
        stats: list = []
        cycles[scheme] = run_lebench(env.kernel, env.proc,
                                     rare_every=RARE_EVERY,
                                     collect_stats=stats)
        fences[scheme] = (sum(s.exec.total_fenced for s in stats),
                          sum(s.exec.committed_ops for s in stats))
    problems = matrix_mismatches(cycles, fences, root / MATRIX_PATH)
    return PassResult(digest=_sha(cycles), units=len(PERF_SCHEMES),
                      failed=len(problems), problems=problems)


def matrix_mismatches(cycles: dict[str, dict[str, float]],
                      fences: dict[str, tuple[int, int]],
                      path: Path) -> list[str]:
    """Schemes whose overhead columns differ from the committed defense
    matrix, computed with the matrix's own formulas (read-only)."""
    from repro.eval.metrics import geomean
    committed = json.loads(path.read_text())["performance"]
    base = cycles["unsafe"]
    problems = []
    for scheme in sorted(set(cycles) & set(committed)):
        fenced, committed_ops = fences[scheme]
        ratios = [cycles[scheme][test] / base[test] for test in base]
        row = {
            "overhead_geomean_pct": round(100.0 * (geomean(ratios) - 1.0),
                                          4),
            "fences_per_kinst": round(1000.0 * fenced / committed_ops
                                      if committed_ops else 0.0, 4),
            "fenced_loads": fenced,
        }
        if row != committed[scheme]:
            problems.append(f"lebench {scheme}: {row} != committed "
                            f"{committed[scheme]}")
    return problems


# ---------------------------------------------------------------------------
# serve / serve-scale
# ---------------------------------------------------------------------------


def serve_config(seed: int) -> Any:
    from repro.serve.shard import ShardedServeConfig
    return ShardedServeConfig(
        scheme="perspective", tenants=4, seed=seed,
        requests_per_tenant=SERVE_REQUESTS_PER_TENANT, shards=2,
        placement="least-loaded", migrate_every=SERVE_MIGRATE_EVERY)


def scale_config(seed: int,
                 requests_per_tenant: int = SCALE_REQUESTS_PER_TENANT) -> Any:
    from repro.serve.shard import ShardedServeConfig
    return ShardedServeConfig(
        scheme="perspective", tenants=4, seed=seed,
        requests_per_tenant=requests_per_tenant,
        mean_interarrival=40_000.0, queue_bound=0, rare_every=0,
        profile_requests=2, shards=2, placement="least-loaded",
        migrate_every=100, service_model="memo", memo_warmup=1,
        memo_period=24)


def run_serve(config: Any, image: Any) -> PassResult:
    """One sharded serve run, block JIT on as ``python -m repro.serve``
    runs it; conservation is checked per tenant."""
    from repro.serve.shard import run_serve_sharded
    report = run_serve_sharded(config, image, block_cache=True)
    summary = report.as_dict()
    problems = []
    failed = 0
    for t in report.tenants:
        if t.arrivals != t.admitted + t.shed or t.completed != t.admitted:
            failed += t.arrivals
            problems.append(
                f"tenant {t.tenant}: arrivals={t.arrivals} admitted="
                f"{t.admitted} shed={t.shed} completed={t.completed}")
    return PassResult(
        digest=_sha(summary),
        units=sum(t.arrivals for t in report.tenants), failed=failed,
        requests=report.completed, problems=problems,
        counts={"serve.memo_replays": summary["memo_replays"],
                "serve.memo_interpreted": summary["memo_interpreted"],
                "serve.latency_p50_cycles": summary["latency_p50"],
                "serve.latency_p99_cycles": summary["latency_p99"]})


def serve_pass(seed: int, image: Any, root: Path) -> PassResult:
    return run_serve(serve_config(seed), image)


def scale_pass(seed: int, image: Any, root: Path) -> PassResult:
    return run_serve(scale_config(seed), image)


# ---------------------------------------------------------------------------
# conformance
# ---------------------------------------------------------------------------


def conformance_seeds(seed: int, traces: int = CONFORMANCE_TRACES
                      ) -> range:
    return range(seed * traces, (seed + 1) * traces)


def conformance_pass(seed: int, image: Any, root: Path,
                     traces: int = CONFORMANCE_TRACES) -> PassResult:
    """The seeded conformance corpus under every conformance scheme.  A
    divergence is a failure here, so it is not minimized inside the
    timed pass."""
    from repro.serve.conformance import CONFORMANCE_SCHEMES, run_corpus
    results = run_corpus(conformance_seeds(seed, traces), minimize=False)
    divergences = sum(len(r.divergences) for r in results)
    return PassResult(
        digest=_sha([[r.seed, r.divergences, r.digests] for r in results]),
        units=len(results) * len(CONFORMANCE_SCHEMES), failed=divergences,
        problems=[f"conformance seed {r.seed}: {r.divergences}"
                  for r in results if r.divergences],
        counts={"serve.conformance.divergences": divergences})


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int, Any, Path], PassResult]
    #: Modules a one-shot command for this workload imports.
    modules: tuple[str, ...]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("lebench", lebench_pass,
             ("repro.eval.envs", "repro.workloads.lebench",
              "repro.eval.metrics")),
    Workload("serve", serve_pass, ("repro.serve.shard",)),
    Workload("serve-scale", scale_pass, ("repro.serve.shard",)),
    Workload("conformance", conformance_pass, ("repro.serve.conformance",)),
)}

