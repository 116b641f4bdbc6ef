"""Multi-tenant traffic simulation (the "heavy traffic" workload plane).

``repro.serve`` opens the workload dimension the paper evaluates with
ab/redis-benchmark/memslap (Ch. 7) but at *multi-tenant* pressure, where
the interesting security/perf trade-off lives: context switches between
distrusting tenants are exactly where ISV/DSV view switches concentrate.

Four layers:

* :mod:`repro.serve.arrival` -- a seeded open-loop arrival process; a
  pure function of ``(seed, config)``, so schedules are byte-identical
  regardless of process, worker count, or hash seed;
* :mod:`repro.serve.engine` -- one simulated core: tenants are
  cgroup-backed kernel processes sharing it; a run-to-completion
  scheduler charges real context-switch and view-switch costs through
  the existing pipeline and driver; an admission-control bound sheds
  load deterministically;
* :mod:`repro.serve.shard` -- the serve driver, :func:`run_serve_sharded`:
  each of ``shards`` (default 1) is a private MiniKernel core, tenants
  are placed by deterministic policies, cross-shard migrations are
  explicitly charged, and an event-driven loop skips idle gaps so
  million-request experiments finish in seconds;
* :mod:`repro.serve.conformance` -- the cross-scheme differential
  oracle: every defense scheme must produce identical *architectural*
  results on a seeded syscall corpus, differing only in cycle counts.
"""

from repro.serve.arrival import (
    Arrival,
    arrival_schedule,
    arrival_stream,
    percentile,
)
from repro.serve.conformance import (
    CONFORMANCE_SCHEMES,
    ConformanceResult,
    check_seed,
    generate_trace,
    minimize_divergence,
    run_corpus,
)
from repro.serve.engine import ServeConfig, TenantReport
from repro.serve.shard import (
    PLACEMENT_POLICIES,
    Placer,
    ShardedServeConfig,
    ShardedServeReport,
    memo_tables_of,
    plan_placement,
    run_serve_sharded,
    scale_shard_cell,
    serve_cell,
    static_placement,
)

__all__ = [
    "Arrival",
    "arrival_schedule",
    "arrival_stream",
    "percentile",
    "ServeConfig",
    "TenantReport",
    "PLACEMENT_POLICIES",
    "Placer",
    "ShardedServeConfig",
    "ShardedServeReport",
    "memo_tables_of",
    "plan_placement",
    "run_serve_sharded",
    "scale_shard_cell",
    "serve_cell",
    "static_placement",
    "CONFORMANCE_SCHEMES",
    "ConformanceResult",
    "check_seed",
    "generate_trace",
    "minimize_divergence",
    "run_corpus",
]
