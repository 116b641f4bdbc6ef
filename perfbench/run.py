"""End-to-end benchmark of the simulator: one workload, one process.

    python3 perfbench/run.py --workload lebench --seed 0 --seconds 20 --trace 0

Run from the repository root.  Load is a closed loop: one thread runs
passes back to back until ``--seconds`` have passed (at least one cold
and two warm passes).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: host-time end-to-end metrics of untraced passes.
* ``--trace 1``: untraced and traced warm passes alternate; the metrics
  are per-layer self times and span counts of the median traced pass,
  the simulator's own simulated counters, and the tracing overhead.

Every pass's simulated-output digest must equal the first pass's, and
the digest of an earlier run of the same workload, seed and workload
definition in this checkout (kept in ``perfbench/.cache``).  See
README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = ROOT / "perfbench" / ".cache" / "digests.json"

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_RUNS = 3
MIN_WARM_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s", "first_pass_s": "s", "warm_pass_s": "s",
    "sim_mops_per_s": "Mop/s", "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SETUP_CODE = """\
import importlib, sys
sys.path.insert(0, sys.argv[1])
for name in sys.argv[2:]:
    importlib.import_module(name)
from repro.kernel.image import shared_image
shared_image()
"""


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every metric the traced run reports."""
    from perfbench.tracer import layer_names, self_metric
    units: dict[str, str] = {}
    for layer in layer_names():
        units[self_metric(layer)] = "s"
        units[f"{layer}.calls"] = "count"
    units.update({
        "unattributed_s": "s", "traced_pass_s": "s",
        "trace_overhead": "ratio",
        "cpu.sim_cycles": "cycles", "cpu.committed_ops": "count",
        "cpu.transient_ops": "count",
        "cpu.cache.l1d_hit_rate": "ratio", "cpu.cache.l2_hit_rate": "ratio",
        "cpu.memsys.tlb_hit_rate": "ratio",
        "core.hardware.isv_hit_rate": "ratio",
        "core.hardware.dsv_hit_rate": "ratio",
        "core.dsvmt.walks": "count",
        "defenses.fenced_loads": "count",
        "defenses.fence_stall_cycles": "cycles",
        "cpu.blockcache.hits": "count", "cpu.blockcache.misses": "count",
        "cpu.blockcache.hit_ratio": "ratio",
        "cpu.blockcache.inlined_accesses": "count",
        "serve.memo_replays": "count", "serve.memo_interpreted": "count",
        "serve.latency_p50_cycles": "cycles",
        "serve.latency_p99_cycles": "cycles",
        "serve.conformance.divergences": "count",
    })
    return units


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def time_setup(modules: tuple[str, ...]) -> float:
    """Median wall time of fresh interpreters that import ``modules`` and
    build the shared kernel image -- what every one-shot command pays."""
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                        *modules], check=True, cwd=ROOT)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def remembered_digest(key: str, digest: str) -> str | None:
    """The digest an earlier run recorded for ``key`` (recording this one
    when there is none)."""
    known = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if key in known:
        return known[key]
    known[key] = digest
    DIGESTS.parent.mkdir(exist_ok=True)
    tmp = DIGESTS.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, DIGESTS)
    return None


class Run:
    """Pass bookkeeping shared by traced and untraced runs."""

    def __init__(self, workload, seed: int, image) -> None:
        self.workload = workload
        self.seed = seed
        self.image = image
        self.reference: str | None = None
        #: Outputs a pass checks (known after the first pass).
        self.units = 1
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self, label: str):
        """Run and check one pass; returns (wall seconds, result or None).
        A full collection precedes it, untimed, so every pass starts from
        the same collector state."""
        gc.collect()
        start = time.perf_counter()
        try:
            result = self.workload.run(self.seed, self.image, ROOT)
        except Exception:  # a failing pass is counted, not fatal
            wall = time.perf_counter() - start
            log(traceback.format_exc())
            self.attempted += self.units
            self.fail(f"{label}: raised", self.units)
            return wall, None
        wall = time.perf_counter() - start
        if self.reference is None:
            self.reference = result.digest
            self.units = result.units
        self.attempted += result.units
        self.failed += result.failed
        self.problems.extend(result.problems)
        if result.digest != self.reference:
            self.fail(f"{label}: digest {result.digest} != first pass "
                      f"{self.reference}", result.units - result.failed)
        log(f"{label}: {wall:.3f} s, digest {result.digest[:16]}, "
            f"peak RSS {peak_rss_mb():.1f} MB")
        return wall, result

    def fail(self, problem: str, units: int) -> None:
        self.problems.append(problem)
        self.failed += units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        log(f"error: cannot import the simulator from {SRC}: {exc}")
        return 2
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        log(f"error: repro imported from {repro.__file__}, not {SRC}")
        return 2
    from perfbench import layers, tracer, workloads
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]

    setup_s = time_setup(workload.modules)
    for name in workload.modules:
        __import__(name)
    from repro.kernel.image import shared_image
    run = Run(workload, args.seed, shared_image())

    started = time.perf_counter()
    counter = tracer.WorkCounter()
    with counter.installed():
        first_s, first = run.one_pass("pass 1 (cold)")
    if first is None:
        log("error: the first pass failed; nothing to measure")
        return 1
    definition = hashlib.sha256(
        Path(workloads.__file__).read_bytes()).hexdigest()[:16]
    known = remembered_digest(f"{args.workload}:{args.seed}:{definition}",
                              first.digest)
    if known is not None and known != first.digest:
        run.fail(f"digest {first.digest} != {known} from an earlier run",
                 first.units - first.failed)

    warm: list[float] = []
    traced: list[tuple[float, dict[str, float]]] = []
    while (time.perf_counter() - started < args.seconds
           or len(warm) < (1 if args.trace else MIN_WARM_PASSES)
           or (args.trace and not traced)):
        label = f"pass {2 + len(warm) + len(traced)}"
        if args.trace and len(traced) < len(warm):
            traced.append(traced_pass(run, counter, label, tracer))
        else:
            warm.append(run.one_pass(label + " (warm)")[0])
    for module in layers.loaded_unmapped():
        run.fail(f"module {module} is in no layer of perfbench/layers.py", 0)

    warm_s = statistics.median(warm)
    if args.trace:
        traced.sort(key=lambda item: item[0])
        wall, metrics = traced[(len(traced) - 1) // 2]
        metrics["trace_overhead"] = wall / warm_s
        units = per_layer_units()
    else:
        requests = first.requests or counter.syscalls
        metrics = {
            "setup_s": setup_s, "first_pass_s": first_s,
            "warm_pass_s": warm_s,
            "sim_mops_per_s": counter.ops / warm_s / 1e6,
            "requests_per_s": requests / warm_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
    for problem in run.problems:
        log(f"FAILED: {problem}")
    print(json.dumps({
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def traced_pass(run: Run, counter, label: str, tracer
                ) -> tuple[float, dict[str, float]]:
    """One traced pass, checked against itself and the first pass."""
    spans = tracer.Tracer()
    with spans.installed():
        wall, result = run.one_pass(label + " (traced)")
    for problem in spans.check(wall):
        run.fail(f"{label}: {problem}", 0)
    ops = spans.exec["committed_ops"] + spans.exec["transient_ops"]
    if result is not None and ops != counter.ops:
        run.fail(f"{label}: {ops} simulated ops traced vs {counter.ops} "
                 "in the first pass", 0)
    metrics: dict[str, float] = {"traced_pass_s": wall}
    metrics.update(spans.layer_metrics(wall))
    metrics.update(spans.sim_counts())
    metrics["cpu.blockcache.inlined_accesses"] = sum(spans.inlined.values())
    for name in ("serve.memo_replays", "serve.memo_interpreted",
                 "serve.latency_p50_cycles", "serve.latency_p99_cycles",
                 "serve.conformance.divergences"):
        metrics[name] = result.counts.get(name, 0) if result else 0
    return wall, metrics


if __name__ == "__main__":
    sys.exit(main())
