"""Snapshot and bench gates: one table, one runner.

Each row of :data:`GATES` is a sequence of :class:`Run` steps, run in
order until one fails.  A run passes on its exit status; a run with a
``committed`` file also writes an output (``-o``) gated against it.  An
``exact`` run executes once per (workers, ``PYTHONHASHSEED``) pair, and
its outputs must agree byte for byte and match the committed file.  Then,
unless ``obs_diff`` is off, ``python -m repro.obs diff`` gates the output
(exact, or under ``rules``); for bench scripts, whose wall-clock ``meta``
varies, that is the only gate.  Outputs go to ``snapshot-out/<row>/``.

    python benchmarks/snapshots.py list              # row names, as JSON
    python benchmarks/snapshots.py check [NAME...]   # exit 1 on any failure
    python benchmarks/snapshots.py regen NAME...     # rewrite snapshots

``regen`` reruns a row's first ``exact`` run and rewrites its committed
file only if the outputs agree byte for byte.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import pathlib
import shlex
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The parity pairs: (workers, PYTHONHASHSEED) for each run of a snapshot.
PAIRS = ((1, 0), (4, 7))
#: One run with no --workers flag and PYTHONHASHSEED left as it is.
ONCE = ((None, None),)


@dataclass(frozen=True)
class Run:
    """One gated step of a row (see the module docstring)."""

    args: tuple[str, ...]
    timeout: int | None = None
    committed: str | None = None
    exact: bool = False
    obs_diff: bool = True
    rules: str | None = None
    pairs: tuple[tuple[int | None, int | None], ...] = ONCE
    first: tuple[str, ...] = ()   # extra arguments for the first pair only
    ok: tuple[int, ...] = (0,)    # accepted exit statuses


@dataclass(frozen=True)
class Gate:
    name: str
    runs: tuple[Run, ...]


def snapshot(args, name, timeout, **kw) -> Run:
    return Run(args, timeout, f"benchmarks/out/{name}", exact=True,
               pairs=PAIRS, **kw)


def bench(script, name, timeout, *args) -> Run:
    return Run((f"benchmarks/{script}", *args), timeout,
               f"benchmarks/out/{name}")


CAMPAIGN = ("-m", "repro.serve", "campaign", "--smoke")
JOURNAL = ("--journal", "{out}/campaign-journal")

GATES = (
    Gate("serve_smoke", (
        snapshot(("-m", "repro.serve", "--smoke", "--no-cache"),
                 "serve_smoke.json", 600),
        Run(("-m", "repro.serve", "conformance", "--seeds", "24"), 600),
    )),
    Gate("serve_scale", (
        snapshot(("-m", "repro.serve", "scale", "--no-cache"),
                 "serve_scale.json", 900, obs_diff=False,
                 first=("--artifacts", "{out}/scale-artifacts")),
        bench("bench_serve_scale.py", "BENCH_serve_scale.json", 1200),
    )),
    Gate("defense_matrix", (
        snapshot(("-m", "repro.eval.defense_matrix", "--no-cache"),
                 "defense_matrix.json", 900, obs_diff=False),
        Run(("-m", "pytest", "-q", "tests/test_defense_matrix.py",
             "tests/test_registry_properties.py",
             "tests/test_blockjit_guards.py"), 900),
    )),
    Gate("campaign_smoke", (
        snapshot((*CAMPAIGN, "--no-cache"), "campaign_smoke.json", 600,
                 rules="benchmarks/campaign_smoke_rules.json",
                 first=("--report", "{out}/campaign_report.json",
                        "--artifacts", "{out}/campaign-artifacts")),
        # SIGKILL between cells (137 in a shell), then resume from the
        # journal: the resumed output must be the snapshot's bytes.
        Run((*CAMPAIGN, *JOURNAL, "--kill-after-cells", "2",
             "-o", os.devnull), 600, ok=(0, -signal.SIGKILL)),
        Run((*CAMPAIGN, *JOURNAL), 600, "benchmarks/out/campaign_smoke.json",
            exact=True, obs_diff=False),
    )),
    Gate("obs_smoke", (
        Run(("-m", "repro.obs", "--smoke", "--json"), 300,
            "benchmarks/out/obs_smoke.json", exact=True),
    )),
    Gate("obs_slo_smoke", (
        snapshot(("-m", "repro.obs", "report", "--no-cache"),
                 "obs_slo_smoke.json", 600, obs_diff=False,
                 first=("--artifacts", "{out}/dashboard-artifacts")),
        bench("bench_req_trace.py", "BENCH_req_trace.json", 600),
    )),
    Gate("block_jit", (
        Run(("-m", "repro.serve", "conformance", "--cache-parity",
             "--seeds", "20"), 900),
        bench("bench_block_jit.py", "BENCH_block_jit.json", 900),
    )),
    Gate("parallel_eval", (
        Run(("-m", "pytest", "-q", "-m", "slow", "tests/test_exec.py"), 600),
        bench("bench_parallel_eval.py", "BENCH_parallel_eval.json", 600,
              "--workers", "4"),
    )),
    Gate("forensics", (
        Run(("-m", "repro.obs", "profile", "--workload", "lebench",
             "--base", "unsafe", "--scheme", "perspective",
             "-o", "{out}/forensics-artifacts"), 300),
        Run(("-m", "repro.obs", "events", "--attack", "spectre-rsb-passive",
             "--scheme", "perspective", "--jsonl",
             "{out}/forensics-artifacts/spectre_rsb_perspective.jsonl"), 300),
    )),
    Gate("fault_smoke", (
        Run(("-m", "repro.reliability", "--sweep"), 300),
        Run(("-m", "pytest", "-q", "-m", "faulty", "tests")),
    )),
)


class GateFailure(Exception):
    pass


def _python(args, root, out, timeout=None, hash_seed=None, ok=(0,)):
    """Run ``python ARGS`` in ``root`` (``{out}`` names the row's
    directory); fail unless it exits with a status in ``ok``."""
    args = [a.replace("{out}", out) for a in args]
    env = None if hash_seed is None else {**os.environ,
                                          "PYTHONHASHSEED": str(hash_seed)}
    seed = "" if hash_seed is None else f"PYTHONHASHSEED={hash_seed} "
    command = f"{seed}python {shlex.join(args)}"
    print(f"$ {command}", flush=True)
    try:
        code = subprocess.run([sys.executable, *args], cwd=root, env=env,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        raise GateFailure(f"timed out after {timeout} s: {command}")
    if code not in ok:
        raise GateFailure(f"exit status {code}: {command}")


def _execute(run: Run, root: pathlib.Path, out: str) -> list[pathlib.Path]:
    """Run every pair of ``run``; return the output files, first pair first."""
    stem = run.committed and pathlib.Path(run.committed).stem
    outputs = []
    for i, (workers, hash_seed) in enumerate(run.pairs):
        args = run.args + (run.first if i == 0 else ())
        if workers is not None:
            args += ("--workers", str(workers))
        if stem:
            name = f"{stem}_w{workers}.json" if workers else f"{stem}.json"
            outputs.append(root / out / name)
            args += ("-o", f"{out}/{name}")
        _python(args, root, out, run.timeout, hash_seed, run.ok)
    for other in outputs[1:]:
        if other.read_bytes() != outputs[0].read_bytes():
            raise GateFailure(f"{other.name} differs from {outputs[0].name}")
    return outputs


def _gate(run: Run, root: pathlib.Path, out: str) -> None:
    outputs = _execute(run, root, out)
    if not run.committed:
        return
    committed, current = root / run.committed, outputs[0]
    if run.exact and committed.read_bytes() != current.read_bytes():
        sys.stdout.writelines(difflib.unified_diff(
            committed.read_text().splitlines(keepends=True),
            current.read_text().splitlines(keepends=True),
            run.committed, str(current.relative_to(root))))
        raise GateFailure(f"{current.name} drifts from {run.committed}")
    if run.obs_diff:
        rules = ("--rules", run.rules) if run.rules else ()
        args = ("-m", "repro.obs", "diff", run.committed,
                str(current.relative_to(root)), *rules)
        _python(args, root, out)


def _each(gates, root: pathlib.Path, action) -> list[str]:
    """Call ``action(gate, out)`` with a fresh ``snapshot-out/<row>/`` for
    each gate; return the names of the gates that failed."""
    failed = []
    for gate in gates:
        start, out = time.monotonic(), f"snapshot-out/{gate.name}"
        shutil.rmtree(root / out, ignore_errors=True)
        (root / out).mkdir(parents=True)
        try:
            action(gate, out)
        except GateFailure as exc:
            print(f"FAIL {gate.name}: {exc}", flush=True)
            failed.append(gate.name)
        else:
            print(f"ok {gate.name} ({time.monotonic() - start:.0f} s)",
                  flush=True)
    return failed


def check(gates, root: pathlib.Path = ROOT) -> list[str]:
    def action(gate, out):
        for run in gate.runs:
            _gate(run, root, out)
    return _each(gates, root, action)


def regen(gates, root: pathlib.Path = ROOT) -> list[str]:
    def action(gate, out):
        run = next(r for r in gate.runs if r.exact)
        current = _execute(run, root, out)[0]
        (root / run.committed).write_bytes(current.read_bytes())
        print(f"wrote {run.committed}")
    return _each(gates, root, action)


def main(argv=None, gates=GATES, root: pathlib.Path = ROOT) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/snapshots.py",
        description="run the snapshot and bench gates")
    parser.add_argument("command", choices=("list", "check", "regen"))
    parser.add_argument("names", nargs="*", metavar="NAME")
    args = parser.parse_args(argv)
    if args.command == "list":
        print(json.dumps([gate.name for gate in gates]))
        return 0
    by_name = {gate.name: gate for gate in gates}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown gate(s): {', '.join(unknown)}")
    selected = [by_name[name] for name in args.names] or list(gates)
    if args.command == "regen":
        if not args.names:
            parser.error("regen needs at least one gate name")
        no_snapshot = [g.name for g in selected
                       if not any(r.exact for r in g.runs)]
        if no_snapshot:
            parser.error(f"no byte-gated snapshot: {', '.join(no_snapshot)}")
    failed = (regen if args.command == "regen" else check)(selected, root)
    print(f"{len(selected) - len(failed)}/{len(selected)} gates passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
