"""CLI entry point: ``python -m repro.obs``.

Without a subcommand, runs a small workload matrix with the
observability plane armed and prints (or saves) the resulting metrics
snapshot.  Everything in the snapshot derives from simulated cycles and
seeded workloads, so two invocations with the same arguments produce
**byte-identical** output -- the ``obs_smoke`` gate
(``benchmarks/snapshots.py``) diffs a committed snapshot against a fresh
run to keep the plane (and the counters it reads) honest.

Usage::

    python -m repro.obs                 # default matrix, Prometheus text
    python -m repro.obs --smoke         # trimmed CI matrix
    python -m repro.obs --json          # canonical JSON to stdout
    python -m repro.obs -o snap.json    # also save the JSON snapshot

Forensics subcommands::

    python -m repro.obs events --attack spectre-rsb-passive \\
        --scheme perspective --jsonl run.jsonl
    python -m repro.obs events --input run.jsonl --tenant 2 \\
        --since-cycle 1e4 --until-cycle 5e4   # filter a saved journal
    python -m repro.obs profile --workload lebench \\
        --base unsafe --scheme perspective -o outdir/
    python -m repro.obs diff baseline.json current.json  # exit 1 on drift

Serve-plane dashboard (SLO state + block-JIT miss attribution)::

    python -m repro.obs top                   # terminal dashboard
    python -m repro.obs report -o model.json --artifacts outdir/
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.obs.collect import collect_env
from repro.obs.registry import MetricsRegistry, observing

#: The default workload x scheme matrix (kept small: this is a
#: profiling smoke, not the paper evaluation).
DEFAULT_WORKLOADS = ("lebench", "httpd")
DEFAULT_SCHEMES = ("unsafe", "fence", "perspective")
SMOKE_WORKLOADS = ("lebench",)
SMOKE_SCHEMES = ("unsafe", "perspective")
APP_REQUESTS = 12


def run_workload_matrix(workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
                        schemes: tuple[str, ...] = DEFAULT_SCHEMES,
                        seed: int = 0,
                        requests: int = APP_REQUESTS) -> MetricsRegistry:
    """Run the matrix under one registry and return it.

    Hot-path counters (``pipeline.*``, ``campaign.*``) aggregate across
    the whole matrix; per-environment figures are published as prefixed
    gauges (``<workload>.<scheme>.cache.l1d.hits``) by the collectors,
    and spans nest ``env/<workload>.<scheme>/syscall/<name>/...``.
    """
    from repro.eval.envs import RARE_EVERY, make_env
    from repro.workloads.apps import APP_SPECS, AppWorkload
    from repro.workloads.driver import Driver
    from repro.workloads.lebench import exercise_all

    registry = MetricsRegistry(meta={
        "plane": "repro.obs", "seed": seed,
        "workloads": list(workloads), "schemes": list(schemes),
        "requests": requests,
    })
    with observing(registry):
        for workload in workloads:
            for scheme in schemes:
                with registry.span(f"env/{workload}.{scheme}"):
                    # Environment construction itself drives syscalls
                    # (dynamic-ISV profiling runs); keep them under a
                    # ``setup`` node so they never blend into the
                    # measurement's syscall spans.
                    with registry.span("setup"):
                        env = make_env(workload, scheme)
                    if workload == "lebench":
                        driver = Driver(env.kernel, env.proc,
                                        rare_every=RARE_EVERY)
                        exercise_all(driver)
                    else:
                        app = AppWorkload(env.kernel, env.proc,
                                          APP_SPECS[workload],
                                          rare_every=RARE_EVERY)
                        app.serve(requests)
                collect_env(registry, env.kernel, env.framework,
                            prefix=f"{workload}.{scheme}")
    return registry


def _events_command(args: argparse.Namespace) -> int:
    """Journal one PoC attack run (or load a saved JSONL journal) and
    print the forensics digest, optionally narrowed by tenant/cycle."""
    from repro.obs.events import EventJournal

    if args.input:
        journal = EventJournal.from_jsonl(
            pathlib.Path(args.input).read_text(),
            capacity=args.capacity, meta={"source": args.input})
        result = None
    else:
        from repro.attacks.harness import ATTACKS, run_attack
        if args.attack not in ATTACKS:
            print(f"unknown attack {args.attack!r}; one of "
                  f"{', '.join(sorted(ATTACKS))}", file=sys.stderr)
            return 2
        journal = EventJournal(capacity=args.capacity, meta={
            "attack": args.attack, "scheme": args.scheme})
        result = run_attack(args.attack, args.scheme, journal=journal)
    if (args.tenant is not None or args.since_cycle is not None
            or args.until_cycle is not None):
        filtered = journal.query(context=args.tenant,
                                 since=args.since_cycle,
                                 until=args.until_cycle)
        meta = dict(journal.meta)
        for key, value in (("tenant", args.tenant),
                           ("since_cycle", args.since_cycle),
                           ("until_cycle", args.until_cycle)):
            if value is not None:
                meta[f"filter.{key}"] = value
        journal = EventJournal.from_events(filtered,
                                           capacity=args.capacity,
                                           meta=meta)
    print(journal.summary())
    if result is not None:
        print(f"attack outcome: leaked={result.leaked!r}")
    if args.jsonl:
        pathlib.Path(args.jsonl).write_text(journal.to_jsonl())
        print(f"journal written to {args.jsonl}", file=sys.stderr)
    return 0


def _profile_command(args: argparse.Namespace) -> int:
    """Differential profile: one workload, two schemes, one table."""
    from repro.obs.profile import diff_workload

    diff = diff_workload(args.workload, args.base, args.scheme,
                         requests=args.requests, seed=args.seed)
    print(diff.render(top=args.top), end="")
    if args.out:
        outdir = pathlib.Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for run in (diff.base, diff.scheme):
            tree = run.tree()
            folded = outdir / f"profile_{run.label}.folded"
            trace = outdir / f"profile_{run.label}.trace.json"
            folded.write_text(tree.to_folded())
            trace.write_text(tree.to_chrome_trace_json())
            print(f"wrote {folded} and {trace}", file=sys.stderr)
    return 0


def _diff_command(args: argparse.Namespace) -> int:
    """Regression gate: nonzero exit when current drifts from baseline."""
    from repro.obs.diffgate import gate_files

    report = gate_files(args.baseline, args.current,
                        rules_path=args.rules,
                        ignore_added=args.ignore_added)
    print(report.render(), end="")
    return 0 if report.ok else 1


def _subcommand_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="speculation-forensics toolbox: security-event "
                    "journal, differential profiler, metric diff gate")
    sub = parser.add_subparsers(dest="command", required=True)

    events = sub.add_parser(
        "events", help="journal a PoC attack run's security events "
                       "(or filter a saved JSONL journal)")
    events.add_argument("--attack", default="spectre-rsb-passive")
    events.add_argument("--scheme", default="perspective")
    events.add_argument("--capacity", type=int, default=65_536)
    events.add_argument("--jsonl", metavar="FILE",
                        help="write the journal as JSON lines")
    events.add_argument("--input", metavar="FILE",
                        help="load a saved JSONL journal instead of "
                             "running an attack")
    events.add_argument("--tenant", type=int, default=None,
                        help="keep only events of this context/tenant id")
    events.add_argument("--since-cycle", type=float, default=None,
                        help="keep only events at/after this cycle stamp")
    events.add_argument("--until-cycle", type=float, default=None,
                        help="keep only events at/before this cycle stamp")

    profile = sub.add_parser(
        "profile", help="diff one workload under two schemes")
    profile.add_argument("--workload", default="lebench")
    profile.add_argument("--base", default="unsafe",
                         help="baseline scheme (default: unsafe)")
    profile.add_argument("--scheme", default="perspective")
    profile.add_argument("--requests", type=int, default=12,
                         help="requests per app-workload run")
    profile.add_argument("--top", type=int, default=0,
                         help="table rows to show (0: all)")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("-o", "--out", metavar="DIR",
                         help="write folded stacks + Chrome traces here")

    diff = sub.add_parser(
        "diff", help="gate a snapshot against a baseline (exit 1 on "
                     "regression)")
    diff.add_argument("baseline", help="baseline snapshot JSON")
    diff.add_argument("current", help="current snapshot JSON")
    diff.add_argument("--rules", metavar="FILE",
                      help="JSON tolerance rules (default: exact match)")
    diff.add_argument("--ignore-added", action="store_true",
                      help="new metrics are not findings")

    top = sub.add_parser(
        "top", help="serve-plane dashboard: SLO state, burn-rate "
                    "alerts, block-JIT miss attribution")
    report = sub.add_parser(
        "report", help="write the dashboard model JSON, HTML, and "
                       "per-request trace exports")
    for cmd in (top, report):
        cmd.add_argument("--workers", type=int, default=1,
                         help="parallel grid workers (same bytes "
                              "either way)")
        cmd.add_argument("--no-cache", action="store_true",
                         help="bypass the repro.exec result cache")
    report.add_argument("-o", "--out", metavar="FILE",
                        help="write the dashboard model JSON to FILE")
    report.add_argument("--artifacts", metavar="DIR",
                        help="write dashboard.html and per-request "
                             "Chrome-trace/folded exports to DIR")
    return parser


def _top_command(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import render_text, run_smoke

    model, _traces = run_smoke(workers=args.workers,
                               use_cache=not args.no_cache)
    print(render_text(model), end="")
    return 0


def _report_command(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import model_to_json, run_smoke, write_report

    model, traces = run_smoke(workers=args.workers,
                              use_cache=not args.no_cache)
    rendered = model_to_json(model)
    if args.out:
        pathlib.Path(args.out).write_text(rendered)
        print(f"model written to {args.out}", file=sys.stderr)
    else:
        print(rendered, end="")
    if args.artifacts:
        written = write_report(args.artifacts, model, traces)
        print(f"{len(written)} artifacts written to {args.artifacts}",
              file=sys.stderr)
    return 0


_COMMANDS = {"events": _events_command, "profile": _profile_command,
             "diff": _diff_command, "top": _top_command,
             "report": _report_command}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        args = _subcommand_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="run a small workload matrix under the deterministic "
                    "observability plane and emit the metrics snapshot "
                    "(subcommands: events, profile, diff, top, report)")
    parser.add_argument("--smoke", action="store_true",
                        help="trimmed CI matrix (lebench x unsafe/"
                             "perspective)")
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded in the snapshot meta (the workloads "
                             "are internally seeded and deterministic)")
    parser.add_argument("--json", action="store_true",
                        help="print the canonical JSON snapshot instead of "
                             "the Prometheus-style text")
    parser.add_argument("-o", "--out", metavar="FILE",
                        help="also write the JSON snapshot to FILE")
    args = parser.parse_args(argv)

    workloads = SMOKE_WORKLOADS if args.smoke else DEFAULT_WORKLOADS
    schemes = SMOKE_SCHEMES if args.smoke else DEFAULT_SCHEMES
    registry = run_workload_matrix(workloads, schemes, seed=args.seed)

    rendered_json = registry.to_json(indent=1) + "\n"
    print(rendered_json if args.json else registry.to_text(), end="")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered_json)
        print(f"snapshot written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
