"""The gate runner (``benchmarks/snapshots.py``).

Fake rows whose commands are ``python -c`` writers stand in for the
simulator, so no simulation runs here; the metric gate is the real
``python -m repro.obs diff``.  The last class checks the real table.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import signal
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "snapshots", ROOT / "benchmarks" / "snapshots.py")
snapshots = sys.modules["snapshots"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snapshots)
Gate, Run, PAIRS = snapshots.Gate, snapshots.Run, snapshots.PAIRS

#: Writes argv[1] to the ``-o`` file, with SEED replaced by the hash seed.
WRITER = """
import os, sys
text = sys.argv[1].replace("SEED", os.environ.get("PYTHONHASHSEED", ""))
open(sys.argv[sys.argv.index("-o") + 1], "w").write(text)
"""


def metrics(meta="fixed", **gauges) -> str:
    return json.dumps({"meta": {"run": meta}, "gauges": gauges},
                      indent=1) + "\n"


def row(name, text, committed, **kw) -> Gate:
    """A gate whose one run writes ``text`` under every parity pair."""
    kw.setdefault("exact", True)
    kw.setdefault("pairs", PAIRS)
    return Gate(name, (Run(("-c", WRITER, text), 60,
                           f"out/{committed}", **kw),))


@pytest.fixture()
def root(tmp_path, monkeypatch):
    """A scratch repository root; runs there must still import repro."""
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"), prepend=os.pathsep)
    (tmp_path / "out").mkdir()
    return tmp_path


def commit(root, name, text):
    (root / "out" / name).write_text(text)


class TestCheck:
    def test_agreeing_runs_matching_the_snapshot_pass(self, root, capfd):
        commit(root, "a.json", metrics(x=1))
        assert snapshots.check([row("a", metrics(x=1), "a.json")], root) == []
        out = capfd.readouterr().out
        assert "ok a" in out and "0 regression(s)" in out
        assert sorted(p.name for p in (root / "snapshot-out/a").iterdir()) \
            == ["a_w1.json", "a_w4.json"]

    def test_runs_that_disagree_fail_and_name_the_row(self, root, capfd):
        # The first (hash seed 0) run equals the committed file, so only
        # the cross-run comparison can catch the hash-seed dependence.
        commit(root, "a.json", metrics(meta="0", x=1))
        gate = row("seeded", metrics(meta="SEED", x=1), "a.json")
        assert snapshots.check([gate], root) == ["seeded"]
        out = capfd.readouterr().out
        assert "FAIL seeded: a_w4.json differs from a_w1.json" in out

    def test_drift_from_committed_fails_and_prints_the_diff(self, root,
                                                            capfd):
        commit(root, "a.json", metrics(x=1))
        assert snapshots.check([row("a", metrics(x=2), "a.json")], root) \
            == ["a"]
        out = capfd.readouterr().out
        assert '-  "x": 1\n' in out and '+  "x": 2\n' in out
        assert "FAIL a: a_w1.json drifts from out/a.json" in out

    def test_rules_relax_only_the_metrics_they_match(self, root, capfd):
        commit(root, "b.json", metrics(latency=100, count=5))
        (root / "rules.json").write_text(
            json.dumps([{"pattern": "gauges.latency", "rel_tol": 0.1}]))
        relaxed = dict(exact=False, pairs=snapshots.ONCE, rules="rules.json")
        within = row("within", metrics(latency=105, count=5), "b.json",
                     **relaxed)
        assert snapshots.check([within], root) == []
        beyond = row("beyond", metrics(latency=105, count=6), "b.json",
                     **relaxed)
        assert snapshots.check([beyond], root) == ["beyond"]
        out = capfd.readouterr().out
        assert "REGRESSED gauges.count" in out
        assert "REGRESSED gauges.latency" not in out

    def test_exit_status_gates_plain_steps(self, root):
        kill = ("-c", "import os, signal; "
                "os.kill(os.getpid(), signal.SIGKILL)")
        killed = Gate("killed", (Run(kill, 60),))
        allowed = Gate("allowed", (Run(kill, 60, ok=(0, -signal.SIGKILL)),))
        assert snapshots.check([killed, allowed], root) == ["killed"]

    def test_timeout_fails_the_row(self, root):
        slow = Gate("slow", (Run(("-c", "import time; time.sleep(30)"), 1),))
        assert snapshots.check([slow], root) == ["slow"]


class TestRegen:
    def test_refuses_when_runs_disagree(self, root, capfd):
        commit(root, "a.json", "old\n")
        gate = row("seeded", metrics(meta="SEED"), "a.json")
        assert snapshots.main(["regen", "seeded"], [gate], root) == 1
        assert (root / "out/a.json").read_text() == "old\n"
        assert "FAIL seeded" in capfd.readouterr().out

    def test_rewrites_only_the_named_row(self, root):
        commit(root, "a.json", "old a\n")
        commit(root, "b.json", "old b\n")
        gates = [row("a", metrics(x=1), "a.json"),
                 row("b", metrics(x=2), "b.json")]
        assert snapshots.main(["regen", "a"], gates, root) == 0
        assert (root / "out/a.json").read_text() == metrics(x=1)
        assert (root / "out/b.json").read_text() == "old b\n"
        assert snapshots.main(["check", "a"], gates, root) == 0

    def test_needs_a_named_row_with_a_snapshot(self, root):
        plain = Gate("plain", (Run(("-c", "pass"),),))
        for argv in (["regen"], ["regen", "plain"], ["check", "nope"]):
            with pytest.raises(SystemExit):
                snapshots.main(argv, [plain], root)


class TestRealTable:
    def test_list_prints_the_row_names(self, capsys):
        assert snapshots.main(["list"]) == 0
        names = json.loads(capsys.readouterr().out)
        assert names == [gate.name for gate in snapshots.GATES]
        assert len(set(names)) == len(names)

    def test_committed_files_rules_and_scripts_exist(self):
        for gate in snapshots.GATES:
            for run in gate.runs:
                for path in (run.committed, run.rules):
                    assert path is None or (ROOT / path).is_file(), path
                script = run.args[0]
                assert script == "-m" or (ROOT / script).is_file(), script
                assert not run.exact or run.committed, gate.name

