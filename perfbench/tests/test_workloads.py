"""Digest stability and self-checks of small workload passes."""

import json
from pathlib import Path

from perfbench import run, tracer
from perfbench.workloads import (WORKLOADS, conformance_pass, run_serve,
                                 scale_config)

ROOT = Path(__file__).resolve().parents[2]


def image():
    from repro.kernel.image import shared_image
    return shared_image()


def test_back_to_back_passes_give_the_same_digest():
    first = conformance_pass(3, image(), ROOT, traces=1)
    second = conformance_pass(3, image(), ROOT, traces=1)
    assert first.failed == 0 and first.problems == []
    assert first.digest == second.digest


def test_small_serve_pass_conserves_requests_and_repeats():
    config = scale_config(1, requests_per_tenant=30)
    first = run_serve(config, image())
    second = run_serve(config, image())
    assert first.failed == 0 and first.problems == []
    assert first.requests == first.units == 4 * 30
    assert first.digest == second.digest


def test_traced_pass_is_consistent_and_matches_untraced_digest():
    untraced = conformance_pass(5, image(), ROOT, traces=1)
    spans = tracer.Tracer()
    with spans.installed():
        start = spans.clock()
        traced = conformance_pass(5, image(), ROOT, traces=1)
        wall = spans.clock() - start
    assert traced.digest == untraced.digest
    assert spans.check(wall) == []
    assert spans.layer_metrics(wall)["unattributed_s"] >= 0.0
    assert spans.calls["cpu.pipeline"] > 0 and spans.calls["core.isv"] > 0


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
