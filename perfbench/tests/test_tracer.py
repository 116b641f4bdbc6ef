"""Self-time arithmetic of the span tracer."""

import pytest

from perfbench.tracer import Tracer, self_time


def test_self_time_without_children_is_the_span():
    assert self_time(1.0, 4.0, []) == 3.0


def test_self_time_subtracts_nested_children():
    # children nest inside each other: only their union counts
    assert self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 3.0)]) == 6.0


def test_self_time_merges_overlapping_children():
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == 4.0


def test_self_time_clips_children_to_the_span():
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0


def test_self_time_is_never_negative():
    assert self_time(0.0, 1.0, [(0.0, 1.0), (-1.0, 2.0)]) == 0.0


class ScriptedClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_tracer_matches_the_reference_on_nested_spans():
    clock = ScriptedClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        traced_leaf()
        clock.advance(0.5)
        traced_leaf()

    def outer():
        clock.advance(3.0)
        traced_middle()
        clock.advance(1.0)

    traced_leaf = tracer.wrap("cpu.cache", "leaf", leaf)
    traced_middle = tracer.wrap("cpu.pipeline", "middle", middle)
    tracer.wrap("kernel", "outer", outer)()
    clock.advance(0.25)  # outside every span

    # outer [0, 9.5], middle [3, 8.5], leaves [4, 6] and [6.5, 8.5]
    assert tracer.self_s["cpu.cache"] == 4.0
    assert tracer.self_s["cpu.pipeline"] == self_time(
        3.0, 8.5, [(4.0, 6.0), (6.5, 8.5)]) == 1.5
    assert tracer.self_s["kernel"] == self_time(0.0, 9.5, [(3.0, 8.5)]) == 4.0
    assert tracer.calls == {"cpu.cache": 2, "cpu.pipeline": 1, "kernel": 1}
    assert sum(tracer.self_s.values()) == tracer.top_s == 9.5
    assert tracer.layer_metrics(9.75)["unattributed_s"] == 0.25
    assert tracer.check(9.75) == []


def test_recursive_spans_of_one_layer_count_once():
    clock = ScriptedClock()
    tracer = Tracer(clock=clock)

    def walk(depth):
        clock.advance(1.0)
        if depth:
            traced(depth - 1)

    traced = tracer.wrap("serve", "walk", walk)
    traced(2)
    assert tracer.self_s["serve"] == tracer.top_s == 3.0
    assert tracer.calls["serve"] == 3


def test_span_closes_when_the_call_raises():
    clock = ScriptedClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("obs", "boom", boom)()
    assert tracer.self_s["obs"] == 1.0
    assert tracer.check(1.0) == []


def test_iterator_steps_are_spans():
    clock = ScriptedClock()
    tracer = Tracer(clock=clock)

    def numbers():
        def gen():
            for value in range(3):
                clock.advance(1.0)
                yield value
        clock.advance(0.5)
        return gen()

    items = []
    for item in tracer.wrap_iter("serve", "numbers", numbers)():
        clock.advance(10.0)  # the consumer's time is not the layer's
        items.append(item)
    assert items == [0, 1, 2]
    assert tracer.self_s["serve"] == 3.5
    assert tracer.calls["serve"] == 5  # the call plus 4 steps


def test_uninstall_restores_every_binding():
    import sys
    import types

    from repro.obs import registry
    from repro.workloads.driver import Driver
    original_add, original_call = registry.add, Driver.call
    tracer = Tracer()
    with tracer.installed():
        assert registry.add is not original_add
        assert Driver.call is not original_call
        # a module imported while tracing binds the wrapper by name
        late = types.ModuleType("repro._late_import")
        late.add = registry.add
        sys.modules[late.__name__] = late
    try:
        assert registry.add is original_add
        assert Driver.call is original_call
        assert late.add is original_add
    finally:
        del sys.modules[late.__name__]
