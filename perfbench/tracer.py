"""Host-time spans at the public boundaries of each ``repro`` layer.

The traced pass wraps entry points of the simulator from the benchmark's
own code; no file under ``src/`` changes.  Every wrapped call is a span.
A layer's *self time* is the span's duration minus the part of it that
child spans cover, so the self times of all layers plus the time no span
covers (``unattributed_s``) add up to the traced pass's wall time.

Wrapped call counts are checked against the simulator's own counters
(cache, TLB, view-cache, DSVMT, ISV-page and ``RunStats`` counters).  A call
that reaches a model through a reference bound before the wrapper was
installed would be missing from the span counts but present in the
model's counters, so the check fails instead of under-reporting a layer.

The block JIT (``repro.cpu.blockcache``) replays straight-line code with
its cache, TLB and memory accesses inlined, so those accesses make no
call a wrapper could see.  Each compiled region call is therefore a
span of its own (layer ``cpu.blockcache``), and the counter growth it
causes beyond the wrapped calls made inside it is booked as
``inlined`` accesses; the cross-check adds those in.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: (layer, module, qualified name) of every span boundary.
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("workloads", "repro.workloads.driver", "Driver.call"),
    ("kernel", "repro.kernel.kernel", "MiniKernel.syscall"),
    ("kernel.boot", "repro.kernel.kernel", "MiniKernel.__init__"),
    ("kernel.boot", "repro.kernel.kernel", "MiniKernel.create_process"),
    ("cpu.pipeline", "repro.cpu.pipeline", "Pipeline.run"),
    ("cpu.isa", "repro.cpu.isa", "CodeLayout.resolve_va"),
    ("cpu.isa", "repro.cpu.isa", "OverlayCodeLayout.resolve_va"),
    ("cpu.isa", "repro.cpu.isa", "Function.decoded"),
    ("cpu.cache", "repro.cpu.cache", "CacheHierarchy.access_data"),
    ("cpu.cache", "repro.cpu.cache", "CacheHierarchy.access_inst"),
    ("cpu.memsys", "repro.cpu.memsys", "TLB.access"),
    ("cpu.memsys", "repro.cpu.memsys", "MainMemory.digest"),
    ("core.isv", "repro.core.isv", "ISVPageTable.bit_for"),
    ("core.hardware", "repro.core.hardware", "ViewCache.lookup"),
    ("core.hardware", "repro.core.hardware", "ViewCache.fill"),
    ("core.dsvmt", "repro.core.dsvmt", "DSVMT.lookup"),
    ("analysis", "repro.eval.envs", "build_isv_for"),
    ("analysis", "repro.analysis.static_isv", "generate_static_isv"),
    ("analysis", "repro.scanner.kasper", "scan"),
    ("analysis", "repro.kernel.tracing", "KernelTracer.traced_functions"),
    ("serve", "repro.serve.engine", "RunToCompletionScheduler.offer"),
    ("serve", "repro.serve.engine", "RunToCompletionScheduler.dispatch"),
    ("serve", "repro.serve.shard", "ShardScheduler.dispatch"),
    ("serve", "repro.serve.shard", "Placer.route"),
    ("serve", "repro.serve.arrival", "arrival_stream"),
    ("serve.conformance", "repro.serve.conformance", "run_trace_under"),
    ("obs", "repro.obs.registry", "active_registry"),
    ("obs", "repro.obs.registry", "add"),
    ("obs", "repro.obs.registry", "observe"),
    ("obs", "repro.obs.events", "active_journal"),
    ("obs", "repro.obs.slo", "active_rollup"),
    ("obs", "repro.obs.slo", "record_request"),
    ("obs", "repro.obs.reqtrace", "active_recorder"),
    ("obs", "repro.obs.reqtrace", "step"),
    ("obs", "repro.reliability.faultplane", "active_plane"),
)

#: Boundaries whose result is an iterator.
ITER_BOUNDARIES = frozenset({"arrival_stream"})

#: Layer of every policy's ``check_load`` (one boundary per registered
#: scheme class, found at install time) and of compiled JIT regions.
DEFENSES_LAYER = "defenses"
BLOCKCACHE_LAYER = "cpu.blockcache"

#: Classes whose instances are registered at construction, so the
#: cross-check sums the counters of every model built during the pass,
#: including models a wrapper never saw.
WATCHED = (
    ("repro.cpu.cache", "CacheHierarchy"),
    ("repro.cpu.memsys", "TLB"),
    ("repro.core.hardware", "ViewCache"),
    ("repro.core.dsvmt", "DSVMT"),
    ("repro.core.isv", "ISVPageTable"),
    ("repro.workloads.driver", "RunStats"),
)


def self_time(start: float, end: float,
              children: list[tuple[float, float]]) -> float:
    """Reference definition of self time: the span's length minus the
    part of ``[start, end]`` that the union of ``children`` covers.
    Children may nest, overlap or stick out of the span; the result is
    never negative."""
    covered = 0.0
    run_start = run_end = None
    for lo, hi in sorted((max(lo, start), min(hi, end))
                         for lo, hi in children):
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = lo, hi
        elif hi > run_end:
            run_end = hi
    if run_end is not None:
        covered += run_end - run_start
    return max(0.0, (end - start) - covered)


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []
        #: id(wrapper) -> (wrapper, original) for module-level functions;
        #: holding the wrapper keeps its id from being reused.
        self._originals: dict[int, tuple[Any, Any]] = {}

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, name: str, wrapper: Any) -> None:
        """Replace a module-level function everywhere it is bound: in its
        own module and in every loaded ``repro`` module that imported it
        by name."""
        original = getattr(importlib.import_module(module), name)
        self._originals[id(wrapper)] = (wrapper, original)
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        # A module first imported while patched bound the wrapper itself.
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in self._originals:
                    setattr(mod, attr, self._originals[id(value)][1])


def _repro_modules() -> list[Any]:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "repro"
                                    or name.startswith("repro."))]


def _resolve(module: str, qualname: str) -> tuple[Any, str, Any]:
    owner: Any = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def policy_classes() -> list[type]:
    """Every registered scheme class that defines its own ``check_load``."""
    from repro.cpu.pipeline import SpeculationPolicy
    from repro.defenses.registry import registered_schemes
    registered_schemes()  # imports every built-in scheme module
    found: list[type] = []
    pending = list(SpeculationPolicy.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "check_load" in cls.__dict__ and cls not in found:
            found.append(cls)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


class Tracer:
    """Span accounting for one traced pass.

    ``clock`` is injectable so the arithmetic can be tested with scripted
    times.  Spans are strictly nested (one thread), so an open span's
    child time is one running sum.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Calls per boundary (``"Class.method"``) for the cross-check.
        self.boundary_calls: dict[str, int] = defaultdict(int)
        #: Inclusive time of spans with no parent span.
        self.top_s = 0.0
        self._open: list[float] = []
        #: Model instances built while installed, by class name.
        self.instances: dict[str, list[Any]] = defaultdict(list)
        self.kernels: list[Any] = []
        #: Totals over every ``Pipeline.run`` result.
        self.exec = dict(cycles=0.0, committed_ops=0, transient_ops=0,
                         fenced_loads=0, fence_stall_cycles=0.0)
        self.data_fill_calls = 0
        self.denied_syscalls = 0
        self.inlined = dict(inst=0, data=0, tlb=0)

    # -- span arithmetic --------------------------------------------------

    def open(self) -> float:
        self._open.append(0.0)
        return self.clock()

    def close(self, layer: str, name: str, start: float) -> None:
        span = self.clock() - start
        child = self._open.pop()
        self.self_s[layer] += max(0.0, span - child)
        self.calls[layer] += 1
        self.boundary_calls[name] += 1
        if self._open:
            self._open[-1] += span
        else:
            self.top_s += span

    def wrap(self, layer: str, name: str, fn: Callable,
             hook: Callable | None = None) -> Callable:
        """``fn`` as a span; ``hook(args, kwargs, result)`` runs inside
        the span after a normal return."""
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            start = open_()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                close(layer, name, start)

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` returns an iterator: its call and each step are spans."""
        call = self.wrap(layer, name, fn)
        open_, close = self.open, self.close

        def steps(it: Iterator) -> Iterator:
            while True:
                start = open_()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(layer, name, start)
                yield item

        def traced(*args, **kwargs):
            return steps(call(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every boundary for the duration of the block."""
        patches = _Patches()
        hooks = self._hooks()
        try:
            for module, cls_name in WATCHED:
                cls = getattr(importlib.import_module(module), cls_name)
                patches.set(cls, "__init__",
                            self._watch(cls_name, cls.__dict__["__init__"]))
            for layer, module, qualname in BOUNDARIES:
                owner, attr, fn = _resolve(module, qualname)
                hook = hooks.get(qualname)
                if isinstance(owner, type):
                    patches.set(owner, attr,
                                self.wrap(layer, qualname, fn, hook))
                elif qualname in ITER_BOUNDARIES:
                    patches.function(module, attr,
                                     self.wrap_iter(layer, qualname, fn))
                else:
                    patches.function(module, attr,
                                     self.wrap(layer, qualname, fn, hook))
            for cls in policy_classes():
                patches.set(cls, "check_load", self.wrap(
                    DEFENSES_LAYER, f"{cls.__qualname__}.check_load",
                    cls.__dict__["check_load"]))
            from repro.cpu import blockcache
            patches.function("repro.cpu.blockcache", "_factory_for",
                             self._traced_factory(blockcache._factory_for))
            yield self
        finally:
            patches.undo()

    def _watch(self, cls_name: str, init: Callable) -> Callable:
        instances = self.instances[cls_name]

        def watched(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)

        return watched

    def _hooks(self) -> dict[str, Callable]:
        exec_totals = self.exec

        def on_run(args, kwargs, result) -> None:
            exec_totals["cycles"] += result.cycles
            exec_totals["committed_ops"] += result.committed_ops
            exec_totals["transient_ops"] += result.transient_ops
            exec_totals["fenced_loads"] += result.total_fenced
            exec_totals["fence_stall_cycles"] += result.fence_stall_cycles

        def on_boot(args, kwargs, result) -> None:
            self.kernels.append(args[0])

        def on_syscall(args, kwargs, result) -> None:
            if result.denied:
                self.denied_syscalls += 1

        def on_access_data(args, kwargs, result) -> None:
            if kwargs.get("fill", True):
                self.data_fill_calls += 1

        return {"Pipeline.run": on_run, "MiniKernel.__init__": on_boot,
                "MiniKernel.syscall": on_syscall,
                "CacheHierarchy.access_data": on_access_data}

    def _traced_factory(self, factory_for: Callable) -> Callable:
        """JIT region factories whose regions are spans that book the
        cache/TLB accesses they make inline."""
        calls, inlined = self.boundary_calls, self.inlined
        open_, close = self.open, self.close

        def traced_factory(source: str, digest: str):
            make_region = factory_for(source, digest)

            def make(*bindings):
                region = make_region(*bindings)
                # bindings[0] / [2] are the bound access_inst / TLB.access
                hierarchy, tlb = bindings[0].__self__, bindings[2].__self__

                def traced_region(*args):
                    i1, d1, tl = (hierarchy.l1i.stats, hierarchy.l1d.stats,
                                  tlb.stats)
                    before = (i1.hits + i1.misses, d1.hits + d1.misses,
                              tl.hits + tl.misses,
                              calls["CacheHierarchy.access_inst"],
                              self.data_fill_calls, calls["TLB.access"])
                    start = open_()
                    try:
                        return region(*args)
                    finally:
                        close(BLOCKCACHE_LAYER, "region", start)
                        inlined["inst"] += (i1.hits + i1.misses - before[0]) \
                            - (calls["CacheHierarchy.access_inst"] - before[3])
                        inlined["data"] += (d1.hits + d1.misses - before[1]) \
                            - (self.data_fill_calls - before[4])
                        inlined["tlb"] += (tl.hits + tl.misses - before[2]) \
                            - (calls["TLB.access"] - before[5])

                return traced_region

            return make

        return traced_factory

    # -- results ----------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Self time and span count per layer, plus ``unattributed_s``."""
        out: dict[str, float] = {}
        for layer in layer_names():
            out[self_metric(layer)] = self.self_s.get(layer, 0.0)
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
        out["unattributed_s"] = wall_s - self.top_s
        return out

    def sim_counts(self) -> dict[str, float]:
        """Simulated counters of the pass, from the models' own stats."""
        hier = self.instances["CacheHierarchy"]
        tlbs = self.instances["TLB"]
        views = self.instances["ViewCache"]
        caches = [k.pipeline._blockcache for k in self.kernels
                  if k.pipeline._blockcache is not None]
        bc_hits = sum(c.hits for c in caches)
        bc_misses = sum(c.misses for c in caches)
        return {
            "cpu.sim_cycles": self.exec["cycles"],
            "cpu.committed_ops": self.exec["committed_ops"],
            "cpu.transient_ops": self.exec["transient_ops"],
            "cpu.cache.l1d_hit_rate": _rate(h.l1d.stats for h in hier),
            "cpu.cache.l2_hit_rate": _rate(h.l2.stats for h in hier),
            "cpu.memsys.tlb_hit_rate": _rate(t.stats for t in tlbs),
            "core.hardware.isv_hit_rate":
                _rate(v.stats for v in views if v.name == "isv"),
            "core.hardware.dsv_hit_rate":
                _rate(v.stats for v in views if v.name == "dsv"),
            "core.dsvmt.walks":
                sum(d.stats.walks for d in self.instances["DSVMT"]),
            "defenses.fenced_loads": self.exec["fenced_loads"],
            "defenses.fence_stall_cycles":
                self.exec["fence_stall_cycles"],
            "cpu.blockcache.hits": bc_hits,
            "cpu.blockcache.misses": bc_misses,
            "cpu.blockcache.hit_ratio":
                bc_hits / (bc_hits + bc_misses) if bc_hits + bc_misses
                else 0.0,
        }

    def check(self, wall_s: float) -> list[str]:
        """Every way the accounting can disagree with itself or with the
        simulator's counters; empty when the traced pass is consistent."""
        problems: list[str] = []
        self_sum = sum(self.self_s.values())
        if self._open:
            problems.append(f"{len(self._open)} spans still open")
        if abs(self_sum - self.top_s) > 1e-6 * max(1.0, wall_s):
            problems.append(f"layer self times sum to {self_sum:.9f} s "
                            f"but top-level spans cover {self.top_s:.9f} s")
        if self.top_s > wall_s:
            problems.append(f"spans cover {self.top_s:.6f} s of a "
                            f"{wall_s:.6f} s pass")
        calls = self.boundary_calls
        hier = self.instances["CacheHierarchy"]
        views = self.instances["ViewCache"]
        pairs = (
            ("CacheHierarchy.access_inst + inlined",
             calls["CacheHierarchy.access_inst"] + self.inlined["inst"],
             sum(h.l1i.stats.accesses for h in hier)),
            ("CacheHierarchy.access_data(fill) + inlined",
             self.data_fill_calls + self.inlined["data"],
             sum(h.l1d.stats.accesses for h in hier)),
            ("TLB.access + inlined",
             calls["TLB.access"] + self.inlined["tlb"],
             sum(t.stats.hits + t.stats.misses
                 for t in self.instances["TLB"])),
            ("ViewCache.lookup", calls["ViewCache.lookup"],
             sum(v.stats.accesses for v in views)),
            ("ViewCache.fill", calls["ViewCache.fill"],
             sum(v.stats.fills + v.stats.refill_faults for v in views)),
            ("DSVMT.lookup", calls["DSVMT.lookup"],
             sum(d.stats.walks for d in self.instances["DSVMT"])),
            ("ISVPageTable.bit_for", calls["ISVPageTable.bit_for"],
             sum(p.stats.bit_queries
                 for p in self.instances["ISVPageTable"])),
            ("Driver.call", calls["Driver.call"],
             sum(s.syscalls for s in self.instances["RunStats"])),
            ("MiniKernel.syscall (not denied)",
             calls["MiniKernel.syscall"] - self.denied_syscalls,
             sum(k.syscall_count for k in self.kernels)),
        )
        for label, wrapped, counted in pairs:
            if wrapped != counted:
                problems.append(f"{label}: {wrapped} wrapped calls vs "
                                f"{counted} counted by the simulator")
        if min(self.inlined.values()) < 0:
            problems.append(f"negative inlined access count {self.inlined}")
        return problems


def _rate(stats: Iterator[Any]) -> float:
    hits = misses = 0
    for s in stats:
        hits += s.hits
        misses += s.misses
    return hits / (hits + misses) if hits + misses else 0.0


def self_metric(layer: str) -> str:
    """Name of a layer's self-time metric (boot time keeps its own name)."""
    return "kernel.boot_s" if layer == "kernel.boot" else f"{layer}.self_s"


def layer_names() -> list[str]:
    """Every layer a span can land in, in report order."""
    names: list[str] = []
    for layer, _, _ in BOUNDARIES:
        if layer not in names:
            names.append(layer)
    return names + [DEFENSES_LAYER, BLOCKCACHE_LAYER]


class WorkCounter:
    """Counts simulated work without timing anything: micro-ops
    (committed + transient) over every ``Pipeline.run`` and system calls
    over every ``MiniKernel.syscall``.  Installed on a workload's first
    pass only; the counts are exact, so later passes repeat them."""

    def __init__(self) -> None:
        self.ops = 0
        self.syscalls = 0

    @contextmanager
    def installed(self) -> Iterator["WorkCounter"]:
        from repro.cpu.pipeline import Pipeline
        from repro.kernel.kernel import MiniKernel
        run, syscall = Pipeline.__dict__["run"], MiniKernel.__dict__["syscall"]

        def counted_run(*args, **kwargs):
            result = run(*args, **kwargs)
            self.ops += result.committed_ops + result.transient_ops
            return result

        def counted_syscall(*args, **kwargs):
            self.syscalls += 1
            return syscall(*args, **kwargs)

        patches = _Patches()
        try:
            patches.set(Pipeline, "run", counted_run)
            patches.set(MiniKernel, "syscall", counted_syscall)
            yield self
        finally:
            patches.undo()
