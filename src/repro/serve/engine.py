"""The deterministic multi-tenant traffic engine.

Model
-----

``tenants`` cgroup-backed processes share one :class:`MiniKernel` (and
therefore one simulated core, one cache hierarchy, one branch unit, and
one set of Perspective view caches).  A seeded open-loop arrival process
(:mod:`repro.serve.arrival`) offers each tenant a stream of requests
drawn from its request profile -- the existing datacenter application
models (httpd/nginx/memcached/redis) plus a LEBench-style syscall mix.

A **run-to-completion scheduler** serves the merged arrival stream in
FIFO order on the single core.  Whenever the served tenant changes, the
scheduler issues the context-switch path (``sched_yield``) on the
*incoming* tenant's driver before its request: the switch is thereby
charged through the real pipeline, so it pays whatever the armed scheme
makes it pay -- IBPB-style predictor flushes, cold ISV/DSV view-cache
refills for the incoming ASID, DSVMT walks -- rather than a modeled
constant.  This is where multi-tenant pressure concentrates view-switch
costs (the reason single-workload batches under-report them).

**Admission control**: when the waiting queue holds ``queue_bound``
requests at arrival time, the arrival is shed (deterministically -- the
schedule and service times are pure functions of the config).  Shed
requests never consume kernel cycles.

Userspace compute is *not* modeled here: every scheme pays identical
user cycles per request (defenses gate kernel speculation only), so
kernel-only figures preserve ordering while keeping the engine fast.

This module holds the per-core building blocks -- request profiles,
:class:`ServeConfig`, :class:`TenantReport`, tenant boot and the
scheduler.  The one serve driver that runs them,
:func:`repro.serve.shard.run_serve_sharded`, places tenants on one or
more such cores.

Determinism contract
--------------------

``run_serve_sharded(config)`` is a pure function of its config: same
seed, same byte-identical report, regardless of process, worker count,
or ``PYTHONHASHSEED``.  The parity tests enforce this through the
:mod:`repro.exec` ``serve`` grid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.binary import APPLICATIONS
from repro.analysis.static_isv import generate_static_isv
from repro.core.audit import harden_isv
from repro.core.framework import Perspective
from repro.core.views import InstructionSpeculationView
from repro.eval.envs import RARE_EVERY, build_policy, perspective_flavor
from repro.kernel.image import shared_image
from repro.kernel.kernel import MiniKernel
from repro.kernel.process import Process
from repro.obs import events as ev
from repro.obs import registry as obs
from repro.obs import reqtrace as rt
from repro.obs import slo
from repro.reliability.faultplane import fire
from repro.scanner.kasper import scan
from repro.serve.arrival import Arrival, percentile
from repro.workloads.apps import APP_SPECS, AppState
from repro.workloads.driver import Driver

#: Simulated core frequency (Table 7.1), for requests-per-second figures.
CORE_HZ = 2.0e9

#: Fixed latency buckets (simulated cycles) for the repro.obs histograms.
#: Chosen to bracket an unqueued request (a few thousand cycles of kernel
#: service) through deep queueing delay under overload.
LATENCY_BUCKETS: tuple[float, ...] = (
    1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 1e6, 1e7)


# ---------------------------------------------------------------------------
# Request profiles
# ---------------------------------------------------------------------------


def _lebench_setup(driver: Driver, state: AppState) -> None:
    state.listen_fd = driver.call("socket", args=(0,)).retval
    state.log_fd = driver.call("open", args=(0,)).retval


def _lebench_request(driver: Driver, state: AppState, i: int) -> None:
    """A LEBench-flavoured mix: core kernel ops instead of socket serving."""
    driver.call("getpid")
    driver.call("read", args=(state.log_fd, 4096), spin=12)
    driver.call("write", args=(state.log_fd, 4096), spin=12)
    if i % 4 == 0:
        driver.call("futex", args=(0,), spin=24)
    if i % 8 == 0:
        driver.call("poll", args=(16,), spin=16)
    if i % 12 == 0:
        va = driver.call("mmap", args=(0, 4 * 4096)).retval
        driver.call("munmap", args=(va,))


@dataclass(frozen=True)
class RequestProfile:
    """One tenant's request mix: setup at boot, then a per-request body."""

    name: str
    setup: Callable[[Driver, AppState], None]
    request: Callable[[Driver, AppState, int], None]


def _app_profile(name: str) -> RequestProfile:
    spec = APP_SPECS[name]
    return RequestProfile(name=name, setup=spec.setup, request=spec.request)


REQUEST_PROFILES: dict[str, RequestProfile] = {
    **{name: _app_profile(name) for name in APP_SPECS},
    "lebench": RequestProfile("lebench", _lebench_setup, _lebench_request),
}

DEFAULT_PROFILES = ("httpd", "redis", "memcached", "lebench")


# ---------------------------------------------------------------------------
# Configuration and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeConfig:
    """Everything the engine's outcome depends on."""

    scheme: str = "perspective"
    tenants: int = 3
    seed: int = 0
    requests_per_tenant: int = 40
    #: Mean interarrival gap per tenant, in simulated cycles.
    mean_interarrival: float = 400_000.0
    #: Max *waiting* (admitted, not yet started) requests; 0 = unbounded.
    queue_bound: int = 0
    #: Request-mix assignment, cycled over the tenants.
    profiles: tuple[str, ...] = DEFAULT_PROFILES
    rare_every: int = RARE_EVERY
    #: Requests per tenant during the offline ISV-profiling pass.
    profile_requests: int = 4

    def profile_of(self, tenant: int) -> str:
        return self.profiles[tenant % len(self.profiles)]

    def as_dict(self) -> dict[str, Any]:
        return {
            "scheme": self.scheme, "tenants": self.tenants,
            "seed": self.seed,
            "requests_per_tenant": self.requests_per_tenant,
            "mean_interarrival": self.mean_interarrival,
            "queue_bound": self.queue_bound,
            "profiles": list(self.profiles),
            "rare_every": self.rare_every,
            "profile_requests": self.profile_requests,
        }


@dataclass
class TenantReport:
    """Per-tenant outcome of one engine run."""

    tenant: int
    profile: str
    arrivals: int = 0
    admitted: int = 0
    shed: int = 0
    #: Sheds forced by the ``admission-queue-corrupt`` fault (a subset of
    #: ``shed``): the corrupted slot was discarded, never dispatched.
    corrupt_shed: int = 0
    completed: int = 0
    kernel_cycles: float = 0.0
    syscalls: int = 0
    switches: int = 0
    switch_cycles: float = 0.0
    fence_stall_cycles: float = 0.0
    fenced_loads: dict[str, int] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)

    def latency_percentile(self, q: float) -> float:
        return percentile(self.latencies, q) if self.latencies else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant, "profile": self.profile,
            "arrivals": self.arrivals, "admitted": self.admitted,
            "shed": self.shed, "corrupt_shed": self.corrupt_shed,
            "completed": self.completed,
            "kernel_cycles": self.kernel_cycles,
            "syscalls": self.syscalls,
            "switches": self.switches,
            "switch_cycles": self.switch_cycles,
            "fence_stall_cycles": self.fence_stall_cycles,
            "fenced_loads": dict(sorted(self.fenced_loads.items())),
            "latency_p50": self.latency_percentile(50.0),
            "latency_p95": self.latency_percentile(95.0),
            "latency_p99": self.latency_percentile(99.0),
            "latency_mean": (sum(self.latencies) / len(self.latencies)
                             if self.latencies else 0.0),
            "latency_max": max(self.latencies, default=0.0),
        }


# ---------------------------------------------------------------------------
# Environment construction (multi-tenant make_env)
# ---------------------------------------------------------------------------


@dataclass
class Tenant:
    """A booted tenant: its process, measurement driver, and state."""

    index: int
    profile: RequestProfile
    proc: Process
    driver: Driver
    state: AppState
    counter: int = 0


def boot_tenants(config: ServeConfig, image=None, *,
                 block_cache: bool | None = None,
                 indices: list[int] | None = None,
                 ) -> tuple[MiniKernel, list[Tenant]]:
    """Boot one kernel with ``config.tenants`` cgroup-backed processes,
    run the offline profiling pass, arm the scheme, and run each
    tenant's server setup under the armed policy.

    Mirrors :func:`repro.eval.envs.make_env`'s deployment flow, but for
    N distrusting contexts sharing the machine: every tenant gets its
    own cgroup (so its own DSV/DSVMT and, for Perspective flavors, its
    own installed ISV).

    ``indices`` restricts the boot to a subset of the config's global
    tenant indices (a shard boots only the tenants placed on its core);
    the default boots all of them, byte-identically to before.
    """
    kernel = MiniKernel(image=shared_image() if image is None else image)
    if block_cache is not None:
        kernel.pipeline.config.enable_block_cache = block_cache
    flavor = perspective_flavor(config.scheme)
    procs: list[tuple[int, Process, RequestProfile]] = []
    for index in (range(config.tenants) if indices is None else indices):
        profile = REQUEST_PROFILES[config.profile_of(index)]
        proc = kernel.create_process(f"tenant{index}.{profile.name}")
        procs.append((index, proc, profile))

    # Offline profiling pass (identical for every scheme: history parity,
    # exactly as make_env does for single-tenant environments).
    kernel.tracer.start()
    for _, proc, profile in procs:
        driver = Driver(kernel, proc, rare_every=0)
        state = AppState()
        profile.setup(driver, state)
        for i in range(config.profile_requests):
            profile.request(driver, state, i)
    kernel.tracer.stop()

    framework = None
    if flavor is not None:
        framework = Perspective(kernel)
        for _, proc, profile in procs:
            ctx = proc.cgroup.cg_id
            if flavor == "static":
                isv: InstructionSpeculationView = generate_static_isv(
                    kernel.image, APPLICATIONS[profile.name], ctx)
            else:
                functions = kernel.tracer.traced_functions(ctx)
                isv = InstructionSpeculationView(
                    ctx, functions, kernel.image.layout, source="dynamic")
                if flavor == "++":
                    report = scan(kernel.image, scope=isv.functions)
                    isv = harden_isv(isv, report.functions()).hardened
            framework.install_isv(isv)
    kernel.pipeline.set_policy(build_policy(config.scheme, framework,
                                            kernel=kernel))

    tenants: list[Tenant] = []
    for index, proc, profile in procs:
        driver = Driver(kernel, proc, rare_every=config.rare_every)
        state = AppState()
        profile.setup(driver, state)
        driver.reset_stats()  # setup is boot, not served traffic
        tenants.append(Tenant(index=index, profile=profile, proc=proc,
                              driver=driver, state=state))
    return kernel, tenants


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


class RunToCompletionScheduler:
    """FIFO run-to-completion scheduling over one shared core.

    Each shard of :func:`repro.serve.shard.run_serve_sharded` runs one
    (as :class:`repro.serve.shard.ShardScheduler`).  The adversarial
    campaign (:mod:`repro.serve.campaign`) serves *multiple* offered
    batches through one persistent instance: the busy clock
    (``free_at``), the waiting queue, and the last-served tenant all
    carry across epochs, exactly as they would on a long-lived server.
    """

    def __init__(self, tenants: list[Tenant], reports: list[TenantReport],
                 queue_bound: int = 0, *, trace_seed: int = 0,
                 trace_cell: str = "") -> None:
        self.tenants = tenants
        self.reports = reports
        self.queue_bound = queue_bound
        self.waiting: deque[Arrival] = deque()
        self.free_at = 0.0
        self.current: int | None = None
        self.makespan = 0.0
        #: Event-skip horizon: a cached lower bound on the next backlog
        #: dispatch's start cycle.  ``free_at`` only ever grows and the
        #: queue head only moves to later arrivals, so a stale value
        #: stays a lower bound -- arrivals strictly before it can skip
        #: the head re-scan without changing a single dispatch.
        self._next_start = 0.0
        #: Request-trace identity inputs (repro.obs.reqtrace): trace IDs
        #: derive from (trace_seed, trace_cell, tenant, arrival seq).
        #: The campaign re-labels trace_cell per epoch.
        self.trace_seed = trace_seed
        self.trace_cell = trace_cell

    def _trace_for(self, rec, arr: Arrival):
        return (rec.lookup(self.trace_seed, self.trace_cell,
                           arr.tenant, arr.seq)
                or rec.admit(self.trace_seed, self.trace_cell,
                             arr.tenant, arr.seq, arr.cycle))

    def _open_slice(self, arr: Arrival) -> tuple[float, Any, Any]:
        """Start serving ``arr``: its start cycle, plus the ambient
        recorder and its opened trace (``None`` when not tracing)."""
        start = max(self.free_at, arr.cycle)
        rec = rt.active_recorder()
        trace = None
        if rec is not None:
            trace = self._trace_for(rec, arr)
            rec.open(trace)
            rec.record("sched", "slice", 0.0,
                       {"start_cycle": start,
                        "queue_wait": start - arr.cycle,
                        "switch": self.current != arr.tenant})
        return start, rec, trace

    def _note_switch(self, tenant_idx: int, cycles: float) -> None:
        report = self.reports[tenant_idx]
        report.switches += 1
        report.switch_cycles += cycles
        self.current = tenant_idx
        obs.add("serve.switches")
        obs.observe("serve.switch_cycles", cycles)

    def _complete(self, arr: Arrival, start: float, completion: float,
                  rec, trace) -> None:
        """Book one finished request: busy clock, latency, histograms,
        SLO rollup, and the trace close with its exemplars."""
        report = self.reports[arr.tenant]
        latency = completion - arr.cycle
        self.free_at = completion
        if completion > self.makespan:
            self.makespan = completion
        report.completed += 1
        report.latencies.append(latency)
        obs.observe("serve.latency_cycles", latency,
                    buckets=LATENCY_BUCKETS)
        obs.observe(f"serve.tenant.{arr.tenant}.latency_cycles", latency,
                    buckets=LATENCY_BUCKETS)
        obs.add("serve.requests.completed")
        slo.record_request(completion, latency)
        if rec is not None:
            rec.close(trace, "completed", start_cycle=start,
                      completion_cycle=completion, latency_cycles=latency)
            rec.exemplar("serve.latency_cycles", latency,
                         LATENCY_BUCKETS, trace.trace_id)
            rec.exemplar(f"serve.tenant.{arr.tenant}.latency_cycles",
                         latency, LATENCY_BUCKETS, trace.trace_id)

    def dispatch(self, arr: Arrival) -> None:
        tenant = self.tenants[arr.tenant]
        start, rec, trace = self._open_slice(arr)
        before_cycles = tenant.driver.stats.kernel_cycles
        if self.current != arr.tenant:
            # Context switch, charged through the real pipeline: the
            # incoming tenant runs the switch path under the armed
            # scheme (predictor flush, cold view-cache refills, DSVMT
            # walks for the new ASID -- whatever the scheme costs).
            switch = tenant.driver.call("sched_yield")
            self._note_switch(arr.tenant, switch.cycles)
        tenant.profile.request(tenant.driver, tenant.state, tenant.counter)
        tenant.counter += 1
        service = tenant.driver.stats.kernel_cycles - before_cycles
        self._complete(arr, start, start + service, rec, trace)

    def offer(self, arr: Arrival) -> None:
        """Handle one arrival: serve whatever starts first, then admit,
        shed (queue bound), or discard (corrupt admission slot)."""
        # Serve everything that starts no later than this arrival.  The
        # horizon check skips the idle gap between this arrival and the
        # next possible dispatch start in O(1) (byte-identical: when it
        # fires, the while condition below would be false anyway).
        if self.waiting and arr.cycle >= self._next_start:
            while self.waiting \
                    and max(self.free_at, self.waiting[0].cycle) <= arr.cycle:
                self.dispatch(self.waiting.popleft())
            if self.waiting:
                self._next_start = max(self.free_at, self.waiting[0].cycle)
        report = self.reports[arr.tenant]
        report.arrivals += 1
        rec = rt.active_recorder()
        if fire("admission-queue-corrupt"):
            # The queue slot failed its integrity check: the request is
            # shed -- fail closed, a request with corrupt tenant metadata
            # is never dispatched under the wrong context's views.
            report.shed += 1
            report.corrupt_shed += 1
            obs.add("serve.requests.shed")
            obs.add("serve.requests.corrupt_shed")
            obs.add(f"serve.tenant.{arr.tenant}.shed")
            ev.emit("fault-fallback", context=arr.tenant,
                    reason="admission-corrupt-shed")
            slo.record_shed(arr.cycle)
            if rec is not None:
                trace = self._trace_for(rec, arr)
                rec.note(trace, "admission", "corrupt-shed",
                         queue_depth=len(self.waiting))
                rec.close(trace, "corrupt-shed")
            return
        if self.queue_bound and len(self.waiting) >= self.queue_bound:
            report.shed += 1
            obs.add("serve.requests.shed")
            obs.add(f"serve.tenant.{arr.tenant}.shed")
            slo.record_shed(arr.cycle)
            if rec is not None:
                trace = self._trace_for(rec, arr)
                rec.note(trace, "admission", "shed",
                         queue_depth=len(self.waiting))
                rec.close(trace, "shed")
            return
        report.admitted += 1
        if rec is not None:
            trace = self._trace_for(rec, arr)
            rec.note(trace, "admission", "admit",
                     queue_depth=len(self.waiting))
        if not self.waiting:
            self._next_start = max(self.free_at, arr.cycle)
        self.waiting.append(arr)

    def drain(self) -> None:
        while self.waiting:
            self.dispatch(self.waiting.popleft())

    def drain_until(self, cycle: float) -> None:
        """Serve every queued request that starts at or before ``cycle``
        (the dense reference loop's per-quantum step)."""
        if self.waiting and cycle >= self._next_start:
            while self.waiting \
                    and max(self.free_at, self.waiting[0].cycle) <= cycle:
                self.dispatch(self.waiting.popleft())
            if self.waiting:
                self._next_start = max(self.free_at, self.waiting[0].cycle)

    def serve_batch(self, schedule: list[Arrival]) -> None:
        """Offer one merged arrival batch, then run the queue dry."""
        for arr in schedule:
            self.offer(arr)
        self.drain()

    def occupy(self, cycles: float) -> None:
        """Charge co-located non-request activity (an attacker tenant's
        PoC probes) to the shared core: later requests queue behind it."""
        self.free_at += cycles
        if self.free_at > self.makespan:
            self.makespan = self.free_at


def collect_tenant_stats(tenants: list[Tenant],
                         reports: list[TenantReport]) -> None:
    """Fold each tenant's driver statistics into its report."""
    for tenant, report in zip(tenants, reports):
        stats = tenant.driver.stats
        report.kernel_cycles = stats.kernel_cycles
        report.syscalls = stats.syscalls
        report.fence_stall_cycles = stats.exec.fence_stall_cycles
        report.fenced_loads = dict(sorted(
            stats.exec.fenced_loads.items()))
