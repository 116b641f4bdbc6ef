"""LEBench: the Linux-kernel microbenchmark suite (Ren et al., SOSP'19)
used in Figure 9.2.

Each test stresses one core kernel operation; the suite's normalized
latency against the UNSAFE baseline is the paper's microbenchmark result
(FENCE 47.5% average, up to 228% on select/poll; Perspective 3.5-4.1%).
The tests here issue the same syscall mixes at reduced iteration counts
(simulated cycles are deterministic, so small samples suffice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.kernel.kernel import MiniKernel
from repro.kernel.layout import PAGE_SIZE, USER_BASE
from repro.kernel.process import Process
from repro.workloads.driver import Driver


@dataclass
class TestState:
    """Mutable per-test scratch (fds, mapped regions, children)."""

    fds: dict[str, int] = field(default_factory=dict)
    vas: list[int] = field(default_factory=list)
    counter: int = 0


@dataclass
class LEBenchTest:
    """One microbenchmark: optional setup plus a measured iteration."""

    name: str
    iteration: Callable[[Driver, TestState, int], None]
    setup: Callable[[Driver, TestState], None] | None = None
    iterations: int = 6


def _setup_file(driver: Driver, state: TestState) -> None:
    state.fds["file"] = driver.call("open", args=(0,)).retval


def _setup_sock(driver: Driver, state: TestState) -> None:
    state.fds["sock"] = driver.call("socket", args=(0,)).retval


def _setup_pipe(driver: Driver, state: TestState) -> None:
    state.fds["pipe"] = driver.call("pipe", args=()).retval


def _fork_iter(driver: Driver, state: TestState, i: int) -> None:
    child_pid = driver.call("fork").retval
    child = driver.kernel.processes.get(child_pid)
    if child is not None:
        driver.kernel.destroy_process(child)


def _big_fork_setup(driver: Driver, state: TestState) -> None:
    # A large address space makes fork copy many page tables.
    va = driver.call("mmap", args=(0, 96 * PAGE_SIZE)).retval
    state.vas.append(va)


def _mmap_iter(driver: Driver, state: TestState, i: int) -> None:
    va = driver.call("mmap", args=(0, 4 * PAGE_SIZE)).retval
    state.vas.append(va)


def _big_mmap_iter(driver: Driver, state: TestState, i: int) -> None:
    va = driver.call("mmap", args=(0, 48 * PAGE_SIZE)).retval
    state.vas.append(va)


def _munmap_iter(driver: Driver, state: TestState, i: int) -> None:
    if state.vas:
        driver.call("munmap", args=(state.vas.pop(),))
    else:
        va = driver.call("mmap", args=(0, 4 * PAGE_SIZE)).retval
        driver.call("munmap", args=(va,))


def _munmap_setup(driver: Driver, state: TestState) -> None:
    for _ in range(16):
        state.vas.append(driver.call(
            "mmap", args=(0, 4 * PAGE_SIZE)).retval)


def _page_fault_iter(driver: Driver, state: TestState, i: int) -> None:
    state.counter += 1
    fresh_va = USER_BASE + (1 << 33) + state.counter * PAGE_SIZE
    driver.call("page_fault", args=(fresh_va,))


def _big_page_fault_iter(driver: Driver, state: TestState, i: int) -> None:
    for _ in range(8):
        _page_fault_iter(driver, state, i)


#: The LEBench test matrix (a representative subset of the original 20
#: tests, covering every behavioural class the paper discusses).
def build_tests() -> list[LEBenchTest]:
    return [
        LEBenchTest("getpid",
                    lambda d, s, i: d.call("getpid")),
        LEBenchTest("context-switch",
                    lambda d, s, i: d.call("sched_yield")),
        LEBenchTest("fork", _fork_iter, iterations=4),
        LEBenchTest("big-fork", _fork_iter, setup=_big_fork_setup,
                    iterations=4),
        LEBenchTest("thread-create", _fork_iter, iterations=4),
        LEBenchTest("mmap", _mmap_iter),
        LEBenchTest("big-mmap", _big_mmap_iter, iterations=4),
        LEBenchTest("munmap", _munmap_iter, setup=_munmap_setup),
        LEBenchTest("page-fault", _page_fault_iter),
        LEBenchTest("big-page-fault", _big_page_fault_iter, iterations=4),
        LEBenchTest("read",
                    lambda d, s, i: d.call(
                        "read", args=(s.fds["file"], 4096), spin=12),
                    setup=_setup_file),
        LEBenchTest("big-read",
                    lambda d, s, i: d.call(
                        "read", args=(s.fds["file"], 1 << 20), spin=48),
                    setup=_setup_file),
        LEBenchTest("write",
                    lambda d, s, i: d.call(
                        "write", args=(s.fds["file"], 4096), spin=12),
                    setup=_setup_file),
        LEBenchTest("big-write",
                    lambda d, s, i: d.call(
                        "write", args=(s.fds["file"], 1 << 20), spin=48),
                    setup=_setup_file),
        LEBenchTest("select",
                    lambda d, s, i: d.call("select", args=(64,), spin=64),
                    setup=_setup_pipe),
        LEBenchTest("poll",
                    lambda d, s, i: d.call("poll", args=(64,), spin=64),
                    setup=_setup_pipe),
        LEBenchTest("epoll",
                    lambda d, s, i: d.call("epoll_wait", args=(64,),
                                           spin=64),
                    setup=_setup_pipe),
        LEBenchTest("send",
                    lambda d, s, i: d.call(
                        "sendto", args=(s.fds["sock"], 256), spin=8),
                    setup=_setup_sock),
        LEBenchTest("recv",
                    lambda d, s, i: d.call(
                        "recvfrom", args=(s.fds["sock"], 256), spin=8),
                    setup=_setup_sock),
        LEBenchTest("futex",
                    lambda d, s, i: d.call("futex", args=(0,), spin=24)),
    ]


TEST_NAMES = tuple(t.name for t in build_tests())


def run_lebench(kernel: MiniKernel, proc: Process,
                rare_every: int = 25,
                tests: list[LEBenchTest] | None = None,
                collect_stats: list | None = None,
                ) -> dict[str, float]:
    """Run the suite; returns average ROI cycles per test iteration.

    One warmup iteration per test is excluded from the ROI, following the
    original LEBench methodology of measuring steady state.

    ``collect_stats`` (optional) receives each test's post-ROI
    :class:`~repro.workloads.driver.RunStats`, so callers can derive
    fence rates from the same run they took the cycles from.
    """
    results: dict[str, float] = {}
    for test in tests if tests is not None else build_tests():
        driver = Driver(kernel, proc, rare_every=rare_every)
        state = TestState()
        if test.setup is not None:
            test.setup(driver, state)
        test.iteration(driver, state, -1)  # warmup
        driver.reset_stats()
        for i in range(test.iterations):
            test.iteration(driver, state, i)
        results[test.name] = driver.stats.kernel_cycles / test.iterations
        if collect_stats is not None:
            collect_stats.append(driver.stats)
    return results


def exercise_all(driver: Driver) -> None:
    """Profiling workload: touch every test's syscall surface once (used
    to build dynamic ISVs for the LEBench context)."""
    state_by_test: dict[str, TestState] = {}
    for test in build_tests():
        state = TestState()
        state_by_test[test.name] = state
        if test.setup is not None:
            test.setup(driver, state)
        test.iteration(driver, state, 0)
