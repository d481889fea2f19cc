"""Solver strategies: sequential scans, bags, and worker pools.

Every strategy drives the same :class:`~llp.core.Problem` contract and
converges to the same fixed point; they differ only in how candidate
indices are selected.  After any solve, a full scan asserts that no
index is forbidden before the solution is extracted.

Strategies
----------
``cyclic``   single thread, repeated full passes over all indices
``bag``      single thread, seeded bag popping the lowest priority first
``allpar``   thread pool, repeated parallel full scans
``swb``      thread pool over one shared FIFO bag
``ptwb``     thread pool over per-thread priority bins with work stealing
``ptcf``     thread pool over per-thread chunked FIFOs
``buckets``  thread pool over a priority bucket queue
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import GlobalState, IncompleteSolveError, Problem, Recorder
from .worklists import (
    BucketQueue,
    ChunkedFifo,
    NullWorklist,
    PerThreadBag,
    SeqBag,
    SharedBag,
    Worklist,
)

STRATEGIES = ("cyclic", "bag", "allpar", "swb", "ptwb", "ptcf", "buckets")
SEQUENTIAL_STRATEGIES = ("cyclic", "bag")
PARALLEL_STRATEGIES = ("allpar", "swb", "ptwb", "ptcf", "buckets")

#: Worklist policy used by each strategy (for reporting).
WORKLIST_OF = {
    "cyclic": "null",
    "bag": "seqbag",
    "allpar": "null",
    "swb": "swb",
    "ptwb": "ptwb",
    "ptcf": "ptcf",
    "buckets": "buckets",
}


@dataclass
class SolverConfig:
    strategy: str = "bag"
    threads: int = 1
    delta: int = 1
    chunk_size: int = 64
    num_buckets: int = 1024

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.strategy in SEQUENTIAL_STRATEGIES and self.threads != 1:
            raise ValueError(f"strategy {self.strategy!r} is single-thread only")
        if self.delta < 1 or self.chunk_size < 1 or self.num_buckets < 1:
            raise ValueError("delta, chunk_size and num_buckets must be >= 1")


@dataclass
class SolveResult:
    solution: np.ndarray
    state: GlobalState

    @property
    def stats(self):
        return self.state.stats


def scan_for_forbidden(problem: Problem, state: GlobalState) -> Optional[int]:
    """Return the first forbidden index, or None when fully solved."""
    for index in range(problem.size):
        if problem.is_forbidden(state, index):
            return index
    return None


def _finish(problem: Problem, state: GlobalState) -> SolveResult:
    bad = scan_for_forbidden(problem, state)
    if bad is not None:
        raise IncompleteSolveError(bad)
    return SolveResult(problem.final_solution(state), state)


def _make_worklist(config: SolverConfig) -> Worklist:
    s = config.strategy
    if s == "bag":
        return SeqBag()
    if s == "swb":
        return SharedBag(config.threads)
    if s == "ptwb":
        return PerThreadBag(config.threads)
    if s == "ptcf":
        return ChunkedFifo(config.threads, chunk_size=config.chunk_size)
    if s == "buckets":
        return BucketQueue(config.threads, num_buckets=config.num_buckets, delta=config.delta)
    raise ValueError(s)


def _run_cyclic(problem: Problem, state: GlobalState) -> None:
    # Descending passes: an ascending pass would settle cascading chains
    # in a single sweep, hiding exactly the redundant re-examination this
    # naive strategy is meant to exhibit.
    worklist = NullWorklist()
    memoizes = problem.memoizes
    fixed = state.fixed
    indices = range(problem.size - 1, -1, -1)
    while True:
        found = False
        for index in indices:
            if memoizes and fixed.is_fixed(index):
                continue
            if problem.ensure(state, index, worklist):
                found = True
        if not found:
            break


def _pool_worker(problem, state, worklist, slot, stop, errors, error_lock):
    worklist.bind(slot)
    memoizes = problem.memoizes
    fixed = state.fixed
    ensure = problem.ensure
    pop = worklist.pop
    done = worklist.task_done
    try:
        while not stop.is_set():
            item = pop()
            if item is None:
                if worklist.quiescent():
                    return
                time.sleep(0)
                continue
            index = item[0]
            try:
                if memoizes and fixed.is_fixed(index):
                    continue
                ensure(state, index, worklist)
            finally:
                done()
    except BaseException as exc:  # first error wins; peers drain and exit
        with error_lock:
            errors.append(exc)
        stop.set()


def _run_pool(problem: Problem, state: GlobalState, worklist: Worklist, threads: int) -> None:
    """Seed the worklist and drain it; one worker runs on the calling thread."""
    problem.push_initial(state, worklist)
    worklist.seal_pending()
    stop = threading.Event()
    errors: list = []
    error_lock = threading.Lock()
    if threads == 1:
        _pool_worker(problem, state, worklist, 0, stop, errors, error_lock)
    else:
        pool = [
            threading.Thread(
                target=_pool_worker,
                args=(problem, state, worklist, slot, stop, errors, error_lock),
                name=f"llp-worker-{slot}",
            )
            for slot in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
    if errors:
        raise errors[0]


def _allpar_worker(problem, state, lo, hi, me, flags, barrier, errors, error_lock):
    worklist = NullWorklist()
    memoizes = problem.memoizes
    fixed = state.fixed
    stats = state.stats
    quiet_passes = 0
    try:
        while True:
            barrier.wait()
            changed = False
            for index in range(lo, hi):
                if memoizes and fixed.is_fixed(index):
                    continue
                stats.predicate_evals += 1
                if problem.is_forbidden(state, index):
                    if problem.advance(state, index, worklist):
                        stats.advances += 1
                        changed = True
                    else:
                        stats.failed_replaces += 1
            flags[me] = changed
            barrier.wait()
            # Every worker derives the same verdict from the shared flags.
            if any(flags):
                quiet_passes = 0
            else:
                quiet_passes += 1
                if quiet_passes > 1:
                    return
    except threading.BrokenBarrierError:
        return
    except BaseException as exc:
        with error_lock:
            errors.append(exc)
        barrier.abort()


def _run_allpar(problem: Problem, state: GlobalState, threads: int) -> None:
    n = problem.size
    threads = min(threads, n) or 1
    # Static contiguous partition of the index space.
    step = (n + threads - 1) // threads
    ranges = [(i * step, min(n, (i + 1) * step)) for i in range(threads)]
    flags = [False] * threads
    barrier = threading.Barrier(threads)
    errors: list = []
    error_lock = threading.Lock()
    pool = [
        threading.Thread(
            target=_allpar_worker,
            args=(problem, state, lo, hi, me, flags, barrier, errors, error_lock),
            name=f"llp-scan-{me}",
        )
        for me, (lo, hi) in enumerate(ranges)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    if errors:
        raise errors[0]


def run_solver(
    problem: Problem,
    config: SolverConfig,
    *,
    recorder: Optional[Recorder] = None,
    worklist: Optional[Worklist] = None,
) -> SolveResult:
    """Solve and return the solution together with the final state.

    ``worklist`` replaces the one a popping strategy would build (for
    schedule-randomization tests and tracing); ``cyclic`` and ``allpar``
    scan without one.
    """
    state = problem.init_state(recorder=recorder)
    strategy = config.strategy
    if strategy == "cyclic":
        _run_cyclic(problem, state)
    elif strategy == "allpar":
        _run_allpar(problem, state, config.threads)
    else:
        if worklist is None:
            worklist = _make_worklist(config)
        _run_pool(problem, state, worklist, config.threads)
    return _finish(problem, state)


def solve(problem: Problem, config: Optional[SolverConfig] = None, **kwargs) -> np.ndarray:
    """Solve with the given config (or keyword shorthands) and return the vector."""
    if config is None:
        config = SolverConfig(**kwargs)
    return run_solver(problem, config).solution


def solve_sequential(problem: Problem, strategy: str = "bag") -> np.ndarray:
    if strategy not in SEQUENTIAL_STRATEGIES:
        raise ValueError(f"{strategy!r} is not a sequential strategy")
    return solve(problem, SolverConfig(strategy=strategy))


def solve_parallel(problem: Problem, strategy: str, threads: int, **kwargs) -> np.ndarray:
    if strategy not in PARALLEL_STRATEGIES:
        raise ValueError(f"{strategy!r} is not a parallel strategy")
    return solve(problem, SolverConfig(strategy=strategy, threads=threads, **kwargs))
