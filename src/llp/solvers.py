"""Solver strategies: sequential scans, bags, and worker pools.

Every strategy calls :meth:`~llp.core.Problem.ensure` on the indices it
selects and converges to the same fixed point; they differ only in how
indices are selected.  ``cyclic`` and ``allpar`` sweep index ranges in
passes until a pass advances nothing; the others pop a worklist until
it is quiescent.  ``allpar`` over an adapter with a vector step
(``Problem.ensure_batch``) checks only the changed frontier of each
range per pass, in one batch, against a numpy mirror of the cells kept
across passes.  One harness starts, joins and reports the errors of
every strategy's workers.  After any solve, a full scan asserts that no
index is forbidden before the solution is extracted: one vector check
(``Problem.forbidden_batch``) over all indices where the adapter has
one, else ``is_forbidden`` index by index.

Strategies
----------
``cyclic``   single thread, repeated descending passes over all indices
``bag``      single thread, seeded bag popping the lowest priority first
``allpar``   thread pool, repeated parallel passes over static ranges,
             bulk-synchronous batches where the adapter has a vector step
``swb``      thread pool over one shared FIFO bag
``ptwb``     thread pool over per-thread priority bins with work stealing
``ptcf``     thread pool over per-thread chunked FIFOs
``buckets``  thread pool over a priority bucket queue
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import partial
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

#: Each strategy's worklist: its name in reports and its factory over a
#: ``SolverConfig``.  ``cyclic`` and ``allpar`` scan and never pop.
WORKLISTS = {
    "cyclic": ("null", None),
    "bag": ("seqbag", lambda c: SeqBag()),
    "allpar": ("null", None),
    "swb": ("swb", lambda c: SharedBag()),
    "ptwb": ("ptwb", lambda c: PerThreadBag(c.threads)),
    "ptcf": ("ptcf", lambda c: ChunkedFifo(c.threads, chunk_size=c.chunk_size)),
    "buckets": ("buckets", lambda c: BucketQueue(c.threads, num_buckets=c.num_buckets, delta=c.delta)),
}
STRATEGIES = tuple(WORKLISTS)
SEQUENTIAL_STRATEGIES = ("cyclic", "bag")
PARALLEL_STRATEGIES = ("allpar", "swb", "ptwb", "ptcf", "buckets")


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
    """Certify that no index is forbidden, then extract the solution.

    An adapter with a vector check runs it once over every index, on one
    read of the cells; it reports the forbidden indices in order, so the
    first is the one ``scan_for_forbidden`` would return.
    """
    if problem.forbidden_batch is None:
        bad = scan_for_forbidden(problem, state)
    else:
        values = state.values.to_numpy()
        forbidden, _witnesses = problem.forbidden_batch(values, np.arange(problem.size))
        bad = int(forbidden[0]) if len(forbidden) else None
    if bad is not None:
        raise IncompleteSolveError(bad)
    return SolveResult(problem.final_solution(state), state)


def _run_workers(threads: int, work, abort) -> None:
    """Run ``work(slot)`` for every slot and re-raise the first error.

    One worker runs inline on the calling thread; more start one thread
    each and are all joined.  A failing worker records its error, then
    calls ``abort`` so its peers stop; their later errors (a broken
    barrier, say) queue behind it and are dropped.
    """
    errors: list = []
    error_lock = threading.Lock()

    def run(slot: int) -> None:
        try:
            work(slot)
        except BaseException as exc:  # first error wins; re-raised below
            with error_lock:
                errors.append(exc)
            abort()

    if threads == 1:
        run(0)
    else:
        pool = [
            threading.Thread(target=run, args=(slot,), name=f"llp-worker-{slot}")
            for slot in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
    if errors:
        raise errors[0]


def _pool_worker(problem, state, worklist, slot, stop):
    worklist.bind(slot)
    memoizes = problem.memoizes
    fixed = state.fixed
    ensure = problem.ensure
    pop = worklist.pop
    done = worklist.task_done
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


def _run_pool(problem: Problem, state: GlobalState, worklist: Worklist, threads: int) -> None:
    """Seed the worklist and drain it; a failing worker stops its peers."""
    problem.push_initial(state, worklist)
    worklist.seal_pending()
    stop = threading.Event()
    _run_workers(threads, lambda slot: _pool_worker(problem, state, worklist, slot, stop), stop.set)


def _run_passes(state: GlobalState, sweeps: list) -> None:
    """Run ``sweeps[me]()`` on worker ``me``, pass after pass, behind a barrier.

    Passes stop after one in which ``state.stats.advances`` did not move.
    A pass that advanced nothing changed no cell (a failed replace means
    another check of the same pass advanced), so the next pass would
    repeat it: the state is a fixed point, or a check that never clears
    is left for the post-solve scan to report instead of hanging.  The
    counter's ``+=`` may lose increments across threads, yet comparing it
    is sound as long as no check adds 0: every store in a pass then writes
    a value read in that pass plus at least 1, which is above the pass's
    start value.
    """
    stats = state.stats
    start = stats.advances
    go = True

    def decide() -> None:  # the barrier runs this once per pass, before releasing
        nonlocal start, go
        stats.passes += 1
        go = stats.advances != start
        start = stats.advances

    barrier = threading.Barrier(len(sweeps), action=decide)

    def work(me: int) -> None:
        sweep = sweeps[me]
        while go:  # rewritten only once every worker waits at the barrier
            sweep()
            barrier.wait()

    _run_workers(len(sweeps), work, barrier.abort)


def _run_scan(problem: Problem, state: GlobalState, ranges: list) -> None:
    """Sweep ``ensure`` over each index range, one worker per range."""
    worklist = NullWorklist()
    memoizes = problem.memoizes
    fixed = state.fixed
    ensure = problem.ensure

    def sweep(indices: range) -> None:
        for index in indices:
            if not (memoizes and fixed.is_fixed(index)):
                ensure(state, index, worklist)

    _run_passes(state, [partial(sweep, r) for r in ranges])


def _run_batches(problem: Problem, state: GlobalState, ranges: list) -> None:
    """Run ``ensure_batch`` over each range's changed frontier, one worker per range.

    ``d`` mirrors the cells: one read of them per solve, then every
    batch copies its own writes into it.  This is sound because only
    v's range owner writes v, and it sets ``d[v]`` right after its bulk
    write lowers the cell, before its sweep sets any dirty bit.  So
    ``d`` is never below the cells, and a worker reads its own indices
    exactly.  A peer that reads ``d[v]`` stale-high read it before the
    copy, and it cleared its own bits before that read; the owner's
    wake, computed from the copy and set after it, therefore lands after
    the clear, and the peer checks again next pass.

    ``dirty`` marks the indices to check next pass; pass 1 checks all.
    The frontier is sound: an index left clean was not forbidden at its
    last check, and none of its inputs has changed since, because every
    write wakes the indices whose check it may change (a wake compares
    against ``d``, which is never below the cells, so it can only wake
    more).  A worker clears its indices' bits *before* its batch reads
    ``d``, so a write that races that read sets its targets' bits after
    the clear, and they are checked next pass.  An empty frontier is
    therefore a fixed point; the post-solve scan certifies it all the
    same, against the cells themselves.
    """
    dirty = np.ones(problem.size, dtype=bool)
    d = state.values.to_numpy()
    ensure_batch = problem.ensure_batch

    def sweep(indices: range) -> None:
        todo = np.flatnonzero(dirty[indices.start : indices.stop]) + indices.start
        dirty[todo] = False
        dirty[ensure_batch(state, todo, d)] = True

    _run_passes(state, [partial(sweep, r) for r in ranges])


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
    n = problem.size
    if strategy == "cyclic":
        # Descending passes: an ascending pass would settle cascading chains
        # in a single sweep, hiding exactly the redundant re-examination this
        # naive strategy is meant to exhibit.
        _run_scan(problem, state, [range(n - 1, -1, -1)])
    elif strategy == "allpar":
        # Static contiguous partition of the index space.
        threads = min(config.threads, n) or 1
        step = (n + threads - 1) // threads
        ranges = [range(i * step, min(n, (i + 1) * step)) for i in range(threads)]
        if problem.ensure_batch is not None:
            _run_batches(problem, state, ranges)
        else:
            _run_scan(problem, state, ranges)
    else:
        if worklist is None:
            worklist = WORKLISTS[strategy][1](config)
        _run_pool(problem, state, worklist, config.threads)
    return _finish(problem, state)


def solve(problem: Problem, config: Optional[SolverConfig] = None, **kwargs) -> np.ndarray:
    """Solve with the given config (or keyword shorthands) and return the vector."""
    if config is None:
        config = SolverConfig(**kwargs)
    return run_solver(problem, config).solution

