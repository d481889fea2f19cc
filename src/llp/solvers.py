"""Solver strategies: sequential scans, bags, and worker pools.

Every strategy calls :meth:`~llp.core.Problem.ensure` on the indices it
selects and converges to the same fixed point; they differ only in how
indices are selected.  ``cyclic`` and ``allpar`` sweep index ranges in
passes until a pass advances nothing; the others pop a worklist until
it is quiescent.  ``allpar`` over an adapter with a push-form check
(``Problem.offer_batch``) instead runs bulk-synchronous passes on one
numpy array of the state: each pass advances the indices of each
worker's range to the least candidate offered them, when it beats their
value.  Pass 1's offers come from the start vector's finite indices,
each later pass's from the previous pass's changes, and the cells are
built once, from the final array.  One
harness starts, joins and reports the errors of every strategy's
workers.  After any solve, a full scan asserts that no index is
forbidden before the solution is extracted: one vector check
(``Problem.forbidden_batch``) of all indices where the adapter has one,
else ``is_forbidden`` index by index.

Strategies
----------
``cyclic``   single thread, repeated descending passes over all indices
``bag``      single thread, seeded bag popping the lowest priority first
``allpar``   thread pool, repeated parallel passes over static ranges,
             bulk-synchronous folds of pushed offers where the
             adapter has a push-form check
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

from .core import INF, GlobalState, IncompleteSolveError, Problem, Recorder, Stats
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
    "ptcf": ("ptcf", lambda c: ChunkedFifo(c.threads)),
    "buckets": ("buckets", lambda c: BucketQueue(c.threads, delta=c.delta)),
}
STRATEGIES = tuple(WORKLISTS)
SEQUENTIAL_STRATEGIES = ("cyclic", "bag")
PARALLEL_STRATEGIES = ("allpar", "swb", "ptwb", "ptcf", "buckets")


@dataclass
class SolverConfig:
    strategy: str = "bag"
    threads: int = 1
    delta: int = 1

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.strategy in SEQUENTIAL_STRATEGIES and self.threads != 1:
            raise ValueError(f"strategy {self.strategy!r} is single-thread only")
        if self.delta < 1:
            raise ValueError("delta must be >= 1")


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


def _finish(
    problem: Problem, state: GlobalState, values: Optional[np.ndarray] = None
) -> SolveResult:
    """Certify that no index is forbidden, then extract the solution.

    An adapter with a vector check runs it once over every index, on
    ``values`` (an array equal to the cells) or else one read of the
    cells; it reports the forbidden indices in order, so the first is the
    one ``scan_for_forbidden`` would return.
    """
    if problem.forbidden_batch is None:
        bad = scan_for_forbidden(problem, state)
    else:
        if values is None:
            values = state.values.to_numpy()
        forbidden = problem.forbidden_batch(values)
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
    """Pop and ensure items until the worklist is quiescent or ``stop`` is set.

    The worker reports its finished items as one count each time its pop
    comes back empty, before it asks whether the worklist is quiescent,
    and once more on its way out (see ``QuiescenceToken``).  An item the
    adapter's ``is_stale`` rejects is finished without a check.
    """
    worklist.bind(slot)
    memoizes = problem.memoizes
    fixed = state.fixed
    ensure = problem.ensure
    is_stale = problem.is_stale
    stats = state.stats
    pop = worklist.pop
    finished = 0
    try:
        while not stop.is_set():
            item = pop()
            if item is None:
                if finished:
                    worklist.task_done_many(finished)
                    finished = 0
                if worklist.quiescent():
                    return
                time.sleep(0)
                continue
            finished += 1
            if is_stale is not None and is_stale(state, item):
                stats.stale_drops += 1
                continue
            index = item[0]
            if memoizes and fixed.is_fixed(index):
                continue
            ensure(state, index, worklist)
    finally:
        if finished:
            worklist.task_done_many(finished)


def _run_pool(problem: Problem, state: GlobalState, worklist: Worklist, threads: int) -> None:
    """Seed the worklist and drain it; a failing worker stops its peers."""
    problem.push_initial(state, worklist)
    stop = threading.Event()
    _run_workers(threads, lambda slot: _pool_worker(problem, state, worklist, slot, stop), stop.set)


def _run_passes(stats: Stats, sweeps: list, merge=None) -> None:
    """Run ``sweeps[me]()`` on worker ``me``, pass after pass, behind a barrier.

    The barrier action calls ``merge()``, if given, and stops the passes
    after one in which ``stats.advances`` did not move.  A pass that
    advanced nothing changed no cell (a failed replace means another
    check of the same pass advanced), so the next pass would repeat
    it: the state is a fixed point, or a check that never clears
    is left for the post-solve scan to report instead of hanging.  The
    counter's ``+=`` may lose increments across threads, yet comparing it
    is sound as long as no check adds 0: every store in a pass then writes
    a value read in that pass plus at least 1, which is above the pass's
    start value.
    """
    start = stats.advances
    go = True

    def decide() -> None:  # the barrier runs this once per pass, before releasing
        nonlocal start, go
        if merge is not None:
            merge()
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

    _run_passes(state.stats, [partial(sweep, r) for r in ranges])


def _run_batches(problem: Problem, ranges: list, recorder: Optional[Recorder]):
    """Fold pushed offers over each range, one worker per range; return ``(state, d)``.

    ``d``, the state of the solve, starts as ``problem.initial_values()``.
    In every pass a worker's frontier is its own indices v with ``merged[v]
    < d[v]``: it writes ``d[v] = merged[v]`` and folds the offers of those
    v (``offer_batch``) into its own array with ``np.minimum.at``.  With
    one worker that array is ``merged``; with more, the barrier action
    folds them all into it.  Before pass 1, on the calling thread,
    ``merged`` takes the offers of every finite index of the start
    vector: an index at INF offers nothing that beats anything, since the
    add saturates, so these reach every index forbidden at the start,
    each with its witness.  A frontier index counts one evaluation and
    one advance.  The cells are built once, from ``d``.

    Every offer is a value an in-neighbour held plus its arc, and values
    only fall, so a frontier index is forbidden and is never written past
    the fixed point.  An index that an in-neighbour's fall makes forbidden
    gets that offer, since an offer is dropped only when it does not beat
    the target, which only falls.  So an empty frontier is the fixed
    point, and the post-solve scan certifies it anyway: an adapter that
    offers too little fails with ``IncompleteSolveError``.

    The thread count changes nothing: only v's owner writes ``d[v]``, and
    a peer's ``d[x]`` read mid-pass is only stale-high, so it can only add
    offers, none of which beats the ``d[x]`` the pass ends with.  Offers
    are merged only at the barrier, so every pass's frontier and writes,
    hence ``passes`` and the vector, are those of one worker.  With a
    ``recorder``, each sweep reports its changes ``(index, old, new)``.
    """
    stats = Stats()
    d = problem.initial_values()
    offers = [np.full(problem.size, INF, dtype=np.uint64) for _ in ranges]
    merged = offers[0] if len(ranges) == 1 else np.full(problem.size, INF, dtype=np.uint64)
    np.minimum.at(merged, *problem.offer_batch(d, np.flatnonzero(d != INF)))

    def sweep(lo: int, hi: int, mine: np.ndarray) -> None:
        v = np.flatnonzero(merged[lo:hi] < d[lo:hi]) + lo
        if len(v):
            stats.predicate_evals += len(v)
            stats.advances += len(v)
            new = merged[v]
            if recorder is not None:
                for change in zip(v.tolist(), d[v].tolist(), new.tolist()):
                    recorder(*change)
            d[v] = new
            np.minimum.at(mine, *problem.offer_batch(d, v))

    def merge() -> None:
        for mine in offers:
            np.minimum(merged, mine, out=merged)

    sweeps = [partial(sweep, r.start, r.stop, mine) for r, mine in zip(ranges, offers)]
    _run_passes(stats, sweeps, merge if len(ranges) > 1 else None)
    state = GlobalState(d, recorder=recorder)
    state.stats = stats
    return state, d


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
    strategy = config.strategy
    n = problem.size
    if strategy == "allpar":
        # Static contiguous partition of the index space.
        threads = min(config.threads, n) or 1
        step = (n + threads - 1) // threads
        ranges = [range(i * step, min(n, (i + 1) * step)) for i in range(threads)]
        if problem.offer_batch is not None:
            return _finish(problem, *_run_batches(problem, ranges, recorder))
    state = problem.init_state(recorder=recorder)
    if strategy == "cyclic":
        # Descending passes: an ascending pass would settle cascading chains
        # in a single sweep, hiding exactly the redundant re-examination this
        # naive strategy is meant to exhibit.
        _run_scan(problem, state, [range(n - 1, -1, -1)])
    elif strategy == "allpar":
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

