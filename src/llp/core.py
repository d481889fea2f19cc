"""Shared lattice state, monotone atomic cells, and the problem contract.

A problem is solved by repeatedly finding *forbidden* coordinates of a
shared solution vector and advancing them monotonically (downward for
min-lattices such as shortest paths, upward for max-lattices such as
scheduling) until no coordinate is forbidden.  Every solver and worklist
policy in this package drives the same contract, defined by
:class:`Problem`: an adapter writes the check and the advancement.

CPython's GIL makes single reads of a list slot atomic, so loads are
plain indexing.  Read-modify-write operations (conditional replace,
monotone min/max, bitwise OR, counter arithmetic) go through a striped
lock so each update has a single linearization point.  That is the
closest idiomatic equivalent of hardware compare-and-swap available to
pure Python; all observable guarantees (values never regress in lattice
order, exactly-once fixed-bit transitions) are preserved.
"""

from __future__ import annotations

import threading
from array import array
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

U64_MASK = 0xFFFFFFFFFFFFFFFF

#: Unreachable / unset marker.  Additions saturate so INF + w == INF.
INF = U64_MASK


def _u64(values: Iterable[int]) -> np.ndarray:
    """A uint64 numpy array of ``values``, packed in one C pass."""
    return np.frombuffer(array("Q", values), dtype=np.uint64)


def saturating_add(a: int, b: int) -> int:
    """Unsigned 64-bit addition that clamps at INF instead of wrapping."""
    s = a + b
    return s if s < INF else INF


class LlpError(Exception):
    """Base class for solver-facing errors."""


class InfeasibleError(LlpError):
    """An advance would push a coordinate past its bound: no solution exists."""


class MalformedInstanceError(LlpError):
    """The instance violates a structural precondition (e.g. a cyclic DAG)."""


class IncompleteSolveError(LlpError):
    """Post-solve scan found a forbidden index; indicates a solver bug."""

    def __init__(self, index: int):
        super().__init__(f"index {index} is still forbidden after the solve")
        self.index = index


class Update(NamedTuple):
    """Outcome of a conditional cell update.

    ``value`` is the displaced value when ``updated`` is true, otherwise
    the value observed in the cell at the linearization point.
    """

    updated: bool
    value: int


# Recorder callback: (index, old, new), invoked under the cell's lock on
# every successful change.  Used by the monotonicity test shim.
Recorder = Callable[[int, int, int], None]


class AtomicU64Array:
    """Fixed-size array of unsigned 64-bit cells with atomic updates.

    Loads are plain list reads (GIL-atomic).  All mutation goes through
    one of 64 striped locks, so concurrent read-modify-write operations
    on the same cell serialize and stale writes can never regress a
    monotone cell.  An initial value outside [0, 2**64) raises
    ``OverflowError``.
    """

    __slots__ = ("_cells", "_locks", "_recorder")

    _STRIPES = 64  # power of two

    def __init__(self, values: Iterable[int], recorder: Optional[Recorder] = None):
        self._cells = array("Q", values).tolist()
        self._locks = [threading.Lock() for _ in range(self._STRIPES)]
        self._recorder = recorder

    def __len__(self) -> int:
        return len(self._cells)

    def load(self, index: int) -> int:
        return self._cells[index]

    def cells(self) -> list:
        """Read-only view of the backing list for hot read loops.

        Indexing it is equivalent to ``load``; all mutation must still go
        through the atomic operations.
        """
        return self._cells

    def snapshot(self) -> list:
        return list(self._cells)

    def to_numpy(self) -> np.ndarray:
        """A writable uint64 numpy copy of every cell, read in one pass."""
        return _u64(self._cells)

    def _lock_for(self, index: int) -> threading.Lock:
        return self._locks[index & (self._STRIPES - 1)]

    def monotone_min(self, index: int, candidate: int) -> Update:
        """Lower the cell to ``candidate`` iff that is a strict improvement."""
        cells = self._cells
        with self._lock_for(index):
            old = cells[index]
            if candidate < old:
                cells[index] = candidate
                if self._recorder is not None:
                    self._recorder(index, old, candidate)
                return Update(True, old)
            return Update(False, old)

    def monotone_min_many(self, indices: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Lower each ``indices[k]`` to ``candidates[k]`` iff that is a strict improvement.

        Returns a bool mask over ``indices``: True where the cell changed.
        A repeated index keeps only its least candidate (the first among
        equals), so a later, larger one can never raise the cell again;
        the mask marks that one position.  The batch gathers the old
        values of its own indices, compares them in numpy and writes only
        the cells that fall; the recorder sees each of those changes, as
        it does for ``monotone_min``.  The batch holds every stripe lock,
        taken in one fixed order so two batches cannot deadlock, and
        single-cell updates never hold two.
        """
        mask = np.zeros(len(indices), dtype=bool)
        positions = None
        if len(indices) > 1 and not (indices[1:] > indices[:-1]).all():
            # Not strictly increasing, so an index may repeat: keep each
            # index's least candidate, in input order.
            order = np.lexsort((candidates, indices))
            first = np.ones(len(order), dtype=bool)
            sorted_indices = indices[order]
            first[1:] = sorted_indices[1:] != sorted_indices[:-1]
            positions = np.sort(order[first])
            indices, candidates = indices[positions], candidates[positions]
        cells = self._cells
        recorder = self._recorder
        index_list = indices.tolist()
        for lock in self._locks:
            lock.acquire()
        try:
            old = _u64([cells[i] for i in index_list])
            hits = np.flatnonzero(candidates < old)
            news = candidates[hits].tolist()
            for index, was, new in zip(indices[hits].tolist(), old[hits].tolist(), news):
                cells[index] = new
                if recorder is not None:
                    recorder(index, was, new)
        finally:
            for lock in reversed(self._locks):
                lock.release()
        mask[hits if positions is None else positions[hits]] = True
        return mask

    def monotone_max(self, index: int, candidate: int) -> Update:
        """Raise the cell to ``candidate`` iff that is a strict improvement."""
        cells = self._cells
        with self._lock_for(index):
            old = cells[index]
            if candidate > old:
                cells[index] = candidate
                if self._recorder is not None:
                    self._recorder(index, old, candidate)
                return Update(True, old)
            return Update(False, old)

    def compare_exchange(self, index: int, expected: int, value: int) -> Update:
        """Install ``value`` iff the cell still holds ``expected``."""
        cells = self._cells
        with self._lock_for(index):
            old = cells[index]
            if old == expected:
                cells[index] = value
                if self._recorder is not None:
                    self._recorder(index, old, value)
                return Update(True, old)
            return Update(False, old)

    def fetch_or(self, index: int, bits: int) -> int:
        """OR ``bits`` into the cell; returns the prior value."""
        cells = self._cells
        with self._lock_for(index):
            old = cells[index]
            new = old | bits
            if new != old:
                cells[index] = new
                if self._recorder is not None:
                    self._recorder(index, old, new)
            return old

    def fetch_sub(self, index: int, amount: int) -> int:
        """Subtract ``amount``; returns the prior value.  Must not underflow."""
        cells = self._cells
        with self._lock_for(index):
            old = cells[index]
            cells[index] = old - amount
            return old


class FixedVector:
    """Bit vector of idempotent once-only flags.

    ``set_fixed`` returns True for exactly one of any set of concurrent
    callers on the same index; a set bit is never cleared.
    """

    __slots__ = ("_bits", "_locks")

    _STRIPES = 64

    def __init__(self, size: int):
        self._bits = [False] * size
        self._locks = [threading.Lock() for _ in range(self._STRIPES)]

    def __len__(self) -> int:
        return len(self._bits)

    def is_fixed(self, index: int) -> bool:
        return self._bits[index]

    def set_fixed(self, index: int) -> bool:
        bits = self._bits
        if bits[index]:
            return False
        with self._locks[index & (self._STRIPES - 1)]:
            if bits[index]:
                return False
            bits[index] = True
            return True

    def count(self) -> int:
        return sum(self._bits)


class Stats:
    """Work counters.

    Increments are plain ``+=`` and may undercount under thread
    contention (relaxed consistency); they are exact in single-thread
    runs, which is where the work-count assertions live.  ``passes``
    counts the passes of a scanning strategy (``cyclic``, ``allpar``) and
    stays 0 for the popping ones.  ``stale_drops`` counts popped items
    that ``Problem.is_stale`` discarded unchecked, so a popping solve of
    an adapter that does not memoize makes ``predicate_evals +
    stale_drops`` pops.
    """

    __slots__ = ("predicate_evals", "advances", "failed_replaces", "passes", "stale_drops")

    def __init__(self):
        self.predicate_evals = 0
        self.advances = 0
        self.failed_replaces = 0
        self.passes = 0
        self.stale_drops = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class GlobalState:
    """Shared solver state: the solution vector plus per-problem extras.

    ``values`` holds one atomic cell per lattice coordinate.  ``fixed``
    has one flag per *work index* (which may differ from the coordinate
    count when a work index spans several cells, as in the closure and
    knapsack adapters).  ``extra`` is problem-owned auxiliary state; by
    convention it maps names to further :class:`AtomicU64Array` objects,
    or to plain lists for hints that tolerate racy writes.
    """

    __slots__ = ("values", "fixed", "extra", "stats")

    def __init__(
        self,
        initial_values: Iterable[int],
        *,
        work_size: Optional[int] = None,
        extra: Optional[dict] = None,
        recorder: Optional[Recorder] = None,
    ):
        self.values = AtomicU64Array(initial_values, recorder=recorder)
        self.fixed = FixedVector(work_size if work_size is not None else len(self.values))
        self.extra = extra or {}
        self.stats = Stats()

    def mark_fixed(self, index: int) -> bool:
        """Set the fixed bit; True iff this call made the transition."""
        return self.fixed.set_fixed(index)


class Problem:
    """Contract every solvable problem implements.

    Subclasses set the lattice direction and the work-index space
    ``size``, and write ``init_state``, ``push_initial``,
    ``final_solution`` and the method's only problem-specific code:

    - ``witness(state, index)``, the check: a pure read that returns
      None when ``index`` is not forbidden, else what the advancement
      needs of what it read (a candidate value, or where it stopped).
    - ``apply(state, index, witness, worklist) -> bool``, the
      advancement: it moves coordinates only forward in lattice order,
      may push follow-up items ``(index, priority)``, and returns False
      when a concurrent writer got there first.

    ``is_forbidden``, ``advance`` and ``ensure`` (one counted check, the
    call solvers make per index) derive from those two.  A priority only
    orders the pops, unless the adapter also supplies ``is_stale``:

    - ``is_stale(state, item) -> bool`` lets a popping worker drop a
      popped item unchecked.  It must return True only when every
      forbidden state of the item's index is covered by some other item,
      already pushed or yet to be pushed; ``ShortestPaths`` drops
      ``(x, c)`` once d(x) <= c, since its pushes carry their candidate
      as the key.  A dropped item counts as done and adds one to
      ``stats.stale_drops`` instead of ``predicate_evals``.

    An adapter whose state is one cell per index may also supply two
    vector operations over a uint64 numpy copy ``values`` of the cells:

    - ``forbidden_batch(values, indices) -> (forbidden, witnesses)``, a
      pure check of the int64 array ``indices``: ``forbidden`` holds the
      forbidden ones in input order, and ``witnesses[k]`` is the value
      an advance of ``forbidden[k]`` writes.  It agrees with
      ``witness`` and counts nothing.  The post-solve scan then
      runs it once over every index instead of ``is_forbidden``.
    - ``ensure_batch(state, indices, values) -> wake``, which ``allpar``
      runs in place of one ``ensure`` per index.  ``values`` is the
      solver's mirror of the cells: it may lag them but is never ahead
      of them in lattice order (see ``solvers._run_batches``).  The step
      checks ``indices``
      against it, lowers (or raises) the forbidden ones in one bulk
      write, copies each change into ``values``, and counts work as
      ``ensure`` does: one evaluation per index, one advance or failed
      replace per forbidden one; it adds to ``advances`` only when it
      advanced something, because the scan's stop rule compares that
      counter.  ``wake`` holds the indices whose check its writes may
      have changed; an index outside it must stay unforbidden unless
      some other write wakes it.
    """

    #: "min" or "max"; the direction coordinates move.
    lattice = "min"
    #: When True a fixed index is provably never forbidden again and
    #: solvers skip it.
    memoizes = False
    #: Optional per-index advance ceiling; advancing past it raises
    #: InfeasibleError.
    bound: Optional[list] = None
    #: Optional vector check (see above); None keeps the post-solve scan
    #: on ``is_forbidden``.
    forbidden_batch = None
    #: Optional vector step (see above); None keeps ``allpar`` on ``ensure``.
    ensure_batch = None
    #: Optional stale rule for popped items (see above); None checks every pop.
    is_stale = None

    size: int

    def init_state(self, recorder: Optional[Recorder] = None) -> GlobalState:
        raise NotImplementedError

    def push_initial(self, state: GlobalState, worklist) -> None:
        """Push the work items that may be forbidden at the start."""
        raise NotImplementedError

    def witness(self, state: GlobalState, index: int):
        """What advancing ``index`` needs, or None when it is not forbidden.

        The defaults of ``witness`` and ``apply`` serve only perfbench's
        ``TracedProblem``, which wraps ``is_forbidden`` and ``advance``;
        delete them once it wraps ``witness`` and ``apply``.
        """
        if type(self).is_forbidden is Problem.is_forbidden:
            raise NotImplementedError(f"{type(self).__name__} defines no witness")
        return True if self.is_forbidden(state, index) else None

    def apply(self, state: GlobalState, index: int, witness, worklist) -> bool:
        """Advance a forbidden ``index`` by its ``witness``; True iff this call made progress."""
        if type(self).advance is Problem.advance:
            raise NotImplementedError(f"{type(self).__name__} defines no apply")
        return self.advance(state, index, worklist)

    def is_forbidden(self, state: GlobalState, index: int) -> bool:
        return self.witness(state, index) is not None

    def advance(self, state: GlobalState, index: int, worklist) -> bool:
        """Advance ``index`` if it is forbidden now; True iff this call made progress."""
        witness = self.witness(state, index)
        return witness is not None and self.apply(state, index, witness, worklist)

    def ensure(self, state: GlobalState, index: int, worklist) -> bool:
        """Check ``index`` once, advance it if forbidden, count; True iff it was forbidden."""
        stats = state.stats
        stats.predicate_evals += 1
        witness = self.witness(state, index)
        if witness is None:
            return False
        if self.apply(state, index, witness, worklist):
            stats.advances += 1
        else:
            stats.failed_replaces += 1
        return True

    def final_solution(self, state: GlobalState) -> np.ndarray:
        raise NotImplementedError
