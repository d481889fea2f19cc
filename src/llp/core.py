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
    monotone cell.  The initial values are an iterable of ints, packed in
    one C pass, or a uint64 numpy array, read in one ``tolist``; a value
    outside [0, 2**64) raises ``OverflowError``.
    """

    __slots__ = ("_cells", "_locks", "_recorder")

    _STRIPES = 64  # power of two

    def __init__(self, values: Iterable[int], recorder: Optional[Recorder] = None):
        if not (isinstance(values, np.ndarray) and values.dtype == np.uint64):
            values = array("Q", values)
        self._cells = values.tolist()
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
        """A writable uint64 numpy copy of every cell, packed in one C pass."""
        return np.frombuffer(array("Q", self._cells), dtype=np.uint64)

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
    stale_drops`` pops.  ``allpar``'s vector path (``Problem.offer_batch``)
    counts one evaluation and one advance per index it lowers, and never
    a failed replace: each of its writes is its owner's own.
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

    An adapter whose state is one cell per index, on a min lattice, may
    also supply vector operations over a uint64 numpy array ``values``,
    one value per cell, and ``initial_values()``, the start vector as such
    an array, from which its ``init_state`` builds the cells:

    - ``forbidden_batch(values) -> forbidden``, a pure check of every
      index: the ascending int64 array of the forbidden ones.  It agrees
      with ``is_forbidden`` and counts nothing.  The post-solve scan
      then runs it once instead of ``is_forbidden`` index by index.
    - ``offer_batch(values, changed) -> (targets, candidates)``, the
      check in push form, also pure: for the int64 array ``changed``,
      each candidate their values now offer an index and that beats its
      value (``candidates[k] < values[targets[k]]``).  An index is
      forbidden exactly when the least offer its inputs make at their
      current values beats its value, and that offer is its witness; an
      input at INF offers nothing that beats anything.

    With ``offer_batch``, ``allpar`` solves on one array from
    ``initial_values()`` instead of the cells, counts its work itself,
    starts from the offers of the array's finite indices instead of
    ``push_initial``, and builds the ``GlobalState`` once from the final
    array, without ``init_state`` (see ``solvers._run_batches``).
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
    #: Optional push-form check (see above); None keeps ``allpar`` on ``ensure``.
    offer_batch = None
    #: Optional stale rule for popped items (see above); None checks every pop.
    is_stale = None

    size: int

    def init_state(self, recorder: Optional[Recorder] = None) -> GlobalState:
        raise NotImplementedError

    def push_initial(self, state: GlobalState, worklist) -> None:
        """Push the work items that may be forbidden at the start.

        Every index forbidden in ``init_state`` must be the index of some
        pushed item: popping strategies start from these items.
        """
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
