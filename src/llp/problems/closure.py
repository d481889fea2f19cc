"""Transitive closure over packed reachability rows (max-lattice under OR)."""

from __future__ import annotations

import numpy as np

from ..core import GlobalState, Problem
from ..instances import CsrGraph


class TransitiveClosure(Problem):
    """Row u collects a bit for every vertex reachable from u.

    Rows are packed into 64-bit words; the work index is the row, and
    row u starts as the set of u's direct successors.  Row u is
    forbidden while some direct successor w has a row with bits row u
    lacks.  Advancing ORs each direct successor's missing words into
    row u once and, if row u changed, pushes u's direct predecessors:
    the semi-naive rule of Datalog evaluation, one hop at a time.

    This reaches the closure and nothing more.  Rows only gain bits, so
    word values are monotone non-decreasing.  Every change to row w
    pushes each predecessor u, so u's last check comes after w's last
    change; at quiescence every arc u->w therefore has row(u) ⊇ row(w),
    and initially row(u) ⊇ succ(u).  So every row is closed along paths
    of length >= 1, and no bit is ever set beyond reachability.

    Paths have length >= 1: a vertex reaches itself only through a cycle.
    """

    lattice = "max"

    def __init__(self, graph: CsrGraph):
        n = graph.num_vertices
        self.size = n
        self.words_per_row = max(1, (n + 63) // 64)
        self._succ = [sorted(set(row)) for row in graph.successor_lists()]
        self._pred = [sorted(set(row)) for row in graph.reversed().successor_lists()]

    def init_state(self, recorder=None) -> GlobalState:
        wpr = self.words_per_row
        words = [0] * (self.size * wpr)
        for u, succ in enumerate(self._succ):
            for v in succ:
                words[u * wpr + (v >> 6)] |= 1 << (v & 63)
        return GlobalState(words, work_size=self.size, recorder=recorder)

    def push_initial(self, state: GlobalState, worklist) -> None:
        worklist.push_all((u, 0) for u in range(self.size) if self._succ[u])

    def witness(self, state: GlobalState, u: int):
        """``i * wpr + b`` for the first word b of successor i with bits row u lacks, or None."""
        cells = state.values.cells()
        wpr = self.words_per_row
        ubase = u * wpr
        for i, w in enumerate(self._succ[u]):
            wbase = w * wpr
            for b in range(wpr):
                if cells[wbase + b] & ~cells[ubase + b]:
                    return i * wpr + b
        return None

    def apply(self, state: GlobalState, u: int, stop: int, worklist) -> bool:
        # Resume where the check stopped: the words before it held no bit
        # that row u lacked, and a later change to them pushes u again.
        values = state.values
        cells = values.cells()
        wpr = self.words_per_row
        ubase = u * wpr
        start = stop % wpr
        changed = False
        for w in self._succ[u][stop // wpr :]:
            wbase = w * wpr
            for b in range(start, wpr):
                missing = cells[wbase + b] & ~cells[ubase + b]
                if missing:
                    values.fetch_or(ubase + b, missing)
                    changed = True
            start = 0
        if changed:
            # Rows with an arc into u may now lack u's new bits.
            worklist.push_all((x, 0) for x in self._pred[u])
        return changed

    def final_solution(self, state: GlobalState) -> np.ndarray:
        return state.values.to_numpy()

    def reachability_matrix(self, solution) -> np.ndarray:
        """Unpack a packed word vector into an n-by-n boolean matrix."""
        return unpack_reachability(solution, self.size)


def pack_reachability(matrix: np.ndarray) -> np.ndarray:
    """Pack an n-by-n boolean matrix into the adapter's word layout."""
    n = len(matrix)
    bits = np.zeros((n, max(1, (n + 63) // 64) * 64), dtype=bool)
    bits[:, :n] = np.asarray(matrix, dtype=bool).reshape(n, n)
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64).ravel()


def unpack_reachability(words, n: int) -> np.ndarray:
    rows = np.asarray(words, dtype="<u8").reshape(n, max(1, (n + 63) // 64)).view(np.uint8)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little").astype(bool)
