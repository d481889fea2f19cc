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
        self._succ = [[] for _ in range(n)]
        self._pred = [[] for _ in range(n)]
        for u, v in sorted({(u, v) for u, v, _w in graph.arcs()}):
            self._succ[u].append(v)
            self._pred[v].append(u)

    def init_state(self, recorder=None) -> GlobalState:
        wpr = self.words_per_row
        words = [0] * (self.size * wpr)
        for u, succ in enumerate(self._succ):
            for v in succ:
                words[u * wpr + (v >> 6)] |= 1 << (v & 63)
        return GlobalState(words, work_size=self.size, recorder=recorder)

    def push_initial(self, state: GlobalState, worklist) -> None:
        worklist.push_all((u, 0) for u in range(self.size) if self._succ[u])

    def is_forbidden(self, state: GlobalState, u: int) -> bool:
        cells = state.values.cells()
        wpr = self.words_per_row
        ubase = u * wpr
        for w in self._succ[u]:
            wbase = w * wpr
            for b in range(wpr):
                if cells[wbase + b] & ~cells[ubase + b]:
                    return True
        return False

    def advance(self, state: GlobalState, u: int, worklist) -> bool:
        values = state.values
        cells = values.cells()
        wpr = self.words_per_row
        ubase = u * wpr
        changed = False
        for w in self._succ[u]:
            wbase = w * wpr
            for b in range(wpr):
                missing = cells[wbase + b] & ~cells[ubase + b]
                if missing:
                    values.fetch_or(ubase + b, missing)
                    changed = True
        if changed:
            # Rows with an arc into u may now lack u's new bits.
            worklist.push_all((x, 0) for x in self._pred[u])
        return changed

    def final_solution(self, state: GlobalState) -> np.ndarray:
        return np.array(state.values.snapshot(), dtype=np.uint64)

    def reachability_matrix(self, solution) -> np.ndarray:
        """Unpack a packed word vector into an n-by-n boolean matrix."""
        return unpack_reachability(solution, self.size)


def pack_reachability(matrix: np.ndarray) -> np.ndarray:
    """Pack an n-by-n boolean matrix into the adapter's word layout."""
    n = len(matrix)
    wpr = max(1, (n + 63) // 64)
    words = np.zeros(n * wpr, dtype=np.uint64)
    for u in range(n):
        acc = 0
        for v in range(n):
            if matrix[u][v]:
                acc |= 1 << v
        for b in range(wpr):
            words[u * wpr + b] = (acc >> (64 * b)) & ((1 << 64) - 1)
    return words


def unpack_reachability(words, n: int) -> np.ndarray:
    wpr = max(1, (n + 63) // 64)
    out = np.zeros((n, n), dtype=bool)
    for u in range(n):
        acc = 0
        for b in range(wpr):
            acc |= int(words[u * wpr + b]) << (64 * b)
        for v in range(n):
            out[u, v] = (acc >> v) & 1
    return out
