"""Single-source shortest paths and BFS levels as monotone min-lattices."""

from __future__ import annotations

import numpy as np

from ..core import GlobalState, INF, Problem, saturating_add
from ..instances import CsrGraph


class ShortestPaths(Problem):
    """Tentative distances d(v) relax downward until no edge improves them.

    A vertex v (other than the source) is forbidden when some in-edge
    (u, v) offers d(u) + w < d(v).  Advancing writes the best in-edge
    candidate through a monotone min and enqueues only the out-neighbours
    x that the fresh distance improves, d(v) + w < d(x), each keyed by
    that candidate d(v) + w, as in delta-stepping.  Skipping the others
    is sound because cells only fall: an edge that does not improve x now
    cannot until d(v) falls again, and that fall pushes x again.
    """

    lattice = "min"

    def __init__(self, graph: CsrGraph, source: int = 0):
        if not 0 <= source < graph.num_vertices:
            raise ValueError("source out of range")
        self.graph = graph
        self.source = source
        self.size = graph.num_vertices
        # Plain-list adjacency: these loops dominate solve time.
        self._out = graph.adjacency_lists()
        self._in = graph.reversed().adjacency_lists()

    def init_state(self, recorder=None) -> GlobalState:
        values = [INF] * self.size
        values[self.source] = 0
        return GlobalState(values, recorder=recorder)

    def push_initial(self, state: GlobalState, worklist) -> None:
        worklist.push_all((v, 0) for v, _w in self._out[self.source])

    def _push_improved(self, cells: list, v: int, d: int, worklist) -> None:
        # No saturating add: a sum at or above INF never beats a cell.
        items = [(x, c) for x, w in self._out[v] if (c := d + w) < cells[x]]
        if items:
            worklist.push_all(items)

    def _best_in(self, state: GlobalState, v: int) -> int:
        # INF plus a weight exceeds INF and never wins, so unreached
        # neighbours need no special case.
        cells = state.values.cells()
        best = INF
        for u, w in self._in[v]:
            cand = cells[u] + w
            if cand < best:
                best = cand
        return best

    def is_forbidden(self, state: GlobalState, v: int) -> bool:
        if v == self.source:
            return False
        return self._best_in(state, v) < state.values.load(v)

    def advance(self, state: GlobalState, v: int, worklist) -> bool:
        cand = self._best_in(state, v)
        res = state.values.monotone_min(v, cand)
        if not res.updated:
            return False  # a concurrent relax got there first
        self._push_improved(state.values.cells(), v, cand, worklist)
        return True

    def ensure(self, state: GlobalState, v: int, worklist) -> bool:
        # Single-scan override: the relaxation candidate from the check
        # is reused for the advance.
        stats = state.stats
        stats.predicate_evals += 1
        if v == self.source:
            return False
        cells = state.values.cells()
        best = INF
        for u, w in self._in[v]:
            cand = cells[u] + w
            if cand < best:
                best = cand
        if best >= cells[v]:
            return False
        if state.values.monotone_min(v, best).updated:
            stats.advances += 1
            self._push_improved(cells, v, best, worklist)
        else:
            stats.failed_replaces += 1
        return True

    def final_solution(self, state: GlobalState) -> np.ndarray:
        return np.array(state.values.snapshot(), dtype=np.uint64)


class BreadthFirstLevels(Problem):
    """Hop levels from a source; shortest paths with every weight one.

    A vertex is forbidden when an in-neighbour sits more than one level
    below it.  ``ensure`` advancing v to level d pushes only the
    out-neighbours x with d + 1 < d(x), each keyed by its candidate level
    d + 1, by the same rule as :class:`ShortestPaths`.  ``advance``
    pushes every out-neighbour at priority zero.
    """

    lattice = "min"

    def __init__(self, graph: CsrGraph, source: int = 0):
        if not 0 <= source < graph.num_vertices:
            raise ValueError("source out of range")
        self.graph = graph
        self.source = source
        self.size = graph.num_vertices
        self._out = [[v for v, _w in row] for row in graph.adjacency_lists()]
        self._in = [[v for v, _w in row] for row in graph.reversed().adjacency_lists()]

    def init_state(self, recorder=None) -> GlobalState:
        values = [INF] * self.size
        values[self.source] = 0
        return GlobalState(values, recorder=recorder)

    def push_initial(self, state: GlobalState, worklist) -> None:
        worklist.push_all((v, 0) for v in self._out[self.source])

    def _push_improved(self, cells: list, v: int, d: int, worklist) -> None:
        cand = d + 1
        items = [(x, cand) for x in self._out[v] if cand < cells[x]]
        if items:
            worklist.push_all(items)

    def _best_in(self, state: GlobalState, v: int) -> int:
        cells = state.values.cells()
        best = INF
        for u in self._in[v]:
            d = cells[u]
            if d < best:
                best = d
        return saturating_add(best, 1)

    def is_forbidden(self, state: GlobalState, v: int) -> bool:
        if v == self.source:
            return False
        return self._best_in(state, v) < state.values.load(v)

    def advance(self, state: GlobalState, v: int, worklist) -> bool:
        cand = self._best_in(state, v)
        res = state.values.monotone_min(v, cand)
        if not res.updated:
            return False
        # Unfiltered and unkeyed: only the allpar scan calls this, with a
        # worklist that discards pushes, and there the filter measured
        # slower.
        worklist.push_all([(x, 0) for x in self._out[v]])
        return True

    def ensure(self, state: GlobalState, v: int, worklist) -> bool:
        stats = state.stats
        stats.predicate_evals += 1
        if v == self.source:
            return False
        cand = self._best_in(state, v)
        if cand >= state.values.load(v):
            return False
        if state.values.monotone_min(v, cand).updated:
            stats.advances += 1
            self._push_improved(state.values.cells(), v, cand, worklist)
        else:
            stats.failed_replaces += 1
        return True

    def final_solution(self, state: GlobalState) -> np.ndarray:
        return np.array(state.values.snapshot(), dtype=np.uint64)
