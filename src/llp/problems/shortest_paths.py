"""Single-source shortest paths and BFS levels as monotone min-lattices."""

from __future__ import annotations

import numpy as np

from ..core import GlobalState, INF, Problem, saturating_add
from ..instances import CsrGraph

_ONE = np.uint64(1)


def _row_arcs(offsets: np.ndarray, rows: np.ndarray):
    """Arc ids of ``rows`` in CSR ``offsets``, row after row, and each row's count."""
    lo = offsets[rows]
    counts = offsets[rows + 1] - lo
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(lo - starts, counts), counts


class ShortestPaths(Problem):
    """Tentative distances d(v) relax downward until no edge improves them.

    A vertex v (other than the source) is forbidden when some in-edge
    (u, v) offers d(u) + w < d(v).  Advancing writes the best in-edge
    candidate through a monotone min and enqueues only the out-neighbours
    x that the fresh distance improves, d(v) + w < d(x), each keyed by
    that candidate d(v) + w, as in delta-stepping.  Skipping the others
    is sound because cells only fall: an edge that does not improve x now
    cannot until d(v) falls again, and that fall pushes x again.

    ``ensure_batch`` is the same check and advance for many vertices at
    once, over numpy gathers of the CSR arcs; it wakes the out-neighbours
    that the push rule would push.
    """

    lattice = "min"

    def __init__(self, graph: CsrGraph, source: int = 0):
        if not 0 <= source < graph.num_vertices:
            raise ValueError("source out of range")
        self.graph = graph
        self.source = source
        self.size = graph.num_vertices
        self._rev = graph.reversed()
        # Plain-list adjacency: these loops dominate solve time.
        self._out = graph.adjacency_lists()
        self._in = self._rev.adjacency_lists()

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

    def _best_in(self, cells: list, v: int) -> int:
        # INF plus a weight exceeds INF and never wins, so unreached
        # neighbours need no special case.
        best = INF
        for u, w in self._in[v]:
            cand = cells[u] + w
            if cand < best:
                best = cand
        return best

    def _lower(self, state: GlobalState, v: int, d: int, worklist) -> bool:
        """Lower d(v) to ``d`` and push the out-neighbours that lowering improves.

        False when a concurrent relax got there first.
        """
        if not state.values.monotone_min(v, d).updated:
            return False
        self._push_improved(state.values.cells(), v, d, worklist)
        return True

    def is_forbidden(self, state: GlobalState, v: int) -> bool:
        if v == self.source:
            return False
        cells = state.values.cells()
        return self._best_in(cells, v) < cells[v]

    def advance(self, state: GlobalState, v: int, worklist) -> bool:
        return self._lower(state, v, self._best_in(state.values.cells(), v), worklist)

    def ensure(self, state: GlobalState, v: int, worklist) -> bool:
        # Single-scan override: the relaxation candidate from the check
        # is reused for the advance.
        stats = state.stats
        stats.predicate_evals += 1
        if v == self.source:
            return False
        cells = state.values.cells()
        cand = self._best_in(cells, v)
        if cand >= cells[v]:
            return False
        if self._lower(state, v, cand, worklist):
            stats.advances += 1
        else:
            stats.failed_replaces += 1
        return True

    def _arc_weights(self, graph: CsrGraph, arcs: np.ndarray):
        return graph.weights[arcs]

    def ensure_batch(self, state: GlobalState, indices: np.ndarray) -> np.ndarray:
        stats = state.stats
        stats.predicate_evals += len(indices)
        rev = self._rev
        v = indices[(indices != self.source) & (rev.offsets[indices + 1] > rev.offsets[indices])]
        if not len(v):
            return v
        d = np.fromiter(state.values.cells(), dtype=np.uint64, count=self.size)
        arcs, counts = _row_arcs(rev.offsets, v)
        w = self._arc_weights(rev, arcs)
        # Saturating, so exact at INF: min(d, INF - w) + w never wraps.
        cand = np.minimum(d[rev.targets[arcs]], INF - w) + w
        best = np.minimum.reduceat(cand, np.cumsum(counts) - counts)
        forbidden = best < d[v]
        v, best = v[forbidden], best[forbidden]
        if not len(v):
            return v
        changed = state.values.monotone_min_many(v, best)
        advanced = int(np.count_nonzero(changed))
        # Only a real advance touches the counter, so every store to it
        # exceeds the value it read: the scan's stop rule rests on that.
        if advanced:
            stats.advances += advanced
        stats.failed_replaces += len(v) - advanced
        # Wake the out-neighbours x with d(v) + w < d(x), the push rule.
        # d is the read above plus this batch's writes; a stale d(x) only
        # wakes more.
        v, best = v[changed], best[changed]
        d[v] = best
        arcs, counts = _row_arcs(self.graph.offsets, v)
        w = self._arc_weights(self.graph, arcs)
        x = self.graph.targets[arcs]
        return x[np.minimum(np.repeat(best, counts), INF - w) + w < d[x]]

    def final_solution(self, state: GlobalState) -> np.ndarray:
        return np.array(state.values.snapshot(), dtype=np.uint64)


class BreadthFirstLevels(ShortestPaths):
    """Hop levels from a source; shortest paths with every weight one.

    A vertex is forbidden when an in-neighbour sits more than one level
    below it.  The check, the advance, ``ensure`` and ``ensure_batch``
    are those of :class:`ShortestPaths` with every weight one: lowering v
    to level d pushes only the out-neighbours x with d + 1 < d(x), each
    keyed by its candidate level d + 1.
    """

    def __init__(self, graph: CsrGraph, source: int = 0):
        if not 0 <= source < graph.num_vertices:
            raise ValueError("source out of range")
        self.graph = graph
        self.source = source
        self.size = graph.num_vertices
        self._rev = graph.reversed()
        self._out = [[v for v, _w in row] for row in graph.adjacency_lists()]
        self._in = [[v for v, _w in row] for row in self._rev.adjacency_lists()]

    def push_initial(self, state: GlobalState, worklist) -> None:
        worklist.push_all((v, 0) for v in self._out[self.source])

    def _push_improved(self, cells: list, v: int, d: int, worklist) -> None:
        cand = d + 1
        items = [(x, cand) for x in self._out[v] if cand < cells[x]]
        if items:
            worklist.push_all(items)

    def _arc_weights(self, graph: CsrGraph, arcs: np.ndarray):
        return _ONE

    def _best_in(self, cells: list, v: int) -> int:
        best = INF
        for u in self._in[v]:
            d = cells[u]
            if d < best:
                best = d
        return saturating_add(best, 1)
