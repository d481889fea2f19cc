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
    candidate through a monotone min and pushes an out-neighbour x only
    when the candidate c = d(v) + w is below ``offered[x]``, keyed by c,
    as in delta-stepping.  ``offered`` (a plain list in ``state.extra``,
    copied from the cells at the first lowering of a solve) is Dijkstra's
    tentative distance: each value written to ``offered[x]`` is a key its
    writer then pushes for x, or a value d(x) held.  So skipping
    c >= offered[x] is sound: either d(x) already reached offered[x], or
    an item (x, k), k <= c, was pushed, and checking it leaves d(x) <= k,
    because the in-neighbour that offered k still offers it (cells only
    fall).  Racing writes may leave ``offered[x]`` above the least key
    pushed, which only lets a needless push through.  An edge skipped now
    cannot improve x until d(v) falls again, and that fall offers x again.

    Every push is keyed by its candidate, so a popped ``(x, c)`` with
    d(x) <= c is stale and ``is_stale`` drops it unchecked, as Dijkstra's
    lazy deletion does.

    ``forbidden_batch`` is the same check for many vertices at once, over
    numpy gathers of the CSR arcs, with each forbidden vertex's best
    candidate as its witness.  ``ensure_batch`` writes those candidates
    and wakes the out-neighbours x with d(v) + w < d(x).
    """

    lattice = "min"
    # Plain-list adjacency, (target, weight) pairs: these loops dominate solve time.
    _adjacency = staticmethod(CsrGraph.adjacency_lists)

    def __init__(self, graph: CsrGraph, source: int = 0):
        if not 0 <= source < graph.num_vertices:
            raise ValueError("source out of range")
        self.graph = graph
        self.source = source
        self.size = graph.num_vertices
        self._rev = graph.reversed()
        self._out = self._adjacency(graph)
        self._in = self._adjacency(self._rev)

    def init_state(self, recorder=None) -> GlobalState:
        values = [INF] * self.size
        values[self.source] = 0
        return GlobalState(values, recorder=recorder)

    def push_initial(self, state: GlobalState, worklist) -> None:
        worklist.push_all((v, 0) for v, _w in self._out[self.source])

    def is_stale(self, state: GlobalState, item) -> bool:
        # Sound: if x is forbidden through its in-neighbour u, then some item
        # (x, k) with k <= d(u) + w is pushed.  u's last lowering pushed its
        # own candidate, or found offered[x] <= d(u) + w, a value that d(x)
        # cannot have set (it is above d(u) + w), so its writer pushes that
        # key.  For u the source, the seed pushed (x, 0).  That key is below
        # d(x), and cells only fall, so the item is not stale while u makes
        # x forbidden, and it is checked.  An item with d(x) <= c stays
        # stale for good, and dropping it loses no check that x still needs.
        return state.values.cells()[item[0]] <= item[1]

    def _push_improved(self, offered: list, v: int, d: int, worklist) -> None:
        # No saturating add: a sum at or above INF never beats an offer.
        items = []
        for x, w in self._out[v]:
            c = d + w
            if c < offered[x]:
                offered[x] = c
                items.append((x, c))
        if items:
            worklist.push_all(items)

    def witness(self, state: GlobalState, v: int):
        """The best in-edge candidate for d(v), or None when it does not beat d(v)."""
        if v == self.source:
            return None
        cells = state.values.cells()
        # INF plus a weight exceeds INF and never wins, so unreached
        # neighbours need no special case.
        best = INF
        for u, w in self._in[v]:
            cand = cells[u] + w
            if cand < best:
                best = cand
        return best if best < cells[v] else None

    def apply(self, state: GlobalState, v: int, d: int, worklist) -> bool:
        """Lower d(v) to ``d`` and push the out-neighbours that lowering improves.

        False when a concurrent relax got there first.
        """
        if not state.values.monotone_min(v, d).updated:
            return False
        offered = state.extra.get("offered")
        if offered is None:
            # First lowering of the solve.  Threads racing here may each start
            # a list; a write to the one that loses only goes unused.
            offered = state.extra["offered"] = state.values.snapshot()
        if d < offered[v]:
            offered[v] = d
        self._push_improved(offered, v, d, worklist)
        return True

    def _arc_weights(self, graph: CsrGraph, arcs: np.ndarray):
        return graph.weights[arcs]

    def forbidden_batch(self, values: np.ndarray, indices: np.ndarray):
        rev = self._rev
        v = indices[(indices != self.source) & (rev.offsets[indices + 1] > rev.offsets[indices])]
        if not len(v):
            return v, values[:0]
        arcs, counts = _row_arcs(rev.offsets, v)
        w = self._arc_weights(rev, arcs)
        # Saturating, so exact at INF: min(d, INF - w) + w never wraps.
        cand = np.minimum(values[rev.targets[arcs]], INF - w) + w
        best = np.minimum.reduceat(cand, np.cumsum(counts) - counts)
        forbidden = best < values[v]
        return v[forbidden], best[forbidden]

    def ensure_batch(self, state: GlobalState, indices: np.ndarray, d: np.ndarray) -> np.ndarray:
        stats = state.stats
        stats.predicate_evals += len(indices)
        v, best = self.forbidden_batch(d, indices)
        if not len(v):
            return v
        changed = state.values.monotone_min_many(v, best)
        advanced = int(np.count_nonzero(changed))
        # Only a real advance touches the counter, so every store to it
        # exceeds the value it read: the scan's stop rule rests on that.
        if advanced:
            stats.advances += advanced
        stats.failed_replaces += len(v) - advanced
        v, best = v[changed], best[changed]
        d[v] = best
        # Wake the out-neighbours x with d(v) + w < d(x); d(x) is never
        # below the cell, so a stale one only wakes more.
        arcs, counts = _row_arcs(self.graph.offsets, v)
        w = self._arc_weights(self.graph, arcs)
        x = self.graph.targets[arcs]
        return x[np.minimum(np.repeat(best, counts), INF - w) + w < d[x]]

    def final_solution(self, state: GlobalState) -> np.ndarray:
        return state.values.to_numpy()


class BreadthFirstLevels(ShortestPaths):
    """Hop levels from a source; shortest paths with every weight one.

    A vertex is forbidden when an in-neighbour sits more than one level
    below it.  The check, the advancement and the vector operations are
    those of :class:`ShortestPaths` with every weight one: lowering v to
    level d pushes only the out-neighbours x with d + 1 < offered[x],
    each keyed by its candidate level d + 1.
    """

    _adjacency = staticmethod(CsrGraph.successor_lists)

    def push_initial(self, state: GlobalState, worklist) -> None:
        worklist.push_all((v, 0) for v in self._out[self.source])

    def _push_improved(self, offered: list, v: int, d: int, worklist) -> None:
        cand = d + 1
        items = []
        for x in self._out[v]:
            if cand < offered[x]:
                offered[x] = cand
                items.append((x, cand))
        if items:
            worklist.push_all(items)

    def _arc_weights(self, graph: CsrGraph, arcs: np.ndarray):
        return _ONE

    def witness(self, state: GlobalState, v: int):
        if v == self.source:
            return None
        cells = state.values.cells()
        best = INF
        for u in self._in[v]:
            d = cells[u]
            if d < best:
                best = d
        best = saturating_add(best, 1)
        return best if best < cells[v] else None
