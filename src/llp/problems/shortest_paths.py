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

    The scalar loops read flat views built once per direction: the CSR
    offsets and the arcs in CSR order as plain lists, so v's in-arcs are
    ``_in[_in_offs[v] : _in_offs[v + 1]]``.  Each SSSP arc is a (target,
    weight) pair; a BFS arc is its target.

    ``offer_batch`` is the check in push form: the candidates d(v) + w
    that changed vertices offer their out-neighbours x below d(x), which
    ``allpar`` folds instead of re-reading in-arcs.  ``forbidden_batch``
    certifies a solve in one pass over every out-arc: every in-arc is
    some vertex's out-arc, so the targets that an arc beats are exactly
    the vertices that the scalar check finds forbidden, the source aside.
    Neither reads the scalar views or the reversed graph.
    """

    lattice = "min"

    def __init__(self, graph: CsrGraph, source: int = 0):
        if not 0 <= source < graph.num_vertices:
            raise ValueError("source out of range")
        self.graph = graph
        self.source = source
        self.size = graph.num_vertices
        rev = graph.reversed()
        self._out_offs = graph.offsets.tolist()
        self._out = self._scalar_arcs(graph)
        self._in_offs = rev.offsets.tolist()
        self._in = self._scalar_arcs(rev)

    def _scalar_arcs(self, graph: CsrGraph) -> list:
        # Plain-list arcs, (target, weight) pairs: these loops dominate solve time.
        return list(zip(graph._target_objects(), graph.weights.tolist()))

    def initial_values(self) -> np.ndarray:
        values = np.full(self.size, INF, dtype=np.uint64)
        values[self.source] = 0
        return values

    def init_state(self, recorder=None) -> GlobalState:
        return GlobalState(self.initial_values(), recorder=recorder)

    def push_initial(self, state: GlobalState, worklist) -> None:
        offsets, s = self.graph.offsets, self.source
        worklist.push_all((v, 0) for v in self.graph.targets[offsets[s] : offsets[s + 1]].tolist())

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
        offs = self._out_offs
        for x, w in self._out[offs[v] : offs[v + 1]]:
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
        offs = self._in_offs
        for u, w in self._in[offs[v] : offs[v + 1]]:
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

    def _arc_weights(self, arcs):
        return self.graph.weights[arcs]

    def _offers(self, values: np.ndarray, arcs, counts):
        """Targets and candidates of out-arcs ``arcs``, ``counts[k]`` from a vertex at ``values[k]``."""
        w = self._arc_weights(arcs)
        cand = np.repeat(values, counts)
        np.minimum(cand, INF - w, out=cand)  # saturating, so exact at INF
        cand += w
        return self.graph.targets[arcs], cand

    def forbidden_batch(self, values: np.ndarray) -> np.ndarray:
        x, cand = self._offers(values, slice(None), np.diff(self.graph.offsets))
        forbidden = np.zeros(self.size, dtype=bool)
        forbidden[x[cand < values[x]]] = True
        forbidden[self.source] = False
        return np.flatnonzero(forbidden)

    def offer_batch(self, values: np.ndarray, changed: np.ndarray):
        arcs, counts = _row_arcs(self.graph.offsets, changed)
        x, cand = self._offers(values[changed], arcs, counts)
        beats = cand < values[x]
        return x[beats], cand[beats]

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

    def _scalar_arcs(self, graph: CsrGraph) -> list:
        return graph._target_objects()

    def _push_improved(self, offered: list, v: int, d: int, worklist) -> None:
        cand = d + 1
        items = []
        offs = self._out_offs
        for x in self._out[offs[v] : offs[v + 1]]:
            if cand < offered[x]:
                offered[x] = cand
                items.append((x, cand))
        if items:
            worklist.push_all(items)

    def _arc_weights(self, arcs):
        return _ONE

    def witness(self, state: GlobalState, v: int):
        if v == self.source:
            return None
        cells = state.values.cells()
        best = INF
        offs = self._in_offs
        for u in self._in[offs[v] : offs[v + 1]]:
            d = cells[u]
            if d < best:
                best = d
        best = saturating_add(best, 1)
        return best if best < cells[v] else None
