"""Precedence-constrained job completion times (max-lattice, memoized)."""

from __future__ import annotations

import numpy as np

from ..core import AtomicU64Array, GlobalState, MalformedInstanceError, Problem, saturating_add
from ..instances import CsrGraph


class JobScheduling(Problem):
    """Earliest completion times over a prerequisite DAG.

    A job is ready once every prerequisite is fixed, tracked by an
    atomic countdown per job.  A ready job j is forbidden while
    G[j] < max_from_parents[j] + t_j; advancing raises it to that bound,
    fixes the job (exactly one concurrent advancer wins), publishes the
    completion to each successor's parent-maximum cache, and enqueues
    successors whose countdown reaches zero, at a priority equal to
    their own predicted completion.

    Readiness implies the parent maximum is final, so a fixed job can
    never be forbidden again; solvers may skip fixed indices
    (``memoizes``).  A cyclic instance leaves jobs unfixed, which
    ``final_solution`` reports as a malformed instance.
    """

    lattice = "max"
    memoizes = True

    def __init__(self, graph: CsrGraph, durations):
        if len(durations) != graph.num_vertices:
            raise ValueError("durations must match the vertex count")
        self.size = graph.num_vertices
        self.durations = [int(t) for t in durations]
        self._succ = graph.successor_lists()
        self._n_pred = graph.in_degrees()

    def init_state(self, recorder=None) -> GlobalState:
        extra = {
            "parent_max": AtomicU64Array([0] * self.size),
            "prereqs": AtomicU64Array(self._n_pred),
        }
        return GlobalState([0] * self.size, extra=extra, recorder=recorder)

    def push_initial(self, state: GlobalState, worklist) -> None:
        worklist.push_all(
            (j, self.durations[j]) for j in range(self.size) if self._n_pred[j] == 0
        )

    def witness(self, state: GlobalState, j: int):
        """j's completion bound, parent maximum plus t_j, once j is ready and below it."""
        if state.extra["prereqs"].load(j) != 0:
            return None  # not ready yet
        target = saturating_add(state.extra["parent_max"].load(j), self.durations[j])
        return target if state.values.load(j) < target else None

    def apply(self, state: GlobalState, j: int, target: int, worklist) -> bool:
        parent_max = state.extra["parent_max"]
        prereqs = state.extra["prereqs"]
        rose = state.values.monotone_max(j, target).updated
        if state.mark_fixed(j):
            completion = state.values.load(j)
            ready = []
            for child in self._succ[j]:
                parent_max.monotone_max(child, completion)
                if prereqs.fetch_sub(child, 1) == 1:
                    prio = saturating_add(parent_max.load(child), self.durations[child])
                    ready.append((child, prio))
            if ready:
                worklist.push_all(ready)
            return True
        return rose

    def final_solution(self, state: GlobalState) -> np.ndarray:
        if state.fixed.count() != self.size:
            raise MalformedInstanceError(
                "unfixed jobs remain; the prerequisite graph is cyclic"
            )
        return state.values.to_numpy()
