"""Stable matching via monotone proposal indices (max-lattice)."""

from __future__ import annotations

import numpy as np

from ..core import GlobalState, InfeasibleError, Problem


class StableMatching(Problem):
    """Each man's coordinate is his proposal index into his own list.

    Man m is forbidden when the woman he currently targets strictly
    prefers another man who also targets her.  Advancing bumps the
    index by one through a conditional replace (a concurrent bump makes
    the attempt a no-op) and re-enqueues every man now targeting the
    newly targeted woman, including m himself.  Indices are capped by
    the preference-list length; exceeding the cap is infeasible, which
    cannot happen on balanced complete instances.

    The forbidden check deliberately stays the O(n) competitor scan;
    woman-side comparisons use precomputed inverse rank tables so each
    comparison is O(1).
    """

    lattice = "max"

    def __init__(self, mprefs, wprefs):
        n = len(mprefs)
        if len(wprefs) != n:
            raise ValueError("unbalanced instance")
        if any(len(lst) != n for lst in (*mprefs, *wprefs)):
            raise ValueError("preference lists must be complete")
        self.size = n
        self.mprefs = [list(lst) for lst in mprefs]
        self.wrank = [[0] * n for _ in range(n)]
        for w, lst in enumerate(wprefs):
            for rank, m in enumerate(lst):
                self.wrank[w][m] = rank
        self.bound = [n - 1] * n

    def init_state(self, recorder=None) -> GlobalState:
        return GlobalState([0] * self.size, recorder=recorder)

    def push_initial(self, state: GlobalState, worklist) -> None:
        worklist.push_all((m, 0) for m in range(self.size))

    def witness(self, state: GlobalState, m: int):
        """m's index, when the woman he proposes to there holds a better proposal.

        Once a woman holds a proposal she prefers to m, she holds one at
        least that good forever, so the verdict stays true while m's own
        index is unchanged.
        """
        cells = state.values.cells()
        index = cells[m]
        mprefs = self.mprefs
        woman = mprefs[m][index]
        ranks = self.wrank[woman]
        my_rank = ranks[m]
        for rival in range(self.size):
            if rival != m and mprefs[rival][cells[rival]] == woman and ranks[rival] < my_rank:
                return index
        return None

    def apply(self, state: GlobalState, m: int, current: int, worklist) -> bool:
        """Bump m one step iff his index still equals ``current``.

        The conditional replace is what makes concurrent duplicate
        checks safe: an advance justified by a check at index k must not
        fire once m has already moved past k, so a lost race is a no-op
        (the winner's pushes cover the re-check).
        """
        values = state.values
        nxt = current + 1
        if nxt > self.bound[m]:
            raise InfeasibleError(f"man {m} exhausted his preference list")
        if not values.compare_exchange(m, current, nxt).updated:
            return False
        woman = self.mprefs[m][nxt]
        cells = values.cells()
        mprefs = self.mprefs
        affected = []
        for x in range(self.size):
            k = cells[x]
            if mprefs[x][k] == woman:
                affected.append((x, k))
        worklist.push_all(affected)
        return True

    def final_solution(self, state: GlobalState) -> np.ndarray:
        return state.values.to_numpy()

    def partners(self, solution) -> list:
        """Woman matched to each man under the given proposal indices."""
        return [self.mprefs[m][int(k)] for m, k in enumerate(solution)]
