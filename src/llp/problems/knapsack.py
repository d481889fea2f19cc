"""0/1 knapsack as a capacity-tiled dynamic-programming wavefront."""

from __future__ import annotations

import numpy as np

from ..core import GlobalState, Problem


class Knapsack(Problem):
    """DP cells rise monotonically toward the classic recurrence.

    The table has rows 0..n (row 0 pinned at zero) over capacities
    0..C.  Work items are *tiles*: row k crossed with a contiguous
    capacity strip.  A tile is forbidden while any of its cells is below
    max(G[k-1][c], v_k + G[k-1][c-w_k]) evaluated against the current
    row k-1; advancing raises each cell through a monotone max and
    enqueues the affected tiles of row k+1 (same strip for the skip
    path, shifted by w_{k+1} for the take path).

    All tiles are seeded initially: a cell whose only support is taking
    item k on an otherwise empty knapsack gets no push from row k-1
    (those cells never change), so purely change-driven scheduling would
    strand it.  Candidates computed from a partially-risen row k-1 are
    always lower bounds of the true DP value, so early advances are safe
    and the fixed point is the exact table.

    Each tile is keyed by its item row k.  A tile of row k reads only
    row k-1, so a policy that pops lower keys first finishes row k-1
    before it reaches row k and advances each tile once, from its final
    input row.  The key is only a hint: any order reaches the same table.

    Row k-1's advance pushes row k's tiles while their seeds are still
    waiting.  The ``bag`` policy holds each waiting item once, so it
    absorbs that push and checks each tile once; a policy that queues
    the copy checks most tiles twice.
    """

    lattice = "max"

    def __init__(self, weights, values, capacity: int, tile_width: int = 256):
        if len(weights) != len(values):
            raise ValueError("weights and values must pair up")
        if capacity < 0 or tile_width < 1:
            raise ValueError("capacity must be >= 0 and tile_width >= 1")
        self.num_items = len(weights)
        self.capacity = capacity
        self.tile_width = tile_width
        self.weights = [int(w) for w in weights]
        self.values = [int(v) for v in values]
        if min(self.weights + self.values, default=0) < 0:
            raise ValueError("weights and values must be >= 0")
        self.cols = capacity + 1
        self.strips = max(1, (self.cols + tile_width - 1) // tile_width)
        self.size = self.num_items * self.strips

    def tile_of(self, item_row: int, strip: int) -> int:
        """Work index of the tile for 1-based row ``item_row``."""
        return (item_row - 1) * self.strips + strip

    def _tile_span(self, tile: int):
        k = tile // self.strips + 1
        strip = tile % self.strips
        lo = strip * self.tile_width
        hi = min(self.cols, lo + self.tile_width)
        return k, lo, hi

    def init_state(self, recorder=None) -> GlobalState:
        cells = [0] * ((self.num_items + 1) * self.cols)
        return GlobalState(cells, work_size=self.size, recorder=recorder)

    def push_initial(self, state: GlobalState, worklist) -> None:
        worklist.push_all((tile, tile // self.strips + 1) for tile in range(self.size))

    def witness(self, state: GlobalState, tile: int):
        """The first column of ``tile`` below its target, or None when there is none."""
        k, lo, hi = self._tile_span(tile)
        cells = state.values.cells()
        row = k * self.cols
        prev = row - self.cols
        w_k = self.weights[k - 1]
        v_k = self.values[k - 1]
        for c in range(lo, hi):
            target = cells[prev + c]
            if c >= w_k:
                take = v_k + cells[prev + c - w_k]
                if take > target:
                    target = take
            if cells[row + c] < target:
                return c
        return None

    def apply(self, state: GlobalState, tile: int, first: int, worklist) -> bool:
        # The columns before ``first`` met their targets when checked; a
        # later rise of row k-1 pushes this tile again.
        k, _lo, hi = self._tile_span(tile)
        values = state.values
        cells = values.cells()
        row = k * self.cols
        prev = row - self.cols
        w_k = self.weights[k - 1]
        v_k = self.values[k - 1]
        changed_cols = []
        for c in range(first, hi):
            target = cells[prev + c]
            if c >= w_k:
                take = v_k + cells[prev + c - w_k]
                if take > target:
                    target = take
            if target > cells[row + c] and values.monotone_max(row + c, target).updated:
                changed_cols.append(c)
        if not changed_cols:
            return False
        if k < self.num_items:
            w_next = self.weights[k]
            width = self.tile_width
            cols = self.cols
            strips = {c // width for c in changed_cols}
            strips |= {(c + w_next) // width for c in changed_cols if c + w_next < cols}
            worklist.push_all((self.tile_of(k + 1, s), k + 1) for s in sorted(strips))
        return True

    def final_solution(self, state: GlobalState) -> np.ndarray:
        cells = state.values.cells()
        row = self.num_items * self.cols
        return np.array(cells[row : row + self.cols], dtype=np.uint64)

    def optimum(self, solution) -> int:
        return int(solution[-1])
