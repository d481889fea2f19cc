"""Associative reduction over a complete binary combine tree."""

from __future__ import annotations

import numpy as np

from ..core import AtomicU64Array, GlobalState, Problem, saturating_add


class TreeReduction(Problem):
    """Sums the inputs by combining sibling pairs bottom-up.

    The tree is laid out heap-style (children of i are 2i+1 and 2i+2),
    with inputs preloaded into the leaf level, padded to a power of two
    with the additive identity 0.  An internal node is forbidden once
    both children have published (its countdown reached zero) and it has
    not combined yet; advancing writes the children's sum, fixes the
    node, and releases the parent when its countdown drains.  Nodes
    combine exactly once, so fixed nodes are skipped (``memoizes``).
    """

    lattice = "max"
    memoizes = True

    def __init__(self, values):
        values = [int(v) for v in values]
        if not values:
            raise ValueError("reduction needs at least one input")
        leaves = 1
        while leaves < len(values):
            leaves *= 2
        self.num_leaves = leaves
        self.size = 2 * leaves - 1
        self._first_leaf = leaves - 1
        self._leaf_values = values + [0] * (leaves - len(values))

    def _children_pending(self, node: int) -> int:
        # Number of children that are internal nodes (leaves publish at init).
        first_leaf = self._first_leaf
        return sum(1 for c in (2 * node + 1, 2 * node + 2) if c < first_leaf)

    def init_state(self, recorder=None) -> GlobalState:
        first_leaf = self._first_leaf
        values = [0] * self.size
        for i, v in enumerate(self._leaf_values):
            values[first_leaf + i] = v
        pending = [self._children_pending(node) for node in range(first_leaf)]
        pending += [0] * self.num_leaves
        state = GlobalState(values, extra={"pending": AtomicU64Array(pending)}, recorder=recorder)
        for leaf in range(first_leaf, self.size):
            state.mark_fixed(leaf)
        return state

    def push_initial(self, state: GlobalState, worklist) -> None:
        pending = state.extra["pending"]
        worklist.push_all(
            (node, 0) for node in range(self._first_leaf) if pending.load(node) == 0
        )

    def witness(self, state: GlobalState, node: int):
        """The children's sum, once both have published and ``node`` has not combined."""
        if node >= self._first_leaf:
            return None  # leaves are preloaded
        if state.fixed.is_fixed(node) or state.extra["pending"].load(node) != 0:
            return None
        load = state.values.load
        return saturating_add(load(2 * node + 1), load(2 * node + 2))

    def apply(self, state: GlobalState, node: int, total: int, worklist) -> bool:
        state.values.monotone_max(node, total)
        if state.mark_fixed(node):
            if node != 0:
                parent = (node - 1) // 2
                if state.extra["pending"].fetch_sub(parent, 1) == 1:
                    worklist.push((parent, 0))
            return True
        return False

    def final_solution(self, state: GlobalState) -> np.ndarray:
        return np.array([state.values.load(0)], dtype=np.uint64)
