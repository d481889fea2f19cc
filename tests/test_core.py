"""Core state: monotone cells, fixed bits, ensure composition."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llp.core import (
    INF,
    AtomicU64Array,
    FixedVector,
    GlobalState,
    Problem,
    saturating_add,
)
from llp.instances import example_graph
from llp.problems import adapter_for
from llp.solvers import solve
from llp.worklists import SeqBag


def test_monotone_update_improves_from_infinity():
    cells = AtomicU64Array([INF])
    res = cells.monotone_min(0, 3)
    assert res.updated and res.value == INF
    assert cells.load(0) == 3


def test_monotone_update_rejects_worse_candidate():
    cells = AtomicU64Array([3])
    res = cells.monotone_min(0, 8)
    assert not res.updated and res.value == 3
    assert cells.load(0) == 3


def test_monotone_update_equal_is_unchanged():
    # Strict in both directions: an equal candidate changes nothing.
    cells = AtomicU64Array([5])
    res = cells.monotone_min(0, 5)
    assert not res.updated and res.value == 5
    res = cells.monotone_max(0, 5)
    assert not res.updated and res.value == 5


def test_monotone_update_max_direction():
    cells = AtomicU64Array([5])
    assert cells.monotone_max(0, 9).updated
    res = cells.monotone_max(0, 2)
    assert not res.updated and res.value == 9
    assert cells.load(0) == 9


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_monotone_min_never_regresses(candidates):
    cells = AtomicU64Array([INF])
    seen = [INF]
    for cand in candidates:
        cells.monotone_min(0, cand)
        seen.append(cells.load(0))
    assert all(b <= a for a, b in zip(seen, seen[1:]))
    assert cells.load(0) == min([INF] + candidates)


def test_cells_from_a_uint64_array_are_unrecorded_python_ints():
    # allpar builds the cells once from its final array: the hot loops
    # read plain ints, and building them is no change the recorder sees.
    changes = []
    values = np.array([0, 5, INF], dtype=np.uint64)
    cells = AtomicU64Array(values, recorder=lambda i, old, new: changes.append(i))
    assert cells.snapshot() == [0, 5, INF]
    assert all(type(v) is int for v in cells.cells())
    assert changes == []
    values[0] = 9
    assert cells.load(0) == 0


@pytest.mark.parametrize("value", [-1, 2**64])
def test_initial_value_outside_u64_raises(value):
    # Wrapping would store INF for -1 and 0 for 2**64.
    with pytest.raises(OverflowError):
        AtomicU64Array([value])


def test_to_numpy_copies_every_cell():
    cells = AtomicU64Array([0, 7, INF])
    values = cells.to_numpy()
    assert values.dtype == np.uint64 and values.tolist() == [0, 7, INF]
    values[1] = 3
    assert cells.load(1) == 7


def test_saturating_add_caps_at_infinity():
    assert saturating_add(INF, 7) == INF
    assert saturating_add(INF - 1, 1) == INF
    assert saturating_add(2, 3) == 5


def test_fetch_ops_return_prior_value():
    cells = AtomicU64Array([0b0101, 10])
    assert cells.fetch_or(0, 0b0010) == 0b0101
    assert cells.load(0) == 0b0111
    assert cells.fetch_sub(1, 1) == 10 and cells.load(1) == 9


def test_compare_exchange_only_fires_on_expected():
    cells = AtomicU64Array([7])
    assert cells.compare_exchange(0, 7, 8).updated
    res = cells.compare_exchange(0, 7, 9)
    assert not res.updated and res.value == 8


def test_mark_fixed_first_call_only():
    fixed = FixedVector(4)
    assert fixed.set_fixed(2) is True
    assert fixed.set_fixed(2) is False
    assert fixed.is_fixed(2) and not fixed.is_fixed(1)
    assert fixed.count() == 1


def test_mark_fixed_exactly_one_concurrent_winner():
    # k threads race on each index: exactly one True return per index.
    fixed = FixedVector(64)
    wins = [0] * 64
    lock = threading.Lock()

    def worker():
        for i in range(64):
            if fixed.set_fixed(i):
                with lock:
                    wins[i] += 1

    pool = [threading.Thread(target=worker) for _ in range(8)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert wins == [1] * 64


def test_global_state_work_size_can_differ_from_cells():
    state = GlobalState([0, 0, 0, 0, 0, 0], work_size=2)
    assert len(state.values) == 6
    assert len(state.fixed) == 2
    assert state.mark_fixed(1) and not state.mark_fixed(1)


def test_ensure_advances_forbidden_vertex_and_pushes_neighbours():
    # Worked example: from [0, inf, inf, inf], vertex 1 relaxes to 2 via
    # the weight-2 edge.  Of its neighbours only v2 improves (2 + 3 < inf);
    # the source already holds 0, so it is not queued.
    adapter = adapter_for("sssp", example_graph())
    state = adapter.init_state()
    bag = SeqBag()
    assert adapter.ensure(state, 1, bag) is True
    assert state.values.load(1) == 2
    assert state.values.load(0) == 0
    assert set(iter(bag.pop, None)) == {(2, 2 + 3)}  # (v2, d(v1) + w(1, 2))
    assert state.stats.predicate_evals == 1
    assert state.stats.advances == 1


def test_ensure_source_never_forbidden():
    adapter = adapter_for("sssp", example_graph())
    state = adapter.init_state()
    assert adapter.ensure(state, 0, SeqBag()) is False
    assert state.values.load(0) == 0
    assert state.stats.advances == 0


def test_ensure_fixed_point_has_no_forbidden_index():
    adapter = adapter_for("sssp", example_graph())
    state = GlobalState([0, 2, 5, 3])
    for v in range(4):
        assert adapter.ensure(state, v, SeqBag()) is False
    assert state.values.snapshot() == [0, 2, 5, 3]


class _NoCheck(Problem):
    """Defines neither ``witness`` nor ``is_forbidden``."""

    size = 1

    def init_state(self, recorder=None):
        return GlobalState([0], recorder=recorder)

    def push_initial(self, state, worklist):
        worklist.push((0, 0))

    def final_solution(self, state):
        return state.values.to_numpy()


class _NoAdvancement(_NoCheck):
    """Defines ``witness`` but neither ``apply`` nor ``advance``."""

    def witness(self, state, index):
        return 1 if state.values.load(index) < 1 else None


@pytest.mark.parametrize("problem_class", [_NoCheck, _NoAdvancement])
def test_a_problem_without_its_check_or_advancement_is_not_implemented(problem_class):
    problem = problem_class()
    with pytest.raises(NotImplementedError, match=problem_class.__name__):
        problem.ensure(problem.init_state(), 0, SeqBag())
    with pytest.raises(NotImplementedError):
        solve(problem, strategy="bag")


def test_racing_monotone_writers_keep_best_value():
    # Two writers race candidates 3 and 8 against one cell: the stale 8
    # must never survive, in any interleaving.
    trials = 2000
    cells = AtomicU64Array([INF] * trials)
    barrier = threading.Barrier(2)

    def writer(candidate, order):
        barrier.wait()
        for i in order:
            cells.monotone_min(i, candidate)

    a = threading.Thread(target=writer, args=(3, range(trials)))
    b = threading.Thread(target=writer, args=(8, range(trials - 1, -1, -1)))
    a.start(), b.start(), a.join(), b.join()
    assert all(cells.load(i) == 3 for i in range(trials))
