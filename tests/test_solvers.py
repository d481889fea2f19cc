"""Solver strategies: fixed-point agreement, termination, error paths."""

import numpy as np
import pytest

from llp.baselines import gale_shapley_seq, topo_sort_seq
from llp.core import INF, GlobalState, InfeasibleError, Problem
from llp.instances import example_graph, generate
from llp.problems import adapter_for
from llp.solvers import (
    PARALLEL_STRATEGIES,
    SEQUENTIAL_STRATEGIES,
    STRATEGIES,
    SolverConfig,
    run_solver,
    scan_for_forbidden,
    solve,
    solve_parallel,
    solve_sequential,
)
from llp.worklists import RandomOrderBag

EXPECTED_EXAMPLE = np.array([0, 2, 5, 3], dtype=np.uint64)


@pytest.mark.parametrize("strategy", SEQUENTIAL_STRATEGIES)
def test_sequential_solves_example_graph(strategy):
    adapter = adapter_for("sssp", example_graph())
    assert np.array_equal(solve_sequential(adapter, strategy), EXPECTED_EXAMPLE)


@pytest.mark.parametrize("strategy", SEQUENTIAL_STRATEGIES)
def test_sequential_chain_distances_are_path_lengths(strategy):
    adapter = adapter_for("sssp", generate("chain:5", 0))
    got = solve_sequential(adapter, strategy)
    assert np.array_equal(got, np.array([0, 1, 2, 3, 4], dtype=np.uint64))


def test_sequential_reduction_sums_leaves():
    from llp.problems import TreeReduction

    got = solve_sequential(TreeReduction([1, 2, 3, 4]), "bag")
    assert got.tolist() == [10]


@pytest.mark.parametrize("strategy", PARALLEL_STRATEGIES)
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_parallel_solves_example_graph(strategy, threads):
    adapter = adapter_for("sssp", example_graph())
    got = solve_parallel(adapter, strategy, threads)
    assert np.array_equal(got, EXPECTED_EXAMPLE)


def test_parallel_stable_matching_matches_gale_shapley():
    inst = generate("sm:n=1000", 7)
    adapter = adapter_for("sm", inst)
    got = solve_parallel(adapter, "ptcf", 8)
    want = gale_shapley_seq(inst.mprefs, inst.wprefs)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_job_scheduling_matches_longest_path(strategy):
    inst = generate("dag:n=100,p=0.2", 3)
    adapter = adapter_for("job", inst)
    threads = 1 if strategy in SEQUENTIAL_STRATEGIES else 4
    got = solve(adapter, SolverConfig(strategy=strategy, threads=threads))
    want = topo_sort_seq(inst.graph, inst.durations)
    assert np.array_equal(got, want)


def test_two_item_knapsack_on_buckets():
    from llp.problems import Knapsack

    adapter = Knapsack([2, 3], [3, 4], capacity=5)
    got = solve_parallel(adapter, "buckets", 2)
    assert adapter.optimum(got) == 7  # exhaustive subsets: {}, {1}, {2}, {1,2}


def test_fixed_point_identical_across_all_strategies():
    # Determinism of the fixed point: one distinct output per instance.
    for problem, spec in [
        ("sssp", "randgraph:n=60,m=150,wmax=9"),
        ("sm", "sm:n=24"),
        ("knapsack", "knap:n=10,cap=40,wmax=15,vmax=30"),
    ]:
        inst = generate(spec, 11)
        outputs = set()
        for strategy in STRATEGIES:
            for threads in [1] if strategy in SEQUENTIAL_STRATEGIES else [1, 2, 4, 8]:
                got = solve(adapter_for(problem, inst), SolverConfig(strategy=strategy, threads=threads))
                outputs.add(got.tobytes())
        assert len(outputs) == 1, f"{problem} diverged across strategies"


def test_chunk_size_never_splits_correctness():
    # Any PTCF chunk boundary yields the same fixed point.
    inst = generate("randgraph:n=70,m=180,wmax=8", 6)
    outputs = set()
    for chunk_size in (1, 16, 256):
        got = solve(
            adapter_for("sssp", inst),
            SolverConfig(strategy="ptcf", threads=4, chunk_size=chunk_size),
        )
        outputs.add(got.tobytes())
    assert len(outputs) == 1


def test_bucket_parameters_never_affect_correctness():
    # Priority is advisory: reshuffling bucket assignment via delta and
    # bucket count converges to the same fixed point.
    inst = generate("randgraph:n=70,m=180,wmax=30", 8)
    outputs = set()
    for delta in (1, 3, 7, 64):
        for num_buckets in (4, 1024):
            got = solve(
                adapter_for("sssp", inst),
                SolverConfig(strategy="buckets", threads=4, delta=delta, num_buckets=num_buckets),
            )
            outputs.add(got.tobytes())
    assert len(outputs) == 1


def test_state_selection_chain_work_gap():
    # Naive full passes re-examine the whole chain per settled vertex;
    # the seeded bag touches each vertex a constant number of times.
    inst = generate("chain:256", 0)
    cyclic = run_solver(adapter_for("sssp", inst), SolverConfig(strategy="cyclic"))
    bag = run_solver(adapter_for("sssp", inst), SolverConfig(strategy="bag"))
    assert cyclic.stats.predicate_evals >= 50 * bag.stats.predicate_evals
    assert bag.stats.predicate_evals <= 10 * 256


WORK_GUARD_SPEC = "randgraph:n=1500,m=6000,wmax=100"


@pytest.mark.parametrize("problem,strategy,counter,per_vertex", [
    ("sssp", "ptwb", "predicate_evals", 12),
    ("sssp", "buckets", "advances", 1.05),
    ("bfs", "swb", "predicate_evals", 5),
    ("bfs", "ptcf", "predicate_evals", 5),
    ("bfs", "buckets", "predicate_evals", 5),
])
def test_work_per_vertex_stays_bounded(problem, strategy, counter, per_vertex):
    # Deterministic at one thread.  Pushing every out-neighbour instead of
    # only the improved ones, or keying pushes on the relaxer's distance
    # instead of the target's candidate, costs about 36 evaluations per
    # vertex on ptwb, 1.27 advances on buckets and 8 evaluations on BFS.
    inst = generate(WORK_GUARD_SPEC, 1)
    result = run_solver(adapter_for(problem, inst), SolverConfig(strategy=strategy, threads=1))
    count = getattr(result.stats, counter)
    assert count <= per_vertex * inst.graph.num_vertices, count


def test_no_forbidden_index_after_any_solve():
    inst = generate("randgraph:n=80,m=200,wmax=7", 2)
    for strategy in STRATEGIES:
        adapter = adapter_for("sssp", inst)
        threads = 1 if strategy in SEQUENTIAL_STRATEGIES else 4
        result = run_solver(adapter, SolverConfig(strategy=strategy, threads=threads))
        assert scan_for_forbidden(adapter, result.state) is None


def test_monotone_recording_under_randomized_schedules():
    # Single-thread randomized pop order; per-index value sequences must
    # move one way only.
    for problem, spec in [("sssp", "randgraph:n=30,m=80,wmax=9"), ("sm", "sm:n=12")]:
        inst = generate(spec, 4)
        for seed in range(5):
            adapter = adapter_for(problem, inst)
            regressions = []

            def recorder(index, old, new):
                if adapter.lattice == "min":
                    if new >= old:
                        regressions.append((index, old, new))
                elif new <= old:
                    regressions.append((index, old, new))

            run_solver(
                adapter,
                SolverConfig(strategy="bag"),
                recorder=recorder,
                worklist=RandomOrderBag(seed=seed),
            )
            assert not regressions


class _ExplodingProblem(Problem):
    """Advance always raises; exercises worker error propagation."""

    lattice = "min"
    size = 4

    def init_state(self, recorder=None):
        return GlobalState([INF] * 4)

    def push_initial(self, state, worklist):
        worklist.push_all((i, 0) for i in range(4))

    def is_forbidden(self, state, index):
        return True

    def advance(self, state, index, worklist):
        raise RuntimeError("boom")


@pytest.mark.parametrize("strategy", ["bag", "swb", "ptwb", "allpar"])
def test_worker_errors_propagate_first_error_wins(strategy):
    threads = 1 if strategy in SEQUENTIAL_STRATEGIES else 3
    with pytest.raises(RuntimeError, match="boom"):
        solve(_ExplodingProblem(), SolverConfig(strategy=strategy, threads=threads))


class _BoundedProblem(Problem):
    """One coordinate that must exceed its bound: always infeasible."""

    lattice = "max"
    size = 1
    bound = [2]

    def init_state(self, recorder=None):
        return GlobalState([0])

    def push_initial(self, state, worklist):
        worklist.push((0, 0))

    def is_forbidden(self, state, index):
        return state.values.load(0) < 5

    def advance(self, state, index, worklist):
        nxt = state.values.load(0) + 1
        if nxt > self.bound[0]:
            raise InfeasibleError("needs more than the bound allows")
        state.values.monotone_max(0, nxt)
        worklist.push((0, 0))
        return True


@pytest.mark.parametrize("strategy", ["cyclic", "bag", "swb"])
def test_infeasible_advance_surfaces_from_any_strategy(strategy):
    threads = 1 if strategy in SEQUENTIAL_STRATEGIES else 2
    with pytest.raises(InfeasibleError):
        solve(_BoundedProblem(), SolverConfig(strategy=strategy, threads=threads))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(strategy="warp")
    with pytest.raises(ValueError):
        SolverConfig(strategy="cyclic", threads=2)
    with pytest.raises(ValueError):
        SolverConfig(strategy="swb", threads=0)
    with pytest.raises(ValueError):
        SolverConfig(strategy="buckets", delta=0)
