"""Solver strategies: fixed-point agreement, termination, error paths."""

import sys
import threading

import numpy as np
import pytest

from llp.baselines import dijkstra_heap, gale_shapley_seq, topo_sort_seq
from llp.core import INF, GlobalState, IncompleteSolveError, InfeasibleError, Problem
from llp.instances import CsrGraph, example_graph, generate
from llp.problems import BreadthFirstLevels, ShortestPaths, adapter_for
from llp.solvers import (
    PARALLEL_STRATEGIES,
    SEQUENTIAL_STRATEGIES,
    STRATEGIES,
    SolverConfig,
    _finish,
    run_solver,
    scan_for_forbidden,
    solve,
)
from llp.worklists import BucketQueue, ChunkedFifo, RandomOrderBag, SeqBag, _ObimBins

EXPECTED_EXAMPLE = np.array([0, 2, 5, 3], dtype=np.uint64)


@pytest.mark.parametrize("strategy", SEQUENTIAL_STRATEGIES)
def test_sequential_solves_example_graph(strategy):
    adapter = adapter_for("sssp", example_graph())
    assert np.array_equal(solve(adapter, strategy=strategy), EXPECTED_EXAMPLE)


@pytest.mark.parametrize("strategy", SEQUENTIAL_STRATEGIES)
def test_sequential_chain_distances_are_path_lengths(strategy):
    adapter = adapter_for("sssp", generate("chain:5", 0))
    got = solve(adapter, strategy=strategy)
    assert np.array_equal(got, np.array([0, 1, 2, 3, 4], dtype=np.uint64))


def test_sequential_reduction_sums_leaves():
    from llp.problems import TreeReduction

    got = solve(TreeReduction([1, 2, 3, 4]), strategy="bag")
    assert got.tolist() == [10]


@pytest.mark.parametrize("strategy", PARALLEL_STRATEGIES)
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_parallel_solves_example_graph(strategy, threads):
    adapter = adapter_for("sssp", example_graph())
    got = solve(adapter, strategy=strategy, threads=threads)
    assert np.array_equal(got, EXPECTED_EXAMPLE)


def test_parallel_stable_matching_matches_gale_shapley():
    inst = generate("sm:n=1000", 7)
    adapter = adapter_for("sm", inst)
    got = solve(adapter, strategy="ptcf", threads=8)
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
    got = solve(adapter, strategy="buckets", threads=2)
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
        got = run_solver(
            adapter_for("sssp", inst),
            SolverConfig(strategy="ptcf", threads=4),
            worklist=ChunkedFifo(4, chunk_size=chunk_size),
        ).solution
        outputs.add(got.tobytes())
    assert len(outputs) == 1


def test_bucket_parameters_never_affect_correctness():
    # Priority is advisory: reshuffling bucket assignment via delta and
    # bucket count converges to the same fixed point.
    inst = generate("randgraph:n=70,m=180,wmax=30", 8)
    outputs = set()
    for delta in (1, 3, 7, 64):
        for num_buckets in (4, 1024):
            got = run_solver(
                adapter_for("sssp", inst),
                SolverConfig(strategy="buckets", threads=4),
                worklist=BucketQueue(4, num_buckets=num_buckets, delta=delta),
            ).solution
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


@pytest.mark.parametrize("strategy", ["cyclic", "allpar"])
def test_scan_stops_after_first_pass_that_finds_nothing(strategy):
    # The source is the chain's last vertex, which has no out-arc, so the
    # initial state is already the fixed point: one pass proves it.
    # cyclic's pass checks each vertex once.  allpar's vector step starts
    # from the offers of the source, the only vertex not at INF, and a
    # source without out-arcs offers nothing, so that pass's frontier is
    # empty.
    inst = generate("chain:50", 0)
    adapter = ShortestPaths(inst.graph, source=49)
    result = run_solver(adapter, SolverConfig(strategy=strategy, threads=1))
    assert result.stats.predicate_evals == (adapter.size if strategy == "cyclic" else 0)
    assert result.stats.passes == 1
    assert result.stats.advances == 0


@pytest.mark.parametrize("strategy,passes", [("cyclic", 8), ("allpar", 8), ("bag", 0), ("ptwb", 0)])
def test_stats_count_scan_passes(strategy, passes):
    # Descending cyclic passes settle one vertex of chain:8 each and end
    # on a quiet eighth; allpar's batches advance the frontier one hop a
    # pass, and the last vertex, which has no out-arc, wakes nothing, so
    # an eighth pass checks an empty frontier.  Popping strategies make
    # no passes.
    result = run_solver(adapter_for("sssp", generate("chain:8", 0)), SolverConfig(strategy=strategy))
    assert result.stats.passes == passes


class _StuckPaths(ShortestPaths):
    """Reports vertex 1 forbidden on every check but never advances it.

    The vector path never offers vertex 1 anything, which leaves it
    forbidden in the same way.
    """

    def ensure(self, state, v, worklist):
        if v != 1:
            return super().ensure(state, v, worklist)
        state.stats.predicate_evals += 1
        return True

    def offer_batch(self, values, changed):
        targets, candidates = super().offer_batch(values, changed)
        keep = targets != 1
        return targets[keep], candidates[keep]


def _incomplete_index(adapter, config):
    """Solve on a daemon thread; the index of the ``IncompleteSolveError`` it must raise."""
    outcome = []

    def run():
        try:
            outcome.append(solve(adapter, config))
        except Exception as exc:  # reported by the test, not by the thread
            outcome.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=20)
    assert not worker.is_alive(), "the solve never ended"
    assert len(outcome) == 1 and isinstance(outcome[0], IncompleteSolveError), outcome
    return outcome[0].index


@pytest.mark.parametrize("strategy,threads", [("cyclic", 1), ("allpar", 1), ("allpar", 3)])
def test_scan_ends_when_a_check_never_clears(strategy, threads):
    # A pass that advances nothing would repeat forever; the scan stops
    # after it and the post-solve scan reports the stuck vertex.
    adapter = _StuckPaths(generate("chain:8", 0).graph, source=0)
    assert _incomplete_index(adapter, SolverConfig(strategy=strategy, threads=threads)) == 1


class _UnseededPaths(ShortestPaths):
    """Negative control: seeds nothing, although the source's out-neighbours are forbidden."""

    def push_initial(self, state, worklist):
        pass


@pytest.mark.parametrize("threads", [1, 2])
def test_only_popping_strategies_need_the_seeds(threads):
    # A popping solve with no seed starts quiescent; the post-solve scan
    # checks every vertex and reports the first forbidden one: the least
    # out-neighbour of the source.  allpar's vector step starts from the
    # offers of the start vector instead, and never reads the seeds.
    inst = generate("randgraph:n=300,m=900,wmax=20", 4)
    adapter = _UnseededPaths(inst.graph, inst.source)
    offsets, s = inst.graph.offsets, inst.source
    firsts = sorted(x for x in inst.graph.targets[offsets[s] : offsets[s + 1]].tolist() if x != s)
    assert firsts, "the source needs an out-arc"
    for strategy in ("bag", "ptwb") if threads == 1 else ("ptwb",):
        got = _incomplete_index(adapter, SolverConfig(strategy=strategy, threads=threads))
        assert got == firsts[0], strategy
    got = solve(adapter, SolverConfig(strategy="allpar", threads=threads))
    assert np.array_equal(got, dijkstra_heap(inst.graph, inst.source))


class _UnofferedPaths(ShortestPaths):
    """Negative control: offers nothing, so allpar advances nothing."""

    def offer_batch(self, values, changed):
        return changed[:0], values[:0]


@pytest.mark.parametrize("threads", [1, 2])
def test_allpar_that_offers_nothing_is_caught(threads):
    # With no offer pass 1's frontier is empty and the scan stops.  The
    # certification checks every out-arc itself, not through offer_batch,
    # and reports the first vertex forbidden at the start, as the scalar
    # scan of init_state does.
    inst = generate("randgraph:n=300,m=900,wmax=20", 4)
    adapter = _UnofferedPaths(inst.graph, inst.source)
    want = scan_for_forbidden(adapter, adapter.init_state())
    assert want is not None
    assert _incomplete_index(adapter, SolverConfig(strategy="allpar", threads=threads)) == want


class _ScalarCertifiedPaths(ShortestPaths):
    forbidden_batch = None


@pytest.mark.parametrize("adapter_class", [ShortestPaths, BreadthFirstLevels, _ScalarCertifiedPaths])
def test_certification_reports_the_first_forbidden_index(adapter_class):
    # Vertices 2, 4 and 5 are forbidden; 3 sits above its unreached
    # in-neighbour, and vertex 6 has no in-arc.
    graph = CsrGraph.from_edges(7, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 4, 2), (4, 5, 1), (3, 5, 1)])
    adapter = adapter_class(graph, source=0)
    state = GlobalState([0, 1, INF, 1, 9, INF, INF])
    assert scan_for_forbidden(adapter, state) == 2
    with pytest.raises(IncompleteSolveError) as raised:
        _finish(adapter, state)
    assert raised.value.index == 2


class _ThreadRecordingPaths(ShortestPaths):
    """Records the thread of every ``ensure`` and ``offer_batch`` call in ``callers``."""

    def ensure(self, state, v, worklist):
        self.callers.add(threading.get_ident())
        return super().ensure(state, v, worklist)

    def offer_batch(self, values, changed):
        self.callers.add(threading.get_ident())
        return super().offer_batch(values, changed)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_one_thread_runs_on_the_calling_thread(strategy):
    inst = generate("randgraph:n=60,m=150,wmax=9", 3)
    adapter = _ThreadRecordingPaths(inst.graph, inst.source)
    adapter.callers = set()
    got = solve(adapter, strategy=strategy, threads=1)
    assert np.array_equal(got, solve(adapter_for("sssp", inst), strategy="bag"))
    assert adapter.callers == {threading.get_ident()}


WORK_GUARD_SPEC = "randgraph:n=1500,m=6000,wmax=100"


@pytest.mark.parametrize("problem,strategy,counter,per_vertex", [
    ("sssp", "ptwb", "predicate_evals", 12),
    ("sssp", "ptwb", "advances", 1.05),
    ("sssp", "buckets", "advances", 1.05),
    ("sssp", "bag", "advances", 1.05),
    ("sssp", "bag", "predicate_evals", 1.05),
    ("sssp", "ptwb", "predicate_evals", 1.05),
    ("sssp", "buckets", "predicate_evals", 1.05),
    ("sssp", "swb", "predicate_evals", 2.1),
    ("sssp", "ptcf", "predicate_evals", 2.1),
    ("bfs", "bag", "predicate_evals", 1.05),
    ("bfs", "swb", "predicate_evals", 1.05),
    ("bfs", "ptcf", "predicate_evals", 1.05),
    ("bfs", "ptwb", "predicate_evals", 1.05),
    ("bfs", "buckets", "predicate_evals", 1.05),
    ("sssp", "bag", "stale_drops", 1.0),
    ("sssp", "ptwb", "stale_drops", 1.0),
    ("bfs", "ptwb", "stale_drops", 0.05),
    ("bfs", "swb", "predicate_evals", 5),
    ("bfs", "ptcf", "predicate_evals", 5),
    ("bfs", "buckets", "predicate_evals", 5),
    ("bfs", "bag", "predicate_evals", 5),
    ("bfs", "ptwb", "predicate_evals", 5),
    ("bfs", "allpar", "predicate_evals", 5),
    ("bfs", "allpar", "predicate_evals", 1.05),
    ("bfs", "allpar", "advances", 1.0),
    ("sssp", "allpar", "predicate_evals", 3.2),
])
def test_work_per_vertex_stays_bounded(problem, strategy, counter, per_vertex):
    # Deterministic at one thread.  Pushing every out-neighbour instead of
    # only the improved ones, or keying pushes on the relaxer's distance
    # instead of the target's candidate, costs about 36 evaluations per
    # vertex on ptwb, 1.27 advances on buckets and 8 evaluations on BFS.
    # A bag that ignores priorities costs 5.5 SSSP advances and 8.6 BFS
    # evaluations per vertex; ptwb with LIFO owner deques 2.8 SSSP
    # advances and 9.5 BFS evaluations.  An allpar scan that checks each
    # forbidden vertex twice and ends on a second quiet pass costs 6 BFS
    # evaluations per vertex.  allpar's vector step checks only the
    # changed frontier: scanning all vertices per pass instead costs 5.0
    # BFS evaluations and 1.39 advances, and 9.0 SSSP evaluations, per
    # vertex; a first pass that checks every vertex costs 1.995 BFS and
    # 4.117 SSSP evaluations per vertex.  Checking every popped item
    # instead of dropping the stale ones by their key costs
    # 4.00 evaluations per vertex on SSSP bag, ptwb and buckets and on
    # every popping BFS strategy, and 6.42 on SSSP swb and ptcf.  Pushing
    # x whenever the candidate beats d(x), instead of only below the least
    # candidate already offered to x, costs 3.00 stale drops per vertex on
    # SSSP and BFS bag and ptwb.
    inst = generate(WORK_GUARD_SPEC, 1)
    result = run_solver(adapter_for(problem, inst), SolverConfig(strategy=strategy, threads=1))
    count = getattr(result.stats, counter)
    assert count <= per_vertex * inst.graph.num_vertices, count


class _PopCountingBag(SeqBag):
    """A ``SeqBag`` that counts the items it hands out in ``pops``."""

    pops = 0

    def pop(self):
        item = super().pop()
        if item is not None:
            self.pops += 1
        return item


@pytest.mark.parametrize("problem", ["sssp", "bfs"])
def test_every_pop_is_checked_or_dropped_stale(problem):
    bag = _PopCountingBag()
    result = run_solver(adapter_for(problem, generate(WORK_GUARD_SPEC, 1)),
                        SolverConfig(strategy="bag"), worklist=bag)
    stats = result.stats
    assert bag.pops == stats.predicate_evals + stats.stale_drops
    # BFS in level order offers each vertex its final level first, so
    # nothing it pushes goes stale at one thread.
    assert stats.stale_drops > 0 if problem == "sssp" else stats.stale_drops == 0


class _NeverForgettingBag(SeqBag):
    """Negative control: a ``SeqBag`` whose held set never forgets a popped item."""

    def pop(self):
        return _ObimBins.pop(self)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_bag_that_drops_a_popped_item_is_caught(seed):
    # An advancing man pushes himself and the rivals at his new woman; a
    # bag that still counts an item once popped drops those pushes, and
    # the post-solve scan reports a man left forbidden.  Forgetting the
    # item on its pop solves the same instance.
    inst = generate("sm:n=40", seed)
    got = run_solver(adapter_for("sm", inst), SolverConfig(strategy="bag")).solution
    assert np.array_equal(got, gale_shapley_seq(inst.mprefs, inst.wprefs))
    with pytest.raises(IncompleteSolveError):
        run_solver(adapter_for("sm", inst), SolverConfig(strategy="bag"), worklist=_NeverForgettingBag())


class _KeyBlindStalePaths(ShortestPaths):
    """Negative control: drops every item of a reached vertex, whatever its key."""

    def is_stale(self, state, item):
        return state.values.cells()[item[0]] < INF


@pytest.mark.parametrize("strategy", ["swb", "ptcf"])
def test_a_stale_rule_that_ignores_the_key_is_caught(strategy):
    # FIFO pops reach a vertex before its final distance, so the blind rule
    # drops the pushes that would lower it again; the post-solve scan
    # reports the vertex.  The keyed rule solves the same instance.
    inst = generate(WORK_GUARD_SPEC, 1)
    config = SolverConfig(strategy=strategy)
    want = run_solver(adapter_for("sssp", inst), SolverConfig(strategy="bag")).solution
    assert np.array_equal(run_solver(adapter_for("sssp", inst), config).solution, want)
    with pytest.raises(IncompleteSolveError):
        run_solver(_KeyBlindStalePaths(inst.graph, inst.source), config)


@pytest.mark.parametrize("strategy", ["bag", "swb", "ptwb", "ptcf", "buckets"])
def test_closure_work_per_row_stays_bounded(strategy):
    # Deterministic at one thread.  Checking a row against its direct
    # successors only, and pushing only direct predecessors, makes 11.3
    # to 15.1 evaluations per row here.  Checking it against every row
    # it reaches and re-pushing every row that reaches it makes 24.4 to
    # 30.3.  bag holds each waiting row once and makes 0.92; queueing a
    # row again while it waits makes 11.28.
    inst = generate("closuredag:n=200,p=0.05", 1)
    result = run_solver(adapter_for("closure", inst), SolverConfig(strategy=strategy, threads=1))
    evals = result.stats.predicate_evals
    per_row = 1.5 if strategy == "bag" else 16
    assert evals <= per_row * inst.graph.num_vertices, evals


@pytest.mark.parametrize("spec", ["knap:n=20,cap=200,wmax=20", "knap:n=60,cap=2000"])
@pytest.mark.parametrize("strategy", ["bag", "buckets", "ptwb"])
def test_knapsack_advances_each_tile_at_most_once(spec, strategy):
    # Tiles keyed by item row pop row by row, each from a complete input
    # row.  Keyed by column offset, bag makes 10.5 and 112.5 advances per
    # tile on these instances, and buckets 5.25 on the larger one; ptwb
    # with LIFO owner deques makes 56.8 on the larger one.  bag also
    # checks each tile once, since it holds a pushed tile whose seed is
    # still waiting only once; queueing the copy makes 1.95 and 3.10
    # checks per tile.
    adapter = adapter_for("knapsack", generate(spec, 1))
    result = run_solver(adapter, SolverConfig(strategy=strategy, threads=1))
    assert result.stats.advances <= adapter.size, result.stats.advances
    if strategy == "bag":
        assert result.stats.predicate_evals == adapter.size, result.stats.predicate_evals


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


@pytest.mark.parametrize(
    "problem,threads", [("sssp", 1), ("bfs", 1), ("sssp", 2), ("bfs", 2)],
    ids=["sssp", "bfs", "sssp-2threads", "bfs-2threads"],
)
def test_vector_step_records_every_cell_change(problem, threads):
    # The vector step reports each change to the recorder: none regresses,
    # no write fails, and at one thread there is one change per counted
    # advance.  At two, replaying the changes over the initial cells
    # gives the solution.
    adapter = adapter_for(problem, generate("randgraph:n=300,m=900,wmax=9", 5))
    changes = []
    result = run_solver(
        adapter, SolverConfig(strategy="allpar", threads=threads),
        recorder=lambda i, old, new: changes.append((i, old, new)),
    )
    assert all(new < old for _i, old, new in changes)
    assert result.stats.failed_replaces == 0
    if threads == 1:
        assert len(changes) == result.stats.advances > 0
    else:
        replay = adapter.init_state().values.snapshot()
        for i, old, new in changes:
            assert replay[i] == old
            replay[i] = new
        assert changes and replay == result.solution.tolist()


def test_vector_step_survives_fast_thread_switching():
    # Six workers write the shared array and fold their offers
    # concurrently.  An offer lost to a race would leave a forbidden
    # vertex behind, which the post-solve scan reports.
    instances = [generate("randgraph:n=400,m=1600,wmax=50", seed) for seed in range(6)]
    want = [solve(adapter_for("sssp", inst), strategy="bag") for inst in instances]
    got, errors = [], []

    def run():
        try:
            for inst in instances:
                got.append(solve(adapter_for("sssp", inst), strategy="allpar", threads=6))
        except Exception as exc:  # reported by the test, not by the thread
            errors.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert errors == []
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


class _Cascade(Problem):
    """Node v of an implicit binary tree; setting it pushes its two children."""

    lattice = "max"
    size = 2048

    def init_state(self, recorder=None):
        return GlobalState([0] * self.size, recorder=recorder)

    def push_initial(self, state, worklist):
        worklist.push_all([(1, 0)])

    def witness(self, state, v):
        return 1 if v >= 1 and state.values.load(v) == 0 else None

    def apply(self, state, v, one, worklist):
        if not state.values.monotone_max(v, one).updated:
            return False
        if v < self.size // 2:
            worklist.push_all([(2 * v, v), (2 * v + 1, v)])
        return True

    def final_solution(self, state):
        return state.values.to_numpy()


@pytest.mark.parametrize("strategy", ["swb", "ptwb", "ptcf", "buckets"])
def test_deferred_finish_reports_never_end_a_drain_early(strategy):
    # Workers report finished items only when their pop comes back empty.
    # Under fast thread switching a report counted too soon would let every
    # worker exit with nodes left, and the post-solve scan would fail.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = run_solver(_Cascade(), SolverConfig(strategy=strategy, threads=4))
    finally:
        sys.setswitchinterval(interval)
    assert result.solution[1:].all()


class _ExplodingProblem(Problem):
    """Advance always raises; exercises worker error propagation."""

    lattice = "min"
    size = 4

    def init_state(self, recorder=None):
        return GlobalState([INF] * 4)

    def push_initial(self, state, worklist):
        worklist.push_all((i, 0) for i in range(4))

    def witness(self, state, index):
        return index

    def apply(self, state, index, witness, worklist):
        raise RuntimeError("boom")


# Every threaded strategy at three threads and at one, each sequential
# one at one.
EVERY_STRATEGY_AND_THREADS = [
    pytest.param(s, 1 if s in SEQUENTIAL_STRATEGIES else 3, id=s) for s in STRATEGIES
] + [pytest.param(s, 1, id=f"{s}-1") for s in PARALLEL_STRATEGIES]


@pytest.mark.parametrize("strategy,threads", EVERY_STRATEGY_AND_THREADS)
def test_worker_errors_propagate_first_error_wins(strategy, threads):
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

    def witness(self, state, index):
        current = state.values.load(0)
        return current if current < 5 else None

    def apply(self, state, index, current, worklist):
        nxt = current + 1
        if nxt > self.bound[0]:
            raise InfeasibleError("needs more than the bound allows")
        state.values.monotone_max(0, nxt)
        worklist.push((0, 0))
        return True


@pytest.mark.parametrize("strategy,threads", EVERY_STRATEGY_AND_THREADS)
def test_infeasible_advance_surfaces_from_any_strategy(strategy, threads):
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
