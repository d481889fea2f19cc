"""Per-problem adapters against their independent oracles."""

import zlib

import numpy as np
import pytest

from llp.baselines import (
    bfs_seq,
    blocking_pairs,
    dijkstra_heap,
    dp_row_knapsack,
    floyd_warshall_par,
    gale_shapley_seq,
    topo_sort_seq,
)
import llp.problems
from llp.core import INF, GlobalState, MalformedInstanceError, Problem
from llp.instances import CsrGraph, SplitMix64, generate
from llp.problems import (
    BreadthFirstLevels,
    JobScheduling,
    Knapsack,
    ShortestPaths,
    StableMatching,
    TransitiveClosure,
    TreeReduction,
    adapter_for,
    pack_reachability,
    unpack_reachability,
)
from llp.solvers import SEQUENTIAL_STRATEGIES, STRATEGIES, SolverConfig, run_solver, solve
from llp.worklists import RandomOrderBag, SeqBag

SUITE_SEEDS = 100


def _suite(problem, spec_of):
    """Solve 100 seeded instances with the bag solver, yield (instance, got)."""
    rng = SplitMix64(0xBEEF ^ zlib.crc32(problem.encode()))
    for seed in range(SUITE_SEEDS):
        spec = spec_of(rng)
        inst = generate(spec, seed)
        got = solve(adapter_for(problem, inst), strategy="bag")
        yield inst, got


# --- shortest paths ---------------------------------------------------------


def test_sssp_oracle_suite():
    for inst, got in _suite("sssp", lambda r: f"randgraph:n={r.uniform(2, 200)},m={r.uniform(1, 400)},wmax=10"):
        assert np.array_equal(got, dijkstra_heap(inst.graph, inst.source))


def test_sssp_concurrent_relax_keeps_shorter_path():
    # Two paths reach v3 with costs 3 and 8; d(3) is 3 in every schedule.
    from llp.instances import example_graph

    inst = example_graph()
    for threads in (1, 2, 4):
        for _ in range(10):
            got = solve(adapter_for("sssp", inst), SolverConfig(strategy="swb", threads=threads))
            assert got[3] == 3


# v1 advances from INF to 1 along 0->1; its out-neighbours hold INF (v2),
# exactly the candidate (v3), less than it (v4) and more than it (v5).
PUSH_RULE_EDGES = [(0, 1, 1), (1, 2, 2), (1, 3, 5), (1, 4, 3), (1, 5, 3)]


def test_sssp_ensure_pushes_only_improved_neighbours_at_their_candidate():
    adapter = ShortestPaths(CsrGraph.from_edges(6, PUSH_RULE_EDGES), source=0)
    state = GlobalState([0, INF, INF, 6, 2, 9])
    bag = SeqBag()
    assert adapter.ensure(state, 1, bag) is True
    assert state.values.load(1) == 1
    assert sorted(iter(bag.pop, None)) == [(2, 1 + 2), (5, 1 + 3)]


# --- BFS --------------------------------------------------------------------


def test_bfs_ensure_pushes_only_improved_neighbours_at_their_candidate():
    adapter = BreadthFirstLevels(CsrGraph.from_edges(6, PUSH_RULE_EDGES), source=0)
    state = GlobalState([0, INF, INF, 2, 1, 5])
    bag = SeqBag()
    assert adapter.ensure(state, 1, bag) is True
    assert state.values.load(1) == 1
    assert sorted(iter(bag.pop, None)) == [(2, 2), (5, 2)]


def test_bfs_oracle_suite():
    for inst, got in _suite("bfs", lambda r: f"randgraph:n={r.uniform(2, 200)},m={r.uniform(1, 400)},wmax=10"):
        assert np.array_equal(got, bfs_seq(inst.graph, inst.source))


@pytest.mark.parametrize("adapter_class,oracle", [(ShortestPaths, dijkstra_heap), (BreadthFirstLevels, bfs_seq)])
@pytest.mark.parametrize("seed", range(4))
def test_allpar_vector_step_oracle_suite(adapter_class, oracle, seed):
    # allpar folds these adapters' offers.  Sparse random arcs
    # leave vertices unreached; every arc is drawn twice, once with a
    # heavier weight, so duplicates matter for SSSP; on odd draws the
    # source's in-arcs are dropped.
    rng = SplitMix64(0xA11 ^ seed)
    for draw in range(12):
        n = rng.uniform(2, 120)
        source = rng.below(n)
        arcs = [(rng.below(n), rng.below(n), rng.uniform(1, 9)) for _ in range(rng.uniform(0, 2 * n))]
        arcs += [(u, v, w + rng.uniform(0, 3)) for u, v, w in arcs]
        if draw % 2:
            arcs = [a for a in arcs if a[1] != source]
        graph = CsrGraph.from_edges(n, arcs)
        adapter = adapter_class(graph, source)
        want = oracle(graph, source)
        assert np.array_equal(solve(adapter, strategy="bag"), want)
        for threads in (1, 2, 3):
            result = run_solver(adapter, SolverConfig(strategy="allpar", threads=threads))
            assert np.array_equal(result.solution, want), (draw, threads)
            assert result.stats.failed_replaces == 0


_STATE_POOL = [INF, INF - 1, INF - 4, 0, 1, 2, 3, 5, 8, 13, 21]


def _random_cells(rng, n):
    return [_STATE_POOL[rng.below(len(_STATE_POOL))] for _ in range(n)]


def _random_states(adapter_class, rng, draws=20):
    """Yield ``(adapter, cells)``: random graphs, each with random cells."""
    for _draw in range(draws):
        n = rng.uniform(1, 60)
        source = rng.below(n)
        arcs = [(rng.below(n), rng.below(n), rng.uniform(1, 9)) for _ in range(rng.uniform(0, 2 * n))]
        arcs += [(u, v, rng.uniform(1, 12)) for u, v, _w in arcs[::2]]
        yield adapter_class(CsrGraph.from_edges(n, arcs), source), _random_cells(rng, n)


@pytest.mark.parametrize("adapter_class", [ShortestPaths, BreadthFirstLevels])
@pytest.mark.parametrize("seed", range(4))
def test_forbidden_batch_agrees_with_is_forbidden(adapter_class, seed):
    # The scalar check is the reference for the vector post-solve scan.
    # States are random, not fixed points: INF cells and cells near INF,
    # the source at any value and with in-arcs, vertices without in-arcs,
    # duplicate arcs both lighter and heavier, shuffled index subsets.
    # Each witness is the value the scalar advance writes.
    rng = SplitMix64(0xF0B ^ seed)
    found = 0
    for draw, (adapter, cells) in enumerate(_random_states(adapter_class, rng)):
        n = adapter.size
        values = np.array(cells, dtype=np.uint64)
        state = GlobalState(cells)
        order = list(range(n))
        rng.shuffle(order)
        # A subset, then every index in order, which reduces over all arcs.
        for indices in (np.array(order[: rng.uniform(0, n)], dtype=np.int64), np.arange(n)):
            forbidden, witnesses = adapter.forbidden_batch(values, indices)
            assert forbidden.tolist() == [v for v in indices.tolist() if adapter.is_forbidden(state, v)], draw
            assert values.tolist() == cells and state.values.snapshot() == cells
            for v, witness in zip(forbidden.tolist(), witnesses.tolist()):
                probe = GlobalState(cells)
                assert adapter.advance(probe, v, SeqBag())
                assert probe.values.load(v) == witness, (draw, v)
            found += len(forbidden)
    assert found > 0


# One vertex with and without a self-loop, and zero-weight arcs, which
# the generators never draw: a zero-weight cycle through the source, a
# zero-weight path, and parallel arcs of weight zero and one.
EDGE_GRAPHS = [
    (CsrGraph.from_edges(1, []), 0),
    (CsrGraph.from_edges(1, [(0, 0, 0)]), 0),
    (CsrGraph.from_edges(7, [(0, 1, 0), (1, 0, 0), (1, 2, 0), (2, 3, 0), (0, 4, 1), (4, 3, 0),
                             (3, 5, 0), (3, 5, 1), (6, 6, 0)]), 0),
    (CsrGraph.from_edges(5, [(2, 0, 0), (2, 1, 0), (1, 3, 2), (3, 4, 0), (4, 1, 0)]), 2),
]


@pytest.mark.parametrize("adapter_class", [ShortestPaths, BreadthFirstLevels])
@pytest.mark.parametrize("seed", range(4))
def test_offer_batch_agrees_with_the_scalar_check(adapter_class, seed):
    # allpar advances each vertex to the least offer folded into it.  With
    # every vertex changed, that fold beats d(x) exactly where the scalar
    # check finds x forbidden, the source aside, and equals its witness.
    rng = SplitMix64(0x0FFE ^ seed)
    draws = list(_random_states(adapter_class, rng))
    draws += [(adapter_class(graph, source), _random_cells(rng, graph.num_vertices))
              for graph, source in EDGE_GRAPHS]
    found = 0
    for adapter, cells in draws:
        n = adapter.size
        values = np.array(cells, dtype=np.uint64)
        targets, candidates = adapter.offer_batch(values, np.arange(n))
        assert (candidates < values[targets]).all()
        assert values.tolist() == cells
        folded = np.full(n, INF, dtype=np.uint64)
        np.minimum.at(folded, targets, candidates)
        beats = folded < values
        beats[adapter.source] = False
        state = GlobalState(cells)
        want = {v: w for v in range(n) if (w := adapter.witness(state, v)) is not None}
        assert np.flatnonzero(beats).tolist() == sorted(want)
        assert folded[beats].tolist() == [want[v] for v in sorted(want)]
        found += len(want)
    assert found > 0


@pytest.mark.parametrize("adapter_class", [ShortestPaths, BreadthFirstLevels])
def test_allpar_vector_path_is_independent_of_the_thread_count(adapter_class):
    # Offers are merged only at the barrier, so every pass's frontier and
    # writes are those of one worker: same vector, same pass count.
    graphs = [(inst.graph, inst.source) for inst in
              (generate("randgraph:n=1500,m=6000,wmax=100", seed) for seed in range(1, 5))]
    for graph, source in graphs + EDGE_GRAPHS:
        runs = [run_solver(adapter_class(graph, source), SolverConfig(strategy="allpar", threads=t))
                for t in (1, 2, 3)]
        for run in runs[1:]:
            assert np.array_equal(run.solution, runs[0].solution)
            assert run.stats.passes == runs[0].stats.passes


def _seed_cover_graphs():
    rng = SplitMix64(0x5EED)
    for seed in range(40):
        spec = f"randgraph:n={rng.uniform(1, 120)},m={rng.uniform(1, 300)},wmax={rng.uniform(1, 20)}"
        inst = generate(spec, seed)
        yield inst.graph, inst.source
    yield from EDGE_GRAPHS


@pytest.mark.parametrize("adapter_class", [ShortestPaths, BreadthFirstLevels])
def test_seeds_cover_every_index_forbidden_at_the_start(adapter_class):
    # Popping strategies start from the seeds, and allpar's vector step
    # checks only their indices in its first pass, so every index
    # forbidden in init_state must be the index of a seed.
    for graph, source in _seed_cover_graphs():
        adapter = adapter_class(graph, source)
        state = adapter.init_state()
        bag = SeqBag()
        adapter.push_initial(state, bag)
        seeds = {item[0] for item in iter(bag.pop, None)}
        forbidden, _witnesses = adapter.forbidden_batch(
            state.values.to_numpy(), np.arange(adapter.size)
        )
        assert set(forbidden.tolist()) <= seeds, (graph.num_vertices, source)


@pytest.mark.parametrize("adapter_class,oracle", [(ShortestPaths, dijkstra_heap), (BreadthFirstLevels, bfs_seq)])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_edge_graphs_match_the_oracle(adapter_class, oracle, strategy):
    threads = (1,) if strategy in SEQUENTIAL_STRATEGIES else (1, 2)
    for graph, source in EDGE_GRAPHS:
        want = oracle(graph, source)
        for t in threads:
            got = solve(adapter_class(graph, source), SolverConfig(strategy=strategy, threads=t))
            assert np.array_equal(got, want), (graph.num_vertices, t)


def test_scalar_rows_match_the_adjacency_lists():
    # Each vertex's row slice of an adapter's flat arcs is its arcs in CSR
    # order, duplicates, empty rows, zero weights and one vertex included:
    # (target, weight) pairs for SSSP, targets for BFS.
    graph = CsrGraph.from_edges(7, [(0, 1, 1), (0, 1, 4), (1, 2, 2), (3, 1, 1), (2, 0, 5), (3, 2, 1)])
    graphs = [graph, generate("randgraph:n=300,m=900,wmax=9", 2).graph] + [g for g, _s in EDGE_GRAPHS]
    for g in graphs:
        lists = {"out": g.adjacency_lists(), "in": g.reversed().adjacency_lists()}
        for adapter_class, arc in ((ShortestPaths, tuple), (BreadthFirstLevels, lambda a: a[0])):
            adapter = adapter_class(g, source=0)
            views = {"out": (adapter._out_offs, adapter._out), "in": (adapter._in_offs, adapter._in)}
            for direction, (offs, arcs) in views.items():
                assert offs[-1] == len(arcs), (adapter_class, direction)
                rows = [arcs[offs[v] : offs[v + 1]] for v in range(g.num_vertices)]
                want = [[arc(a) for a in row] for row in lists[direction]]
                assert rows == want, (adapter_class, direction, g.num_vertices)


@pytest.mark.parametrize("adapter_class,oracle", [(ShortestPaths, dijkstra_heap), (BreadthFirstLevels, bfs_seq)])
def test_adapters_build_no_per_vertex_lists(adapter_class, oracle, monkeypatch):
    # The scalar views are flat; building the adapter or solving never
    # asks the graph for a list per vertex.
    inst = generate("randgraph:n=300,m=900,wmax=20", 3)
    want = oracle(inst.graph, inst.source)

    def refuse(graph):
        raise AssertionError("per-vertex lists built")

    monkeypatch.setattr(CsrGraph, "adjacency_lists", refuse)
    monkeypatch.setattr(CsrGraph, "successor_lists", refuse)
    adapter = adapter_class(inst.graph, inst.source)
    # Nor does it keep a list of rows made some other way.
    nested = [k for k, x in vars(adapter).items() if isinstance(x, list) and x and isinstance(x[0], list)]
    assert not nested
    for strategy in ("bag", "allpar"):
        got = solve(adapter, SolverConfig(strategy=strategy))
        assert np.array_equal(got, want), strategy


def test_bfs_chain_levels():
    got = solve(adapter_for("bfs", generate("chain:3", 0)), strategy="bag")
    assert got.tolist() == [0, 1, 2]


def test_bfs_shorter_hop_survives_any_interleaving():
    # v3 reachable in one hop (0-3) and two hops (0-2-3): level 1 wins.
    g = CsrGraph.from_edges(4, [(0, 3, 1), (0, 2, 1), (2, 3, 1), (0, 1, 1)]).symmetrized()
    adapter = BreadthFirstLevels(g, source=0)
    for _ in range(20):
        got = solve(adapter, SolverConfig(strategy="ptwb", threads=4))
        assert got[3] == 1


def test_bfs_isolated_vertex_stays_unreached():
    g = CsrGraph.from_edges(3, [(0, 1, 1), (1, 0, 1)])
    got = solve(BreadthFirstLevels(g, source=0), strategy="bag")
    assert got.tolist() == [0, 1, INF]


# --- stable matching --------------------------------------------------------


def test_sm_oracle_suite_with_blocking_pair_scan():
    for inst, got in _suite("sm", lambda r: f"sm:n={r.uniform(1, 64)}"):
        assert np.array_equal(got, gale_shapley_seq(inst.mprefs, inst.wprefs))
        assert blocking_pairs(inst.mprefs, inst.wprefs, got) == []


def test_sm_single_pair_marries_first_choice():
    got = solve(StableMatching([[0]], [[0]]), strategy="bag")
    assert got.tolist() == [0]


def test_sm_two_by_two_hand_instance():
    # Both men court w0; she prefers m1, so m0 settles for w1: indices [1, 0].
    adapter = StableMatching([[0, 1], [0, 1]], [[1, 0], [0, 1]])
    got = solve(adapter, strategy="bag")
    assert got.tolist() == [1, 0]
    assert adapter.partners(got) == [1, 0]


def test_sm_random_instance_has_no_blocking_pairs():
    inst = generate("sm:n=50", 123)
    got = solve(adapter_for("sm", inst), SolverConfig(strategy="ptcf", threads=4))
    assert blocking_pairs(inst.mprefs, inst.wprefs, got) == []


def test_sm_rejects_unbalanced_input():
    with pytest.raises(ValueError):
        StableMatching([[0]], [[0], [0]])
    with pytest.raises(ValueError):
        StableMatching([[0, 1], [0]], [[0, 1], [1, 0]])


# --- job scheduling ---------------------------------------------------------


def test_job_oracle_suite():
    for inst, got in _suite("job", lambda r: f"dag:n={r.uniform(1, 200)},p=0.2"):
        assert np.array_equal(got, topo_sort_seq(inst.graph, inst.durations))


def test_job_completion_times_are_tight():
    # G[j] equals (not merely bounds) max over parents plus own duration.
    inst = generate("dag:n=120,p=0.2", 9)
    got = solve(adapter_for("job", inst), strategy="bag")
    preds = [[] for _ in range(inst.graph.num_vertices)]
    for u, v, _w in inst.graph.arcs():
        preds[v].append(u)
    for j in range(inst.graph.num_vertices):
        parent_max = max((int(got[p]) for p in preds[j]), default=0)
        assert int(got[j]) == parent_max + inst.durations[j]


def test_job_single_and_chain_and_diamond():
    single = JobScheduling(CsrGraph.from_edges(1, []), [7])
    assert solve(single, strategy="bag").tolist() == [7]

    chain = JobScheduling(CsrGraph.from_edges(2, [(0, 1, 1)]), [2, 3])
    assert solve(chain, strategy="bag").tolist() == [2, 5]

    # a(2) -> {b(3), c(4)} -> d(1): critical path a-c-d gives 7.
    diamond = JobScheduling(
        CsrGraph.from_edges(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]), [2, 3, 4, 1]
    )
    got = solve(diamond, strategy="bag")
    assert got.tolist() == [2, 5, 6, 7]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_job_zero_duration_is_still_fixed(strategy):
    # Job 0's bound, 0, is the cell's initial value; it must be fixed all
    # the same, or job 1 never becomes ready.
    adapter = JobScheduling(CsrGraph.from_edges(2, [(0, 1, 1)]), [0, 5])
    assert solve(adapter, strategy=strategy).tolist() == [0, 5]


JOB_CONFIGS = [(s, 1) for s in SEQUENTIAL_STRATEGIES] + [
    (s, t) for s in STRATEGIES if s not in SEQUENTIAL_STRATEGIES for t in (1, 2)
]


@pytest.mark.parametrize("seed", range(4))
def test_job_zero_and_small_durations_match_the_oracle(seed):
    # Durations from {0, 1, 2} make many bounds equal to the initial 0 or
    # to a parent's completion; ids are shuffled so no order is
    # topological.
    rng = SplitMix64(0x10B ^ seed)
    for draw in range(10):
        n = rng.uniform(1, 30)
        ids = list(range(n))
        rng.shuffle(ids)
        arcs = [(ids[u], ids[v], 1) for u in range(n) for v in range(u + 1, n) if rng.chance(0.15)]
        graph = CsrGraph.from_edges(n, arcs)
        durations = [rng.below(3) for _ in range(n)]
        want = topo_sort_seq(graph, durations)
        for strategy, threads in JOB_CONFIGS:
            got = solve(JobScheduling(graph, durations), strategy=strategy, threads=threads)
            assert np.array_equal(got, want), (draw, strategy, threads)


def test_job_cyclic_input_reports_malformed_instance():
    cyclic = JobScheduling(CsrGraph.from_edges(2, [(0, 1, 1), (1, 0, 1)]), [1, 1])
    with pytest.raises(MalformedInstanceError):
        solve(cyclic, strategy="bag")


# --- reduction --------------------------------------------------------------


def test_reduce_oracle_suite():
    from llp.baselines import binary_tree_reduce

    for inst, got in _suite("reduce", lambda r: f"reduce:n={r.uniform(1, 512)}"):
        assert np.array_equal(got, binary_tree_reduce(inst.values))


def test_reduce_two_leaves():
    assert solve(TreeReduction([1, 2]), strategy="bag").tolist() == [3]


def test_reduce_closed_form_first_sixty_four():
    for n in range(1, 65):
        got = solve(TreeReduction(list(range(1, n + 1))), strategy="bag")
        assert got.tolist() == [n * (n + 1) // 2]


def test_reduce_node_with_one_published_child_is_not_forbidden():
    adapter = TreeReduction([1, 2, 3])  # pads to 4 leaves
    state = adapter.init_state()
    bag = SeqBag()
    # Combine only the left bottom pair; its parent published, the root
    # still waits for the right subtree.
    assert adapter.ensure(state, 1, bag)
    assert not adapter.is_forbidden(state, 0)


# --- transitive closure -----------------------------------------------------


def test_closure_oracle_suite():
    for inst, got in _suite("closure", lambda r: f"closuredag:n={r.uniform(1, 64)},p=0.2"):
        assert np.array_equal(got, floyd_warshall_par(inst.graph, threads=1))


@pytest.mark.parametrize("seed", range(4))
def test_closure_oracle_on_cyclic_graphs(seed):
    # randgraph is symmetrized, so each of its components of two or more
    # vertices is a strongly connected component.  Random arcs without
    # symmetrizing add arcs between SCCs, self-loops and repeated arcs.
    rng = SplitMix64(0xC7C1E ^ seed)
    n = rng.uniform(40, 160)
    sym = generate(f"randgraph:n={n},m={n // 2},wmax=1", seed).graph
    arcs = CsrGraph.from_edges(n, [(rng.below(n), rng.below(n), 1) for _ in range(n + n // 4)])
    for graph, min_sccs in ((sym, 2), (arcs, 1)):
        want = floyd_warshall_par(graph, threads=1)
        reach = unpack_reachability(want, n)
        # Rows of vertices on a cycle are equal exactly within an SCC.
        assert len({tuple(reach[u]) for u in range(n) if reach[u, u]}) >= min_sccs
        for strategy in STRATEGIES:
            for threads in [1] if strategy in SEQUENTIAL_STRATEGIES else [1, 3]:
                config = SolverConfig(strategy=strategy, threads=threads)
                got = solve(TransitiveClosure(graph), config)
                assert np.array_equal(got, want), (strategy, threads)


def test_closure_two_edge_path():
    g = CsrGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
    adapter = TransitiveClosure(g)
    got = solve(adapter, strategy="bag")
    reach = adapter.reachability_matrix(got)
    assert {(u, v) for u in range(3) for v in range(3) if reach[u, v]} == {(0, 1), (1, 2), (0, 2)}


def test_closure_sink_vertex_never_forbidden():
    g = CsrGraph.from_edges(2, [(0, 1, 1)])
    adapter = TransitiveClosure(g)
    state = adapter.init_state()
    assert not adapter.is_forbidden(state, 1)  # empty row


def test_closure_two_cycle_reaches_self():
    g = CsrGraph.from_edges(2, [(0, 1, 1), (1, 0, 1)])
    adapter = TransitiveClosure(g)
    reach = adapter.reachability_matrix(solve(adapter, strategy="bag"))
    assert reach.all()  # (a,a), (a,b), (b,a), (b,b): nonempty-path semantics


def test_closure_advance_resumes_where_the_check_stopped():
    # Row 0's check stops at word 1 of its first successor (vertex 100);
    # the advancement must still read word 0 of the later successor 2.
    graph = CsrGraph.from_edges(130, [(0, 1, 1), (0, 2, 1), (1, 100, 1), (2, 3, 1)])
    adapter = TransitiveClosure(graph)
    state = adapter.init_state()
    assert adapter.witness(state, 0) == 1
    assert adapter.ensure(state, 0, SeqBag())
    assert adapter.witness(state, 0) is None
    reach = adapter.reachability_matrix(state.values.to_numpy())
    assert np.flatnonzero(reach[0]).tolist() == [1, 2, 3, 100]


def test_reachability_packing_matches_a_bitwise_reference():
    rng = np.random.default_rng(7)
    for n in (0, 1, 63, 64, 65, 130):
        matrix = rng.random((n, n)) < 0.3
        wpr = max(1, (n + 63) // 64)
        want = [0] * (n * wpr)
        for u, v in np.argwhere(matrix).tolist():
            want[u * wpr + (v >> 6)] |= 1 << (v & 63)
        words = pack_reachability(matrix)
        assert words.dtype == np.uint64 and words.tolist() == want, n
        assert np.array_equal(unpack_reachability(want, n), matrix), n


def test_closure_is_idempotent():
    inst = generate("closuredag:n=30,p=0.2", 77)
    first = TransitiveClosure(inst.graph)
    words = solve(first, strategy="bag")
    reach = unpack_reachability(words, inst.graph.num_vertices)
    edges = [(u, v, 1) for u in range(len(reach)) for v in range(len(reach)) if reach[u][v]]
    again = TransitiveClosure(CsrGraph.from_edges(len(reach), edges))
    assert np.array_equal(solve(again, strategy="bag"), words)


# --- knapsack ---------------------------------------------------------------


def test_knapsack_oracle_suite_row_dp():
    def spec(r):
        cap = r.uniform(1, 256)
        return f"knap:n={r.uniform(1, 64)},cap={cap},wmax={max(1, cap // 2)},vmax=60"

    for inst, got in _suite("knapsack", spec):
        want = dp_row_knapsack(inst.weights, inst.values, inst.capacity)
        assert np.array_equal(got, want)
        # 16-wide strips: rows span many tiles, and the take path crosses them.
        strips = Knapsack(inst.weights, inst.values, inst.capacity, tile_width=16)
        for strategy in STRATEGIES:
            assert np.array_equal(solve(strips, strategy=strategy), want), strategy


def _best_subset_value(weights, values, capacity):
    n = len(weights)
    masks = np.arange(1 << n, dtype=np.uint32)
    bits = (masks[:, None] >> np.arange(n)) & 1
    total_w = bits @ np.asarray(weights)
    total_v = bits @ np.asarray(values)
    return int(total_v[total_w <= capacity].max())


def test_knapsack_exhaustive_subset_suite():
    rng = SplitMix64(0x5EED)
    for seed in range(SUITE_SEEDS):
        n = rng.uniform(1, 14)
        cap = rng.uniform(1, 60)
        inst = generate(f"knap:n={n},cap={cap},wmax={max(1, cap // 2)},vmax=40", seed)
        adapter = adapter_for("knapsack", inst)
        got = adapter.optimum(solve(adapter, strategy="bag"))
        assert got == _best_subset_value(inst.weights, inst.values, inst.capacity)


def test_knapsack_single_item_cells():
    adapter = Knapsack([2], [3], capacity=2)
    got = solve(adapter, strategy="bag")
    assert got.tolist() == [0, 0, 3]  # c=1 < w keeps 0; c=2 fits the item

    small = Knapsack([2], [3], capacity=1)
    assert solve(small, strategy="bag").tolist() == [0, 0]


def test_knapsack_two_items_optimum_seven():
    adapter = Knapsack([2, 3], [3, 4], capacity=5)
    got = solve(adapter, strategy="bag")
    assert adapter.optimum(got) == 7
    assert got.tolist() == [0, 0, 3, 4, 4, 7]


def test_knapsack_tile_width_does_not_change_fixed_point():
    inst = generate("knap:n=20,cap=100,wmax=50,vmax=40", 3)
    outs = set()
    for width in (1, 16, 256):
        adapter = Knapsack(inst.weights, inst.values, inst.capacity, tile_width=width)
        outs.add(solve(adapter, strategy="bag").tobytes())
    assert len(outs) == 1


# --- cross-cutting contracts ------------------------------------------------


@pytest.mark.parametrize(
    "problem,spec",
    [
        ("sssp", "randgraph:n=25,m=60,wmax=9"),
        ("bfs", "randgraph:n=25,m=60,wmax=9"),
        ("sm", "sm:n=10"),
        ("job", "dag:n=25,p=0.2"),
        ("reduce", "reduce:n=9"),
        ("closure", "closuredag:n=10,p=0.3"),
        ("knapsack", "knap:n=6,cap=20,wmax=10,vmax=9"),
    ],
)
def test_is_forbidden_is_a_pure_read(problem, spec):
    adapter = adapter_for(problem, generate(spec, 1))
    state = adapter.init_state()
    before = state.values.snapshot()
    extra_before = {k: v.snapshot() for k, v in state.extra.items()}
    for index in range(adapter.size):
        adapter.is_forbidden(state, index)
    assert state.values.snapshot() == before
    assert {k: v.snapshot() for k, v in state.extra.items()} == extra_before


# Mid-solve states: each draw pops and ensures a random number of items
# of a random-order drain, with multi-strip knapsack tiles and two-word
# closure rows.
CHECK_SPECS = [
    ("sssp", "randgraph:n=60,m=180,wmax=9"),
    ("bfs", "randgraph:n=60,m=180"),
    ("sm", "sm:n=12"),
    ("job", "dag:n=60,p=0.1"),
    ("reduce", "reduce:n=50"),
    ("closure", "closuredag:n=70,p=0.1"),
    ("knapsack", "knap:n=8,cap=60,wmax=20,vmax=30"),
]


def _mid_solve_states(problem, spec, seed, draws=6):
    rng = SplitMix64(0xC4EC ^ seed)
    for draw in range(draws):
        inst = generate(spec, 10 * seed + draw)
        if problem == "knapsack":
            adapter = Knapsack(inst.weights, inst.values, inst.capacity, tile_width=16)
        else:
            adapter = adapter_for(problem, inst)
        state = adapter.init_state()
        bag = RandomOrderBag(seed=draw)
        adapter.push_initial(state, bag)
        for _ in range(rng.below(adapter.size)):
            item = bag.pop()
            if item is None:
                break
            adapter.ensure(state, item[0], bag)
        yield adapter, state


def _count_calls(adapter) -> dict:
    """Make ``adapter`` count its contract calls into the returned dict."""
    calls = {"witness": 0, "apply": 0, "is_forbidden": 0, "advance": 0}

    def counted(name):
        inner = getattr(type(adapter), name)

        def call(self, *args):
            calls[name] += 1
            return inner(self, *args)

        return call

    adapter.__class__ = type("Counted", (type(adapter),), {name: counted(name) for name in calls})
    return calls


@pytest.mark.parametrize("problem,spec", CHECK_SPECS)
@pytest.mark.parametrize("seed", range(2))
def test_one_check_per_ensure(problem, spec, seed):
    found = 0
    for adapter, state in _mid_solve_states(problem, spec, seed):
        before = state.values.snapshot(), state.stats.as_dict()
        for index in range(adapter.size):
            witness = adapter.witness(state, index)
            assert adapter.is_forbidden(state, index) == (witness is not None), index
            found += witness is not None
        assert (state.values.snapshot(), state.stats.as_dict()) == before
        counts = _count_calls(adapter)
        for index in range(adapter.size):
            forbidden = adapter.is_forbidden(state, index)
            counts.update(dict.fromkeys(counts, 0))
            assert adapter.ensure(state, index, SeqBag()) == forbidden
            assert counts == {"witness": 1, "apply": int(forbidden), "is_forbidden": 0, "advance": 0}
    assert found > 0


def test_adapters_write_only_the_check_and_the_advancement():
    adapters = [cls for cls in vars(llp.problems).values() if isinstance(cls, type) and issubclass(cls, Problem)]
    assert len(adapters) == 7
    for cls in adapters:
        for klass in cls.__mro__[: cls.__mro__.index(Problem)]:
            assert not {"is_forbidden", "advance", "ensure"} & set(vars(klass)), klass
        assert cls.witness is not Problem.witness and cls.apply is not Problem.apply, cls


def _reachable_states(adapter, start):
    """All value vectors reachable through single advances."""
    seen = {tuple(start)}
    frontier = [tuple(start)]
    while frontier:
        current = frontier.pop()
        for index in range(adapter.size):
            state = GlobalState(list(current))
            if adapter.is_forbidden(state, index):
                adapter.advance(state, index, SeqBag())
                nxt = tuple(state.values.snapshot())
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def test_lattice_linearity_enumerated_sssp():
    # Every reachable state that violates the relaxation-closure property
    # must expose at least one forbidden index.
    from llp.instances import example_graph

    inst = example_graph()
    adapter = adapter_for("sssp", inst)
    arcs = inst.graph.arcs()
    start = adapter.init_state().values.snapshot()
    for values in _reachable_states(adapter, start):
        state = GlobalState(list(values))
        satisfied = all(values[v] <= values[u] + w for u, v, w in arcs if values[u] != INF)
        if not satisfied:
            assert any(adapter.is_forbidden(state, i) for i in range(adapter.size))


def test_lattice_linearity_enumerated_sm():
    for seed in range(6):
        inst = generate("sm:n=3", seed)
        adapter = adapter_for("sm", inst)
        wrank = adapter.wrank
        for values in _reachable_states(adapter, [0, 0, 0]):
            state = GlobalState(list(values))
            # Independent statement of the predicate: no man is beaten at
            # the woman he currently targets.
            beaten = []
            for m in range(3):
                w = inst.mprefs[m][values[m]]
                beaten.append(
                    any(
                        r != m
                        and inst.mprefs[r][values[r]] == w
                        and wrank[w][r] < wrank[w][m]
                        for r in range(3)
                    )
                )
            if any(beaten):
                assert any(adapter.is_forbidden(state, i) for i in range(3))
