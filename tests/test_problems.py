"""Per-problem adapters against their independent oracles."""

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
from llp.core import INF, GlobalState, MalformedInstanceError
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
    unpack_reachability,
)
from llp.solvers import SEQUENTIAL_STRATEGIES, STRATEGIES, SolverConfig, solve
from llp.worklists import SeqBag

SUITE_SEEDS = 100


def _suite(problem, spec_of):
    """Solve 100 seeded instances with the bag solver, yield (instance, got)."""
    rng = SplitMix64(0xBEEF ^ hash(problem) % (2**32))
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
    # allpar drives ensure_batch on these adapters.  Sparse random arcs
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
            got = solve(adapter, strategy="allpar", threads=threads)
            assert np.array_equal(got, want), (draw, threads)


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
        assert np.array_equal(got, dp_row_knapsack(inst.weights, inst.values, inst.capacity))


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
