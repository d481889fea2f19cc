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
from llp.solvers import SEQUENTIAL_STRATEGIES, STRATEGIES, SolverConfig, solve
from llp.worklists import RandomOrderBag, SeqBag

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


@pytest.mark.parametrize("adapter_class", [ShortestPaths, BreadthFirstLevels])
@pytest.mark.parametrize("seed", range(4))
def test_forbidden_batch_agrees_with_is_forbidden(adapter_class, seed):
    # The scalar check is the reference for the vector post-solve scan.
    # States are random, not fixed points: INF cells and cells near INF,
    # the source at any value and with in-arcs, vertices without in-arcs,
    # duplicate arcs both lighter and heavier, shuffled index subsets.
    # Each witness is the value the scalar advance writes.
    rng = SplitMix64(0xF0B ^ seed)
    pool = [INF, INF - 1, INF - 4, 0, 1, 2, 3, 5, 8, 13, 21]
    found = 0
    for draw in range(20):
        n = rng.uniform(1, 60)
        source = rng.below(n)
        arcs = [(rng.below(n), rng.below(n), rng.uniform(1, 9)) for _ in range(rng.uniform(0, 2 * n))]
        arcs += [(u, v, rng.uniform(1, 12)) for u, v, _w in arcs[::2]]
        adapter = adapter_class(CsrGraph.from_edges(n, arcs), source)
        cells = [pool[rng.below(len(pool))] for _ in range(n)]
        values = np.array(cells, dtype=np.uint64)
        state = GlobalState(cells)
        order = list(range(n))
        rng.shuffle(order)
        indices = np.array(order[: rng.uniform(0, n)], dtype=np.int64)
        forbidden, witnesses = adapter.forbidden_batch(values, indices)
        assert forbidden.tolist() == [v for v in indices.tolist() if adapter.is_forbidden(state, v)], draw
        assert values.tolist() == cells and state.values.snapshot() == cells
        for v, witness in zip(forbidden.tolist(), witnesses.tolist()):
            probe = GlobalState(cells)
            assert adapter.advance(probe, v, SeqBag())
            assert probe.values.load(v) == witness, (draw, v)
        found += len(forbidden)
    assert found > 0


def test_bfs_adjacency_matches_the_weighted_lists():
    # Arc targets in CSR order, duplicates and empty rows included.
    graph = CsrGraph.from_edges(7, [(0, 1, 1), (0, 1, 4), (1, 2, 2), (3, 1, 1), (2, 0, 5), (3, 2, 1)])
    for g in (graph, generate("randgraph:n=300,m=900,wmax=9", 2).graph):
        adapter = BreadthFirstLevels(g, source=0)
        assert adapter._out == [[v for v, _w in row] for row in g.adjacency_lists()]
        assert adapter._in == [[v for v, _w in row] for row in g.reversed().adjacency_lists()]


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
        adapter = adapter_for(problem, generate(spec, 10 * seed + draw), tile_width=16)
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
