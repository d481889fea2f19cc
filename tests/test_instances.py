"""Instance generation: determinism, grammar, file loading."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llp.bench import fnv1a_64
from llp.instances import (
    CsrGraph,
    DagInstance,
    FormatError,
    GraphInstance,
    ParseError,
    PrefsInstance,
    SplitMix64,
    ValuesInstance,
    example_graph,
    generate,
    instance_bytes,
    load_graph,
)


def test_splitmix64_reference_vectors():
    # Frozen outputs of the reference splitmix64 for seed 1234567.
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix64_zero_seed_is_well_defined():
    rng = SplitMix64(0)
    first = rng.next_u64()
    assert 0 < first < 2**64


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_splitmix64_below_stays_in_range(seed, n):
    assert SplitMix64(seed).below(n) < n


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 1000])
def test_draws_match_successive_next_u64(seed, count):
    scalar, block = SplitMix64(seed), SplitMix64(seed)
    expected = [scalar.next_u64() for _ in range(count)]
    got = block.draws(count)
    assert got.dtype == np.uint64
    assert got.tolist() == expected
    assert block._state == scalar._state
    assert block.next_u64() == scalar.next_u64()


def _scalar_reference(spec, seed):
    """The generators as they were before block draws: one ``next_u64`` per draw."""
    name, _, body = spec.partition(":")
    params = dict(part.split("=") for part in body.split(","))
    n = int(params["n"])
    rng = SplitMix64(seed)
    if name == "randgraph":
        edges = []
        for _ in range(int(params["m"])):
            u = rng.below(n)
            v = rng.below(n)
            if u == v:
                v = (v + 1) % n
            w = rng.uniform(1, int(params.get("wmax", 100)))
            edges.append((u, v, w))
        return GraphInstance("graph", CsrGraph.from_edges(n, edges).symmetrized(), spec=spec)
    if name in ("dag", "closuredag"):
        p = float(params["p"])
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.chance(p):
                    edges.append((i, j, 1))
        graph = CsrGraph.from_edges(n, edges)
        if name == "closuredag":
            return GraphInstance("digraph", graph, spec=spec)
        return DagInstance("dag", graph, [rng.uniform(1, 80) for _ in range(n)], spec=spec)
    if name == "sm":
        def shuffled():
            xs = list(range(n))
            for i in range(n - 1, 0, -1):
                j = rng.below(i + 1)
                xs[i], xs[j] = xs[j], xs[i]
            return xs

        mprefs = [shuffled() for _ in range(n)]
        wprefs = [shuffled() for _ in range(n)]
        return PrefsInstance("sm", mprefs, wprefs, spec=spec)
    assert name == "reduce"
    return ValuesInstance("reduce", [rng.below(2**32) for _ in range(n)], spec=spec)


@pytest.mark.parametrize("seed", [1, 2**64 - 1])
@pytest.mark.parametrize(
    "spec",
    [
        "randgraph:n=1,m=3",
        "randgraph:n=2,m=50,wmax=1",
        "randgraph:n=8000,m=32000",
        "dag:n=40,p=0",
        "dag:n=40,p=1",
        "closuredag:n=60,p=0.1",
        "sm:n=1",
        "sm:n=30",
        "reduce:n=1000",
    ],
)
def test_block_draws_give_the_scalar_generators_bytes(spec, seed):
    assert instance_bytes(generate(spec, seed)) == instance_bytes(_scalar_reference(spec, seed))


def test_shuffle_is_a_permutation():
    rng = SplitMix64(7)
    xs = list(range(50))
    rng.shuffle(xs)
    assert sorted(xs) == list(range(50))
    assert xs != list(range(50))  # astronomically unlikely to be identity


def test_chain_five_has_four_unit_arcs():
    inst = generate("chain:5", 0)
    g = inst.graph
    assert g.num_vertices == 5
    assert g.num_edges == 4
    assert all(w == 1 for _u, _v, w in g.arcs())
    assert g.arcs() == [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]


def test_single_couple_preferences():
    inst = generate("sm:n=1", 0)
    assert inst.mprefs == [[0]]
    assert inst.wprefs == [[0]]


def test_dag_generation_is_bit_exact_across_runs():
    a = generate("dag:n=10,p=0.2", 42)
    b = generate("dag:n=10,p=0.2", 42)
    assert a.graph.arcs() == b.graph.arcs()
    assert a.durations == b.durations
    assert instance_bytes(a) == instance_bytes(b)


@pytest.mark.parametrize(
    "spec",
    [
        "chain:9",
        "randgraph:n=20,m=35,wmax=7",
        "dag:n=15,p=0.3",
        "closuredag:n=12,p=0.25",
        "sm:n=8",
        "knap:n=9,cap=30,wmax=10,vmax=12",
        "reduce:n=17",
    ],
)
def test_generator_determinism_byte_identical(spec):
    assert instance_bytes(generate(spec, 5)) == instance_bytes(generate(spec, 5))
    if spec != "chain:9":  # chains carry no random draws
        assert instance_bytes(generate(spec, 5)) != instance_bytes(generate(spec, 6))


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("chain:9", "1fa1cb0dd0eea374"),
        ("randgraph:n=20,m=35,wmax=7", "a57dd90f58f91dde"),
        ("dag:n=15,p=0.3", "bc14272cd82d69a2"),
        ("closuredag:n=12,p=0.25", "2dd32c792de4a62c"),
        ("sm:n=8", "a6ba25bd7673cfb0"),
        ("knap:n=9,cap=30,wmax=10,vmax=12", "e86db327fc41ee36"),
        ("reduce:n=17", "ce5fb2e4a37ff9c9"),
    ],
)
def test_generated_bytes_are_pinned(spec, expected):
    # Frozen hashes: a change to the draws, the arc order or the
    # serialization breaks every fingerprint recorded before it.
    assert f"{fnv1a_64(instance_bytes(generate(spec, 5))):016x}" == expected


def test_dag_durations_in_documented_range():
    inst = generate("dag:n=200,p=0.2", 3)
    assert all(1 <= t <= 80 for t in inst.durations)


def test_knap_draw_ranges():
    inst = generate("knap:n=50,cap=100,wmax=12,vmax=9", 1)
    assert all(1 <= w <= 12 for w in inst.weights)
    assert all(1 <= v <= 9 for v in inst.values)


def test_randgraph_is_symmetric_with_positive_weights():
    g = generate("randgraph:n=30,m=50,wmax=6", 2).graph
    arcs = {(u, v): w for u, v, w in g.arcs()}
    assert all(w >= 1 for w in arcs.values())
    for (u, v), w in arcs.items():
        assert arcs.get((v, u)) == w


def test_example_graph_shape():
    inst = example_graph()
    assert inst.graph.num_vertices == 4
    assert inst.graph.num_edges == 8  # four undirected edges, both arcs


def test_csr_round_trip_keeps_edge_multiset():
    edges = [(0, 1, 3), (0, 1, 3), (2, 0, 5), (1, 2, 1)]
    g = CsrGraph.from_edges(3, edges)
    assert sorted(g.arcs()) == sorted(edges)
    assert sorted(g.reversed().arcs()) == sorted((v, u, w) for u, v, w in edges)


@pytest.mark.parametrize("n", [65536, 65537])
def test_csr_sort_matches_the_int64_stable_sort(n):
    # Up to 65536 vertices the sources are sorted as uint16, above as int64;
    # both must give the int64 stable permutation, ties in input order.
    sources = (SplitMix64(n).draws(200_000) % np.uint64(n)).astype(np.int64)
    sources[:2] = n - 1, 0
    arcs = np.arange(len(sources), dtype=np.int64)
    g = CsrGraph._from_arcs(n, sources, arcs, arcs.astype(np.uint64))
    assert np.array_equal(g.targets, np.argsort(sources, kind="stable"))
    assert np.array_equal(g.offsets[1:], np.cumsum(np.bincount(sources, minlength=n)))


@pytest.mark.parametrize(
    "n,edges,arcs,reversed_arcs,successors,in_degrees",
    [
        (3, [], [], [], [[], [], []], [0, 0, 0]),
        (
            4,
            [(3, 0, 2), (0, 3, 1), (0, 3, 1), (3, 1, 4), (0, 1, 7)],
            [(0, 3, 1), (0, 3, 1), (0, 1, 7), (3, 0, 2), (3, 1, 4)],
            [(0, 3, 2), (1, 0, 7), (1, 3, 4), (3, 0, 1), (3, 0, 1)],
            [[3, 3, 1], [], [], [0, 1]],
            [1, 2, 0, 2],
        ),
    ],
    ids=["no-arcs", "isolated-vertex-and-duplicates"],
)
def test_csr_views_keep_row_order(n, edges, arcs, reversed_arcs, successors, in_degrees):
    g = CsrGraph.from_edges(n, edges)
    assert g.arcs() == arcs
    assert g.reversed().arcs() == reversed_arcs
    assert g.successor_lists() == successors
    assert g.in_degrees() == in_degrees
    both = CsrGraph.from_edges(n, arcs + [(v, u, w) for u, v, w in arcs])
    sym = g.symmetrized()
    assert sym.arcs() == both.arcs()
    assert np.array_equal(sym.offsets, both.offsets)


def test_list_views_share_one_int_per_vertex():
    g = CsrGraph.from_edges(1000, [(0, 999, 1), (1, 999, 2), (2, 998, 3)])
    succ, adj = g.successor_lists(), g.adjacency_lists()
    assert succ[0][0] == 999
    assert succ[0][0] is succ[1][0]
    assert adj[0][0][0] is adj[1][0][0]


def test_csr_rejects_inconsistent_offsets():
    with pytest.raises(ValueError):
        CsrGraph(2, [0, 1], [0], [1])  # offsets too short
    with pytest.raises(ValueError):
        CsrGraph(2, [0, 0, 2], [0], [1])  # last offset != edge count


@pytest.mark.parametrize(
    "spec",
    [
        "mystery:n=3",
        "chain:x",
        "chain:0",
        "dag:n=5",  # missing p
        "dag:n=5,p=2.0",
        "randgraph:n=5,m=abc",
        "knap:n=0,cap=5",
        "sm:n=5,extra=1",  # hmm: unknown key is tolerated? keep strict below
    ],
)
def test_bad_specs_raise_parse_error(spec):
    with pytest.raises(ParseError):
        generate(spec, 0)


def test_huge_dag_pair_count_overflows():
    with pytest.raises(OverflowError):
        generate("dag:n=4000000000,p=0.5", 0)


def test_load_dimacs_graph(tmp_path):
    path = tmp_path / "tiny.gr"
    path.write_text("c comment line\np sp 2 1\na 1 2 5\n")
    g = load_graph(str(path), "dimacs-gr")
    assert g.num_vertices == 2
    assert g.arcs() == [(0, 1, 5)]


def test_load_empty_edge_list_gives_empty_graph(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    g = load_graph(str(path), "edge-list")
    assert g.num_vertices == 0
    assert g.num_edges == 0


def test_load_edge_list_with_default_weights(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# header\n0 1\n1 2 7\n")
    g = load_graph(str(path), "edge-list")
    assert g.num_vertices == 3
    assert sorted(g.arcs()) == [(0, 1, 1), (1, 2, 7)]
    sym = load_graph(str(path), "edge-list", symmetrize=True)
    assert sym.num_edges == 4


def test_malformed_arc_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.gr"
    path.write_text("p sp 2 1\na 1\n")
    with pytest.raises(FormatError) as err:
        load_graph(str(path), "dimacs-gr")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "name,fmt,text,line",
    [
        ("bad-count.gr", "dimacs-gr", "p sp x 3\n", 1),
        ("negative-weight.gr", "dimacs-gr", "p sp 2 1\na 1 2 -4\n", 2),
        ("negative-weight.txt", "edge-list", "0 1 2\n0 1 -4\n", 2),
        ("huge-weight.txt", "edge-list", "# w >= 2**64\n0 1 99999999999999999999999\n", 2),
        ("huge-vertex.txt", "edge-list", "0 1\n0 99999999999999999999999 1\n", 2),
        ("huge-vertex.gr", "dimacs-gr", f"p sp 2 1\na {2**63 + 1} 1 1\n", 2),
        ("past-count.gr", "dimacs-gr", "p sp 3 3\na 1 2 1\na 2 4 1\na 3 1 1\n", 3),
    ],
    ids=["non-integer-vertex-count", "dimacs-negative-weight", "edge-list-negative-weight",
         "edge-list-weight-beyond-u64", "edge-list-vertex-beyond-int64",
         "dimacs-vertex-beyond-int64", "dimacs-vertex-past-declared-count"],
)
def test_malformed_numbers_report_line_number(tmp_path, name, fmt, text, line):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(FormatError) as err:
        load_graph(str(path), fmt)
    assert err.value.line == line


def test_largest_u64_weight_loads(tmp_path):
    path = tmp_path / "max-weight.txt"
    path.write_text(f"0 1 {2**64 - 1}\n")
    assert load_graph(str(path), "edge-list").arcs() == [(0, 1, 2**64 - 1)]


def test_missing_file_raises_io_error():
    with pytest.raises(OSError):
        load_graph("/nonexistent/definitely-not-here.gr", "dimacs-gr")


def test_file_spec_dispatches_on_extension(tmp_path):
    path = tmp_path / "g.gr"
    path.write_text("p sp 3 2\na 1 2 4\na 2 3 1\n")
    inst = generate(f"file:{path}", 0)
    assert inst.graph.num_vertices == 3
    assert inst.graph.num_edges == 2
