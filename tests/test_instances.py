"""Instance generation: determinism, grammar, file loading."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llp.bench import fnv1a_64
from llp.instances import (
    CsrGraph,
    FormatError,
    ParseError,
    SplitMix64,
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


def test_missing_file_raises_io_error():
    with pytest.raises(OSError):
        load_graph("/nonexistent/definitely-not-here.gr", "dimacs-gr")


def test_file_spec_dispatches_on_extension(tmp_path):
    path = tmp_path / "g.gr"
    path.write_text("p sp 3 2\na 1 2 4\na 2 3 1\n")
    inst = generate(f"file:{path}", 0)
    assert inst.graph.num_vertices == 3
    assert inst.graph.num_edges == 2
