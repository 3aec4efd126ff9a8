"""Graph container, loaders and modularity tests."""

import math
import random
import re
from fractions import Fraction
from functools import reduce
from itertools import combinations, islice
from operator import add
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commdetect import (
    Graph,
    Partition,
    connected_components,
    load_edge_list,
    modularity,
    random_graph,
    serialize_edge_list,
)
from commdetect.graph import _BULK_MAX_P, _BULK_MIN_N, _bulk_pairs, _fold
from commdetect.louvain import aggregate
from helpers import path_graph, random_suite, two_triangles
from oracles import modularity_direct, random_graph_per_pair
from strategies import small_fractional_weighted_graphs, small_integer_weighted_graphs


def test_graph_basics():
    g = Graph(3, [(2, 0), (0, 1)])
    assert g.node_count == 3
    assert g.edge_count == 2
    assert list(g.edges()) == [(0, 1, 1.0), (0, 2, 1.0)]
    assert g.has_edge(1, 0)
    assert g.neighbors(0).get(2, 0.0) == 1.0
    assert g.neighbors(1).get(2, 0.0) == 0.0
    assert g.degree(0) == 2
    assert g.total_weight == 2.0


def test_graph_rejects_bad_edges():
    for edges, pair in (([(0, 1), (1, 0)], "(0, 1)"), ([(1, 1), (0, 1), (1, 1, 3.0)], "(1, 1)")):
        with pytest.raises(ValueError, match=re.escape(f"duplicate edge {pair}")):
            Graph(2, edges)
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1, 0.0)])
    with pytest.raises(ValueError, match=r"non-positive weight -3\.0"):
        Graph(2, [(0, 1, -3.0)])
    with pytest.raises(ValueError, match=r"edge \(0, 1\) has weight nan, which is not a number"):
        Graph(2, [(0, 1, math.nan)])
    # Past the largest double, float() of an int or a Fraction overflows.
    for w in (math.inf, -math.inf, 10**400, Fraction(10**400, 3)):
        with pytest.raises(ValueError, match=r"edge \(0, 1\)"):
            Graph(3, [(1, 2), (0, 1, w)])
    # the total weight m, or the degree sum 2m, overflows
    for n, edges in ((3, [(0, 1, 1e308), (1, 2, 1e308)]), (2, [(0, 1, 1e308)]), (1, [(0, 0, 1e308)])):
        with pytest.raises(ValueError, match="overflows"):
            Graph(n, edges)
    with pytest.raises(ValueError):
        Graph(-1)
    for count in (3.5, "3", True, None):
        with pytest.raises(ValueError, match=re.escape(f"got {count!r}")):
            Graph(count, [(0, 1)])
    for edge in ((0, 1, 1.0, 2), (0,), 5, None, "01"):
        with pytest.raises(ValueError, match=re.escape(f"edge {edge!r} is not")):
            Graph(3, [(1, 2), edge])
    for w in ("x", None, True, [1.0]):
        with pytest.raises(ValueError, match=re.escape(f"edge (0, 1) has non-numeric weight {w!r}")):
            Graph(3, [(1, 2), (0, 1, w)])


def test_graph_rejects_bool_node_ids():
    for edge in ((True, 2), (0, False)):
        with pytest.raises(ValueError, match=rf"\({edge[0]!r}, {edge[1]!r}\)"):
            Graph(3, [(0, 1), edge])


def test_neighbors_and_has_edge_reject_bad_node_ids(karate):
    # Unchecked, -1 and True would index the adjacency list as 33 and 1.
    for bad in (-1, 34, True, False, 1.0, "0"):
        with pytest.raises(ValueError, match=rf"node {re.escape(repr(bad))} out of range 0\.\.33"):
            karate.neighbors(bad)
        for pair in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError, match=rf"node {re.escape(repr(bad))} out of range"):
                karate.has_edge(*pair)
    assert karate.has_edge(33, 32) and not karate.has_edge(0, 33)


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph(3, [(0, 1)])
    assert a != Graph(4, [(0, 1), (1, 2)])
    # Against another type it defers: the other side's __eq__ decides.
    assert Graph(1) != 1 and not Graph(1) == 1
    assert Graph(1) == mock.ANY


def test_weighted_degree():
    g = Graph(4, [(0, 1), (1, 2)])
    assert g.weighted_degree(3) == 0.0
    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert all(tri.weighted_degree(i) == 2.0 for i in range(3))
    # one self-loop of weight 3 counts twice, plus one unit edge
    loops = Graph(2, [(0, 0, 3.0), (0, 1)])
    assert loops.weighted_degree(0) == 7.0
    assert loops.degree(0) == 1
    for bad in (4, True, False):
        for read in (g.weighted_degree, g.degree):
            with pytest.raises(ValueError, match=rf"node {bad!r} out of range"):
                read(bad)


def test_degree_sum_is_twice_total_weight():
    for g in random_suite(20, 2, 9, (0.3, 0.7), 400):
        total = sum(g.weighted_degree(i) for i in range(g.node_count))
        assert total == pytest.approx(2.0 * g.total_weight, abs=1e-12)


def test_load_edge_list_basic():
    g = load_edge_list("0 1\n1 2")
    assert g.node_count == 3
    assert g.edge_count == 2
    assert all(w == 1.0 for _, _, w in g.edges())

    empty = load_edge_list("")
    assert empty.node_count == 0
    assert empty.edge_count == 0

    weighted = load_edge_list("# comment\n\n0 1 2.5\n1 2\n")
    assert weighted.neighbors(0).get(1, 0.0) == 2.5
    assert weighted.neighbors(1).get(2, 0.0) == 1.0


def test_load_edge_list_errors_name_the_line():
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list("0 1\n0 1 2 3")
    with pytest.raises(ValueError, match="line 1"):
        load_edge_list("a b")
    with pytest.raises(ValueError, match="line 3"):
        load_edge_list("0 1\n1 2\n2 0 -1")
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list("0 1\n1 0")
    with pytest.raises(ValueError, match="line 1"):
        load_edge_list("-1 0")
    with pytest.raises(ValueError, match="line 1.*finite"):
        load_edge_list("0 1 inf\n1 2 1\n2 3 1\n")
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list("0 1\n1 2 nan\n")
    with pytest.raises(ValueError, match="line 1: bad edge weight"):
        load_edge_list("0 1 abc")
    # Each weight is finite, but 2m is not.
    with pytest.raises(ValueError, match="twice the total edge weight overflows to infinity"):
        load_edge_list("0 1 1e308\n1 2 1e308")
    # Refused by the line, before a graph of 10**7 nodes is built.
    with pytest.raises(ValueError, match=r"line 2: node ids must lie in 0\.\.9999999"):
        load_edge_list(f"0 1\n1 {10**7}\n")
    # int() and float() would read these as 10, 1 and 10.0.
    for text in ("0 1_0", "0 1\n0 \u0661", "0 1\n1 2\n2 3 1_0", "0 \uff11 1"):
        with pytest.raises(ValueError, match=f"line {text.count(chr(10)) + 1}: ids and weights must be ASCII"):
            load_edge_list(text)


def test_load_edge_list_accepts_line_iterables():
    g = load_edge_list(iter(["0 1", "# skip", "1 2 4"]))
    assert g.node_count == 3
    assert g.neighbors(1).get(2, 0.0) == 4.0


def test_serialize_round_trip():
    for g in random_suite(30, 2, 10, (0.5, 0.9), 777):
        if not g.neighbors(g.node_count - 1):
            continue  # trailing isolated nodes cannot survive an edge list
        assert load_edge_list(serialize_edge_list(g)) == g
    assert serialize_edge_list(Graph(0)) == ""


def test_load_million_edge_file(tmp_path):
    pairs = islice(combinations(range(1500), 2), 1_000_000)
    path = tmp_path / "big.edgelist"
    path.write_text("".join(f"{u} {v}\n" for u, v in pairs), encoding="utf-8")
    with open(path, "r", encoding="utf-8") as handle:
        g = load_edge_list(handle)
    assert g.edge_count == 1_000_000


def test_karate_fixture(karate):
    assert karate.node_count == 34
    assert karate.edge_count == 78
    assert karate.total_weight == 78.0
    assert karate.has_edge(0, 1)
    assert karate.has_edge(32, 33)
    assert not karate.has_self_loops()


def test_random_graph():
    assert random_graph(5, 0.0, 1).edge_count == 0
    complete = random_graph(4, 1.0, 1)
    assert complete.edge_count == 6
    assert random_graph(30, 0.2, 9) == random_graph(30, 0.2, 9)
    assert random_graph(30, 0.2, 9) != random_graph(30, 0.2, 10)
    with pytest.raises(ValueError):
        random_graph(5, 1.5, 1)
    with pytest.raises(ValueError):
        random_graph(5, -0.1, 1)
    with pytest.raises(ValueError):
        random_graph(-2, 0.5, 1)
    for n, p in (("3", 0.5), (3.5, 0.5), (True, 0.5), (4, "0.5")):
        bad = p if type(n) is int else n
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            random_graph(n, p, 0)
    # None would seed from the system and draw a new graph on every call.
    for seed in (None, 1.5, "1", True):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            random_graph(5, 0.5, seed)


# Edge probabilities whose cutoff ceil(p * 2**53) makes the bulk draw read
# the whole of a pair's two words: inside a top-byte bucket (0.004, 0.3,
# 1 - 2**-40), on a bucket's lower edge (1/256), above only the zero draw
# (the smallest subnormal), and exact non-floats.
_EDGE_PROBABILITIES = (0.004, 0.3, 0.00390625, 5e-324, 1 - 2**-40, Fraction(1, 3), 0, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 240),
       st.one_of(st.sampled_from(_EDGE_PROBABILITIES), st.floats(0, 2 * _BULK_MAX_P), st.floats(0, 1)),
       st.integers(-2**70, 2**70))
@example(240, 0.004, -1)
@example(240, 0.00390625, 2**64 + 1)
@example(240, 5e-324, 0)
@example(_BULK_MIN_N, _BULK_MAX_P, -2**64 - 7)
@example(_BULK_MIN_N - 1, 0.004, 3)
@example(_BULK_MIN_N, math.nextafter(_BULK_MAX_P, 1), 3)
@example(200, 0.3, 2)
@example(200, 1 - 2**-40, 1)
@example(200, Fraction(1, 3), 2)
@example(200, 0, 1)
@example(200, 1, 1)
def test_random_graph_matches_the_per_pair_oracle(n, p, seed):
    expected = random_graph_per_pair(n, p, seed)
    g = random_graph(n, p, seed)
    assert g._edges == expected._edges
    assert [list(a.items()) for a in g._adj] == [list(a.items()) for a in expected._adj]
    assert g._m.hex() == expected._m.hex()
    # The bulk draw itself, whichever side of the (n, p) rule this is on.
    assert _bulk_pairs(random.Random(seed), n, p) == list(expected._edges)


def test_connected_components():
    assert connected_components(path_graph(3)).num_communities == 1
    assert connected_components(two_triangles()).num_communities == 2
    assert connected_components(Graph(3)).labels == (0, 1, 2)
    parts = connected_components(two_triangles())
    assert parts.labels == (0, 0, 0, 1, 1, 1)


def test_partition_api():
    p = Partition([4, 7, 4, 9])
    assert len(p) == 4
    assert p.num_communities == 3
    assert p.canonicalize().labels == (0, 1, 0, 2)
    groups = {}
    for node, lab in enumerate(p.labels):
        groups.setdefault(lab, []).append(node)
    assert groups == {4: [0, 2], 7: [1], 9: [3]}
    d = p.to_dict(modularity=0.25)
    assert d == {"labels": [4, 7, 4, 9], "num_communities": 3, "modularity": 0.25}
    assert Partition([0, 1]) == Partition((0, 1))
    assert Partition([0]) != (0,) and not Partition([0]) == [0]
    assert Partition([0]) == mock.ANY
    assert repr(Partition((1, 0, 1))) == "Partition([1, 0, 1])"
    with pytest.raises(ValueError):
        Partition([0, -1])
    with pytest.raises(ValueError):
        Partition([0.5, 1])
    # a bool would otherwise share a community with the int it equals
    with pytest.raises(ValueError, match="got True"):
        Partition([True, 1, 0])
    # Labels that are not all exact non-negative ints are checked in order.
    with pytest.raises(ValueError, match="got -1"):
        Partition([2, -1, 1.5])

    class Label(int):
        pass

    assert Partition([Label(3), 1, Label(3)]).canonicalize().labels == (0, 1, 0)
    assert Partition([]).canonicalize().labels == ()


def test_modularity_reference_values():
    tri2 = two_triangles()
    assert modularity(tri2, [0, 0, 0, 1, 1, 1]) == pytest.approx(0.5, abs=1e-12)
    for g in random_suite(20, 2, 9, (0.4, 0.8), 52):
        assert modularity(g, [0] * g.node_count) == pytest.approx(0.0, abs=1e-12)
        two_m = 2.0 * g.total_weight
        singleton = -sum((g.weighted_degree(i) / two_m) ** 2 for i in range(g.node_count))
        assert modularity(g, range(g.node_count)) == pytest.approx(singleton, abs=1e-12)


def test_modularity_matches_direct_oracle():
    for seed, g in enumerate(random_suite(40, 2, 10, (0.3, 0.6), 90)):
        labels = [(i * (seed + 2)) % 3 for i in range(g.node_count)]
        assert modularity(g, labels) == pytest.approx(
            modularity_direct(g, labels), abs=1e-12
        )
    # self-loops and weights follow the same doubled-diagonal convention
    g = Graph(4, [(0, 0, 2.0), (0, 1, 3.0), (1, 2), (2, 3, 0.5)])
    for labels in ([0, 0, 1, 1], [0, 1, 2, 3], [0] * 4):
        assert modularity(g, labels) == pytest.approx(
            modularity_direct(g, labels), abs=1e-12
        )


def test_modularity_errors():
    g = path_graph(3)
    with pytest.raises(ValueError):
        modularity(Graph(3), [0, 0, 0])
    with pytest.raises(ValueError):
        modularity(g, [0, 0])
    for labels in ([0, 0.5, 1], [0, 0, "a"], [1.0, 1, 0], [0, -1, 0], [True, 1, 0]):
        bad = next(lab for lab in labels if type(lab) is not int or lab < 0)
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            modularity(Graph(3, [(0, 1), (1, 2)]), labels)


def test_modularity_accepts_partition_objects():
    g = path_graph(4)
    labels = [0, 0, 1, 1]
    assert modularity(g, Partition(labels)) == modularity(g, labels)


@st.composite
def _weighted_graphs_and_labels(draw):
    """A fractional- or integer-weighted graph, possibly contracted so that
    it carries self-loops, with labels drawn from 0..10**9."""
    g = draw(st.one_of(small_integer_weighted_graphs(), small_fractional_weighted_graphs()))
    if draw(st.booleans()):
        g = aggregate(g, draw(st.lists(st.integers(0, 3), min_size=g.node_count, max_size=g.node_count)))[0]
    labels = draw(st.lists(st.integers(0, 10**9), min_size=g.node_count, max_size=g.node_count))
    return g, labels


@settings(max_examples=200, deadline=None)
@given(_weighted_graphs_and_labels())
def test_modularity_ignores_label_names_bit_for_bit(case):
    g, labels = case
    for i in range(g.node_count):
        adj = g.neighbors(i)
        assert g.weighted_degree(i).hex() == (reduce(add, adj.values(), 0) + adj.get(i, 0.0)).hex()
    canonical = Partition(labels).canonicalize()
    assert modularity(g, labels).hex() == modularity(g, canonical).hex()


# Compensated summation, which sum() does from CPython 3.12 on, folds
# both of these to 1.0.
_LEFT_FOLDS = {(1e16, 1.0, -1e16): 0.0, (0.1,) * 10: 0.9999999999999999}


@given(st.lists(st.floats(allow_nan=False)))
@example([1e16, 1.0, -1e16])
@example([0.1] * 10)
def test_fold_matches_reduce_on_every_interpreter(xs):
    # reduce adds left to right on every CPython, so _fold must too.
    assert repr(_fold(xs)) == repr(reduce(add, xs, 0))
    assert repr(_fold(iter(xs))) == repr(reduce(add, xs, 0))
    if tuple(xs) in _LEFT_FOLDS:
        assert _fold(xs).hex() == _LEFT_FOLDS[tuple(xs)].hex()
