"""Neighbor-matrix, hierarchical clustering, dendrogram, and HSL-cut tests."""

import heapq
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commdetect import (
    Dendrogram,
    Graph,
    HslSpec,
    Linkage,
    Merge,
    agglomerate,
    cut,
    euclidean_distance,
    fastgreedy,
    neighbor_matrix,
)
from commdetect import agglomerative
from commdetect.agglomerative import linkage_distance
import identity
from helpers import complete_graph, path_graph, random_suite, star_graph
from oracles import agglomerate_direct, cut_direct
from strategies import small_integer_weighted_graphs


def test_neighbor_matrix_examples():
    pair = Graph(2, [(0, 1)])
    plain = neighbor_matrix(pair, self_neighboring=False)
    assert plain.shared(0, 1) == 0
    assert plain.effective_degree == (1, 1)
    selfn = neighbor_matrix(pair, self_neighboring=True)
    assert selfn.shared(0, 1) == 2
    assert selfn.effective_degree == (2, 2)

    p3 = path_graph(3)
    assert neighbor_matrix(p3).shared(0, 2) == 1
    assert neighbor_matrix(p3).shared(0, 1) == 0

    with pytest.raises(ValueError):
        neighbor_matrix(Graph(2, [(0, 0), (0, 1)]))
    with pytest.raises(ValueError):
        plain.shared(1, 1)


def test_neighbor_matrix_symmetry_and_shift_law():
    for g in random_suite(25, 2, 10, (0.3, 0.7), 1300):
        plain = neighbor_matrix(g, self_neighboring=False)
        selfn = neighbor_matrix(g, self_neighboring=True)
        nbrs = [set(g.neighbors(i)) for i in range(g.node_count)]
        for i in range(g.node_count):
            for j in range(i + 1, g.node_count):
                shared = len(nbrs[i] & nbrs[j])
                assert plain.shared(i, j) == plain.shared(j, i) == shared
                # under self-neighbouring each node is in its own set
                shared_self = len((nbrs[i] | {i}) & (nbrs[j] | {j}))
                assert selfn.shared(i, j) == selfn.shared(j, i) == shared_self
                d = (
                    plain.effective_degree[i]
                    + plain.effective_degree[j]
                    - 2 * plain.shared(i, j)
                )
                d_self = (
                    selfn.effective_degree[i]
                    + selfn.effective_degree[j]
                    - 2 * selfn.shared(i, j)
                )
                expected = d - 2 if g.has_edge(i, j) else d + 2
                assert d_self == expected


@st.composite
def wide_graphs(draw):
    """Simple graphs on 25..130 nodes, from sparse to complete, so that bit
    rows span one to five 30-bit int digits."""
    n = draw(st.integers(25, 130))
    p = draw(st.sampled_from((0.0, 0.02, 0.1, 0.3, 0.6, 0.95, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


@settings(max_examples=40, deadline=None)
@given(wide_graphs(), st.booleans())
def test_neighbor_matrix_counts_sets_across_int_digits(g, self_neighboring):
    nm = neighbor_matrix(g, self_neighboring)
    n = g.node_count
    sets = [set(g.neighbors(i)) | ({i} if self_neighboring else set()) for i in range(n)]
    assert nm.effective_degree == tuple(map(len, sets))
    for i in range(n):
        for j in range(i + 1, n):
            assert nm.shared(i, j) == nm.shared(j, i) == len(sets[i] & sets[j])
            assert euclidean_distance(nm, i, j) == euclidean_distance(nm, j, i) == len(sets[i] ^ sets[j])
    for bad in (-1, n, True, 1.0, 2**70):
        with pytest.raises(ValueError, match=rf"node {re.escape(repr(bad))} out of range 0\.\.{n - 1}$"):
            nm.shared(0, bad)
    with pytest.raises(ValueError, match="distinct nodes only"):
        euclidean_distance(nm, n - 1, n - 1)


def test_euclidean_distance_examples():
    pair = Graph(2, [(0, 1)])
    assert euclidean_distance(neighbor_matrix(pair), 0, 1) == 2
    assert euclidean_distance(neighbor_matrix(pair, self_neighboring=True), 0, 1) == 0
    p3 = path_graph(3)
    assert euclidean_distance(neighbor_matrix(p3), 0, 2) == 0
    with pytest.raises(ValueError):
        euclidean_distance(neighbor_matrix(p3), 1, 1)


def test_node_ids_are_checked_by_name(karate):
    # -1 would read node 33's degree and True node 1's counts.
    nm = neighbor_matrix(karate)
    for bad in (-1, 34, True, 1.0):
        message = rf"node {re.escape(repr(bad))} out of range 0\.\.33$"
        with pytest.raises(ValueError, match=message):
            euclidean_distance(nm, bad, 0)
        with pytest.raises(ValueError, match=message):
            euclidean_distance(nm, 0, bad)
        with pytest.raises(ValueError, match=message):
            nm.shared(bad, 2)
    assert euclidean_distance(nm, 33, 0) == 25
    assert nm.shared(1, 2) == nm.shared(2, 1)


def test_linkage_distance():
    dist = {(0, 1): 0.0, (0, 2): 4.0, (1, 2): 7.0}

    def pairwise(a, b):
        return dist[(a, b) if a < b else (b, a)]

    for kind in Linkage:
        assert linkage_distance(kind, (0,), (2,), pairwise) == 4.0
    assert linkage_distance("single", (0, 1), (2,), pairwise) == 4.0
    assert linkage_distance("complete", (0, 1), (2,), pairwise) == 7.0
    assert linkage_distance("average", (0, 1), (2,), pairwise) == 5.5
    # the average times the pair count recovers the plain sum
    avg = linkage_distance("average", (0, 1), (2,), pairwise)
    assert avg * 2 == pairwise(0, 2) + pairwise(1, 2)
    with pytest.raises(ValueError):
        linkage_distance("single", (), (1,), pairwise)
    with pytest.raises(ValueError):
        linkage_distance("radius", (0,), (1,), pairwise)


def test_agglomerate_tiny_graphs():
    assert agglomerate(Graph(1), "single").merges == ()
    lone_pair = agglomerate(Graph(2), "single")
    assert lone_pair.merges == (Merge(0, 1, 2, 0.0, 0),)
    with pytest.raises(ValueError):
        agglomerate(Graph(0), "single")


def test_agglomerate_path_merge_order():
    # path 0-1-2: the endpoints share node 1, so they merge first at 0
    d = agglomerate(path_graph(3), "single")
    assert d.merges[0] == Merge(0, 2, 3, 0.0, 0)
    assert d.merges[1] == Merge(1, 3, 4, 3.0, 1)


def test_agglomerate_linkage_affects_merge_distance():
    # self-neighboring path 0-1-2: adjacent pairs sit at distance 1,
    # the endpoints at 2, so {0,1} merges first and the final merge
    # distance separates the linkage kinds.
    for kind, final in (("single", 1.0), ("complete", 2.0), ("average", 1.5)):
        d = agglomerate(path_graph(3), kind, self_neighboring=True)
        assert d.merges[0] == Merge(0, 1, 3, 1.0, 0)
        assert d.merges[1].distance == final


def test_dendrogram_invariants():
    for g in random_suite(10, 2, 9, (0.4,), 60):
        n = g.node_count
        d = agglomerate(g, "average")
        assert d.leaves == n
        assert len(d.merges) == n - 1
        new_ids = [m.merged for m in d.merges]
        assert new_ids == [n + s for s in range(n - 1)]
        consumed = [m.left for m in d.merges] + [m.right for m in d.merges]
        assert len(consumed) == len(set(consumed))
        root = n + (n - 2) if n > 1 else 0
        assert set(consumed) == (set(range(n)) | set(new_ids)) - {root}


def test_dendrogram_records_round_trip():
    d = agglomerate(path_graph(4), "complete")
    records = d.to_records()
    assert len(records) == 3
    assert records[0].keys() == {"left", "right", "merged", "distance", "step"}
    assert [r["step"] for r in records] == [0, 1, 2]


def _merges(d):
    return [(m.left, m.right, m.distance) for m in d.merges]


def _two_blocks(n, seed):
    rng = random.Random(seed)
    half = n // 2
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if (u < half) == (v < half) and rng.random() < 0.6}
    edges |= {(rng.randrange(half), rng.randrange(half, n)) for _ in range(3)}
    return Graph(n, sorted(edges))


def test_agglomerate_matches_from_scratch_oracle():
    # Small random graphs, and 20-40-node random, star, complete and
    # two-block graphs, on which candidates are rescanned and tie often.
    rng = random.Random(2711)
    graphs = [*random_suite(24, 2, 8, (0.3, 0.6), 2100), *random_suite(4, 20, 40, (0.1, 0.25), 2711),
              star_graph(rng.randint(19, 39)), complete_graph(rng.randint(20, 40)),
              _two_blocks(rng.randint(20, 40), 2711)]
    for g in graphs:
        for kind in ("single", "complete", "average"):
            for self_neighboring in (False, True):
                d = agglomerate(g, kind, self_neighboring)
                assert _merges(d) == agglomerate_direct(g, kind, self_neighboring)


# The golden checks its records in the identity manifest (identity.py): every
# merge with distance.hex() under each linkage, with and without
# self-neighbouring, on a 200-node random graph and on graphs whose integer
# distances tie often.
def test_agglomerate_golden_on_ties():
    identity.check("agglomerative_tied")


def test_agglomerate_golden_on_dense_graphs():
    # Rows of 64-150 nodes span several int digits; on K40 every distance ties.
    identity.check("agglomerative_dense")


def test_candidate_rescans_after_its_cluster_merges_away():
    # Self-neighbouring 1-2 and 3-4 sit at 0 and merge into 5 and 6; node
    # 0 is 3 from every other node. 0's candidate is node 1; the new 5 and
    # 6 only tie it at 3, so it stays queued with 1 merged away, and at
    # the top it is rescanned over 5 and 6. Their tie goes to the older 5.
    d = agglomerate(Graph(5, [(1, 2), (3, 4)]), "single", self_neighboring=True)
    assert _merges(d) == [(1, 2, 0.0), (3, 4, 0.0), (0, 5, 3.0), (6, 7, 3.0)]
    # Node 1's candidate 2 merges into 3 with node 0; 1 then rescans and
    # finds 3, at the linkage of its distances 2 to 0 and 1 to 2.
    for kind, final in (("single", 1.0), ("complete", 2.0), ("average", 1.5)):
        assert _merges(agglomerate(Graph(3, [(0, 1)]), kind)) == [(0, 2, 1.0), (1, 3, final)]


def test_new_cluster_does_not_displace_a_tied_live_candidate():
    # Edgeless: every distance is 0. After 0 and 1 merge into 4, cluster
    # 2's candidate 3 ties the new 4 and keeps its place as the smaller id.
    for kind in Linkage:
        assert _merges(agglomerate(Graph(4), kind)) == [(0, 1, 0.0), (2, 3, 0.0), (4, 5, 0.0)]


def test_candidates_pair_each_cluster_with_a_larger_one(monkeypatch):
    # Every queued candidate (key, a, b) has b > a, or b == -1 when a has
    # none. A rescan over b < a too merges the same pairs, since b's own
    # candidate reaches the top first, so only the queue shows it.
    queued = []

    def record(op):
        def call(heap, entry):
            queued.append(entry)
            return op(heap, entry)
        return call

    recorder = SimpleNamespace(heapify=lambda heap: (queued.extend(heap), heapq.heapify(heap)),
                               heappop=heapq.heappop, heappush=record(heapq.heappush),
                               heapreplace=record(heapq.heapreplace))
    monkeypatch.setattr(agglomerative, "heapq", recorder)
    for g in random_suite(6, 20, 40, (0.1, 0.25), 2711):
        for kind in ("single", "complete", "average"):
            agglomerate(g, kind)
    assert queued and all(a < b or b == -1 for _, a, b in queued)


def test_agglomerate_calls_neighbor_matrix_through_the_module_global(monkeypatch, karate):
    # perfbench wraps agglomerative.neighbor_matrix to time the counts
    calls = []

    def spy(*args, _real=agglomerative.neighbor_matrix):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(agglomerative, "neighbor_matrix", spy)
    assert agglomerate(karate, "single", True).leaves == 34
    assert calls == [(karate, True)]


@st.composite
def small_graphs(draw):
    """Graphs on 1..12 nodes; edgeless, complete and star graphs are all ties."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(("random", "edgeless", "complete", "star")))
    if shape == "edgeless":
        return Graph(n)
    if shape == "complete":
        return complete_graph(n)
    if shape == "star":
        return star_graph(n - 1)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for pair, kept in zip(pairs, keep) if kept])


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.sampled_from(("single", "complete", "average")), st.booleans())
def test_agglomerate_matches_oracle_property(g, kind, self_neighboring):
    d = agglomerate(g, kind, self_neighboring)
    got = [(m.left, m.right, m.distance) for m in d.merges]
    assert got == agglomerate_direct(g, kind, self_neighboring)


@st.composite
def dendrograms(draw):
    """Complete dendrograms from agglomerate, under every linkage with and
    without self-neighbouring, and from fastgreedy, whose graphs are often
    disconnected, so that its last joins are force-joins."""
    if draw(st.booleans()):
        return fastgreedy(draw(small_integer_weighted_graphs()))[0]
    return agglomerate(draw(small_graphs()), draw(st.sampled_from(tuple(Linkage))), draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(dendrograms())
def test_cut_matches_direct_replay_at_every_undo(d):
    for undo in range(d.leaves):
        assert list(cut(d, HslSpec("absolute", undo)).labels) == cut_direct(d, undo)


def test_average_linkage_ties_across_cluster_sizes():
    # After {3,4} -> 6 and {0,2} -> 7, the pairs (5, 7) with pair-distance
    # sum 3 over 1x2 members and (6, 7) with sum 6 over 2x2 members both
    # sit at 1.5; the smaller (a, b) pair wins.
    d = agglomerate(Graph(6, [(1, 3), (1, 4), (2, 5)]), "average")
    assert [(m.left, m.right, m.distance) for m in d.merges] == [
        (3, 4, 0.0), (0, 2, 1.0), (5, 7, 1.5), (6, 8, 5 / 3), (1, 9, 2.8),
    ]


def test_hsl_spec_validation():
    HslSpec("absolute", 3)
    HslSpec("relative", 0.5)
    with pytest.raises(ValueError):
        HslSpec("diagonal", 0.5)
    with pytest.raises(ValueError):
        HslSpec("absolute", 1.5)
    with pytest.raises(ValueError):
        HslSpec("absolute", -1)
    with pytest.raises(ValueError):
        HslSpec("relative", 1.01)
    with pytest.raises(ValueError):
        HslSpec("relative", -0.01)
    for value in (float("inf"), float("-inf"), float("nan"), True, False):
        with pytest.raises(ValueError, match=rf"absolute cut value .* got {value!r}$"):
            HslSpec("absolute", value)
    for value in (1.01, -0.01, float("inf"), float("-inf"), float("nan"), True, False, "0.5", None):
        with pytest.raises(ValueError, match=rf"relative cut value must lie in \[0, 1\], got {re.escape(repr(value))}$"):
            HslSpec("relative", value)
    for value in (None, "3"):
        with pytest.raises(ValueError, match=rf"absolute cut value .* got {re.escape(repr(value))}$"):
            HslSpec("absolute", value)


def test_cut_extremes_and_absolute():
    d = agglomerate(path_graph(3), "single")
    assert cut(d, HslSpec("relative", 0.0)).num_communities == 1
    assert cut(d, HslSpec("relative", 1.0)).num_communities == 3
    two = cut(d, HslSpec("absolute", 1))
    assert two.num_communities == 2
    assert two.labels == (0, 1, 0)
    assert cut(d, HslSpec("absolute", 0)).num_communities == 1
    with pytest.raises(ValueError):
        cut(d, HslSpec("absolute", 3))
    with pytest.raises(ValueError):
        cut(Dendrogram(3, ()), HslSpec("relative", 0.5))
    with pytest.raises(ValueError, match="cannot cut an empty dendrogram"):
        cut(Dendrogram(0, ()), HslSpec("absolute", 0))


def test_cut_relative_rounds_half_up():
    d = agglomerate(path_graph(3), "single")
    # 2 merges total: 0.25 maps to undoing 1, 0.75 to undoing both
    assert cut(d, HslSpec("relative", 0.25)).num_communities == 2
    assert cut(d, HslSpec("relative", 0.5)).num_communities == 2
    assert cut(d, HslSpec("relative", 0.75)).num_communities == 3


def test_cut_cluster_count_is_monotone_in_rel():
    for g in random_suite(8, 3, 10, (0.4,), 3000):
        for kind in ("single", "complete"):
            d = agglomerate(g, kind)
            counts = [
                cut(d, HslSpec("relative", r / 10)).num_communities
                for r in range(11)
            ]
            assert counts == sorted(counts)
            assert counts[0] == 1
            assert counts[-1] == g.node_count


def test_cut_partitions_are_total():
    for g in random_suite(6, 3, 9, (0.5,), 3200):
        d = agglomerate(g, "average", self_neighboring=True)
        part = cut(d, HslSpec("relative", 0.4))
        assert len(part) == g.node_count
        assert set(part.labels) == set(range(part.num_communities))


def test_karate_self_neighboring_improves_cohesion(karate):
    plain = cut(agglomerate(karate, "complete", False), HslSpec("relative", 0.3))
    selfn = cut(agglomerate(karate, "complete", True), HslSpec("relative", 0.3))
    assert selfn.num_communities <= plain.num_communities
    # with self-neighboring, node 25 lands in a cluster with its neighbors
    labels = selfn.labels
    assert any(labels[nbr] == labels[25] for nbr in karate.neighbors(25))
