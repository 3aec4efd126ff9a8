"""Greedy modularity agglomeration tests."""

import heapq
import random
import re
from functools import reduce
from importlib import import_module
from operator import add
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commdetect import Graph, HslSpec, cut, fastgreedy, modularity
from commdetect.fastgreedy import _RETIRED, _TIE_EPS, GlobalHeap, init_fastgreedy, join
import identity
from helpers import path_graph, random_suite, star_graph, two_triangles
from oracles import best_partition_exhaustive, greedy_merge_direct, modularity_direct
from strategies import small_fractional_weighted_graphs, small_integer_weighted_graphs


def _joins(dend, n):
    """The (i, j) label pairs of a dendrogram, in the oracle's labelling."""
    label_of = {i: i for i in range(n)}
    out = []
    for merge in dend.merges:
        li = label_of.pop(merge.left)
        lj = label_of.pop(merge.right)
        out.append((li, lj))
        label_of[merge.merged] = lj
    return out


def _pairs(rows, heap):
    """Every gain cell once, as (i, j, gain) with i < j."""
    return [
        (i, j, heap.gain[c])
        for i, row in enumerate(rows)
        if row is not None
        for j, c in row.items()
        if i < j
    ]


def _set(rows, heap, i, j, gain):
    """Add one gain cell for the pair (i, j), i < j, to the heap's lists,
    store it in both rows, and return it."""
    c = rows[i][j] = rows[j][i] = len(heap.gain)
    heap.gain.append(gain)
    heap.lo.append(i)
    heap.hi.append(j)
    return c


def test_init_reference_values():
    rows, heap, a = init_fastgreedy(Graph(2, [(0, 1)]))
    c = rows[0][1]
    assert (heap.gain[c], heap.lo[c], heap.hi[c]) == (pytest.approx(0.5, abs=1e-12), 0, 1)
    assert rows[0][1] == rows[1][0]
    assert a == [0.5, 0.5]

    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    rows, heap, a = init_fastgreedy(tri)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert heap.gain[rows[i][j]] == pytest.approx(1.0 / 9.0, abs=1e-12)
        # the stored gain is the true modularity change of that merge
        merged = [j if x == i else x for x in range(3)]
        truth = modularity_direct(tri, merged) - modularity_direct(tri, [0, 1, 2])
        assert heap.gain[rows[i][j]] == pytest.approx(truth, abs=1e-12)

    rows, heap, a = init_fastgreedy(star_graph(3))
    assert a[0] == pytest.approx(0.5, abs=1e-15)
    assert all(a[leaf] == pytest.approx(1.0 / 6.0, abs=1e-15) for leaf in (1, 2, 3))


def test_init_entries_only_for_connected_pairs():
    g = path_graph(4)
    rows, heap, a = init_fastgreedy(g)
    assert sorted((i, j) for i, j, _ in _pairs(rows, heap)) == [(0, 1), (1, 2), (2, 3)]
    assert 2 not in rows[0]


def test_init_rejects_bad_graphs():
    with pytest.raises(ValueError):
        init_fastgreedy(Graph(3))
    with pytest.raises(ValueError):
        init_fastgreedy(Graph(2, [(0, 0), (0, 1)]))


def test_pop_best_and_tie_break():
    rows, heap, a = init_fastgreedy(Graph(2, [(0, 1)]))
    assert heap.pop_best() == (0, 1, pytest.approx(0.5, abs=1e-12))

    # two disjoint unit edges: both pairs gain the same, smallest wins
    rows, heap, a = init_fastgreedy(Graph(4, [(0, 1), (2, 3)]))
    picked = heap.pop_best()
    assert picked[:2] == (0, 1)
    join(rows, heap, a, *picked[:2])
    picked = heap.pop_best()
    assert picked[:2] == (2, 3)
    join(rows, heap, a, *picked[:2])
    # the two remaining communities share no edge: nothing joinable
    assert heap.pop_best() is None


def test_falling_gain_is_not_requeued():
    # path 0-1-2, join(0,1): cell (1, 2) only loses 2*a_0*a_2
    rows, heap, a = init_fastgreedy(path_graph(3))
    before = len(heap)
    join(rows, heap, a, 0, 1)
    assert len(heap) == before


def test_pop_best_reads_tie_band_in_place():
    top = 0.25
    rows = [{} for _ in range(6)]
    heap = GlobalHeap()
    # the maximum, at the larger pair
    heap.push(_set(rows, heap, 2, 3, top))
    # a smaller pair tied with it, less than _TIE_EPS below
    heap.push(_set(rows, heap, 0, 4, top - _TIE_EPS / 2))
    # stale bounds: one above the maximum, one inside the tie band,
    # each queued before its cell's gain fell to 0.1
    stale_above = _set(rows, heap, 0, 1, 0.5)
    heap.push(stale_above)
    heap.gain[stale_above] = 0.1
    stale_inside = _set(rows, heap, 0, 2, top - _TIE_EPS / 4)
    heap.push(stale_inside)
    heap.gain[stale_inside] = 0.1
    assert heap.pop_best() == (0, 4, top - _TIE_EPS / 2)
    assert [entry for entry in heap._entries if entry[1] == stale_above] == [(-0.1, stale_above)]

    # an in-band cell whose only queued entry is a stale bound is read by
    # its gain, and the walk leaves that entry as it is
    rows = [{} for _ in range(6)]
    heap = GlobalHeap()
    heap.push(_set(rows, heap, 2, 3, 0.2))
    stale_only = _set(rows, heap, 0, 1, 0.2 - _TIE_EPS / 4)
    heap.push(stale_only)
    heap.gain[stale_only] = 0.2 - _TIE_EPS / 2
    entries = list(heap._entries)
    assert heap.pop_best() == (0, 1, 0.2 - _TIE_EPS / 2)
    assert heap._entries == entries


def test_pop_best_with_only_retired_entries_is_none():
    rows = [{} for _ in range(3)]
    heap = GlobalHeap()
    for i, j in ((0, 1), (1, 2)):
        heap.push(_set(rows, heap, i, j, 0.1))
    for k, c in rows[1].items():
        del rows[k][1]
        heap.gain[c] = _RETIRED
    rows[1] = None
    assert heap.pop_best() is None
    assert len(heap) == 0


def test_carry_bands_only_live_cells_at_or_above_the_floor():
    rows = [{} for _ in range(6)]
    heap = GlobalHeap()
    heap.push(_set(rows, heap, 0, 1, 0.25))
    assert heap.pop_best() == (0, 1, 0.25)
    band = list(heap._band)
    # cells renamed or retired behind the heap's back, entries left as they were
    at_floor, below, retired = (_set(rows, heap, i, 5, gain) for i, gain in
                                ((4, heap._floor), (3, heap._floor - _TIE_EPS), (2, 0.25)))
    heap.gain[retired] = _RETIRED
    heap.carry([below, retired, at_floor])
    assert sorted(heap._band) == sorted([*band, (4, 5, at_floor)])
    assert heap._entries == [(-0.25, 0)]


def test_join_validation():
    rows, heap, a = init_fastgreedy(path_graph(3))
    with pytest.raises(ValueError):
        join(rows, heap, a, 1, 1)
    with pytest.raises(ValueError):
        join(rows, heap, a, 0, 2)
    join(rows, heap, a, 0, 1)
    with pytest.raises(ValueError):
        join(rows, heap, a, 0, 1)
    # ids that are not ints in range(len(rows)) are named, never indexed
    for bad in (-1, 3, True, 1.0, "1", None):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            join(rows, heap, a, bad, 2)
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            join(rows, heap, a, 2, bad)


def test_join_update_rules_match_direct_differences():
    # path 0-1-2, join(0,1): community 2 touches only the j side
    g = path_graph(3)
    rows, heap, a = init_fastgreedy(g)
    before_bc = heap.gain[rows[1][2]]
    expected = before_bc - 2.0 * a[0] * a[2]
    join(rows, heap, a, 0, 1)
    assert heap.gain[rows[1][2]] == pytest.approx(expected, abs=1e-12)
    truth = modularity_direct(g, [1, 1, 1]) - modularity_direct(g, [1, 1, 2])
    assert heap.gain[rows[1][2]] == pytest.approx(truth, abs=1e-12)

    # triangle, join(0,1): community 2 touches both sides
    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    rows, heap, a = init_fastgreedy(tri)
    expected = heap.gain[rows[0][2]] + heap.gain[rows[1][2]]
    join(rows, heap, a, 0, 1)
    assert heap.gain[rows[1][2]] == pytest.approx(expected, abs=1e-12)
    assert heap.gain[rows[1][2]] == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_store_heap_and_mass_invariants_every_step():
    for g in random_suite(20, 2, 10, (0.3, 0.6), 11000):
        rows, heap, a = init_fastgreedy(g)
        labels = list(range(g.node_count))
        while True:
            assert sum(a) == pytest.approx(1.0, abs=1e-12)
            q_now = modularity_direct(g, labels)
            for i, j, dq in _pairs(rows, heap):
                merged = [j if x == i else x for x in labels]
                assert dq == pytest.approx(
                    modularity_direct(g, merged) - q_now, abs=1e-9
                )
            picked = heap.pop_best()
            if picked is None:
                break
            i, j, dq = picked
            top = max(value for _, _, value in _pairs(rows, heap))
            assert dq == pytest.approx(top, abs=1e-12)
            join(rows, heap, a, i, j)
            labels = [j if x == i else x for x in labels]


def test_fastgreedy_single_edge():
    dend, best, best_q = fastgreedy(Graph(2, [(0, 1)]))
    assert best_q == pytest.approx(0.0, abs=1e-12)
    assert best.num_communities == 1
    assert len(dend.merges) == 1
    assert dend.merges[0].gain == pytest.approx(0.5, abs=1e-12)


def test_fastgreedy_two_triangles_is_optimal():
    g = two_triangles()
    dend, best, best_q = fastgreedy(g)
    assert best_q == pytest.approx(0.5, abs=1e-12)
    assert best.labels == (0, 0, 0, 1, 1, 1)
    exhaustive_q, _ = best_partition_exhaustive(g)
    assert best_q == pytest.approx(exhaustive_q, abs=1e-12)
    assert len(dend.merges) == 5


def test_fastgreedy_disconnected_force_joins():
    g = Graph(5, [(0, 1), (2, 3)])  # node 4 is isolated
    dend, best, best_q = fastgreedy(g)
    assert len(dend.merges) == 4
    assert modularity(g, best) == pytest.approx(best_q, abs=1e-12)
    # the forced merges happen after the gainful ones, at a strict loss
    assert dend.merges[0].gain > 0 and dend.merges[1].gain > 0
    assert dend.merges[2].gain <= 0 and dend.merges[3].gain <= 0


def test_fastgreedy_matches_naive_greedy_oracle():
    # The last graph is mostly isolated nodes, so most of its joins are forced.
    for g in [*random_suite(30, 2, 10, (0.2, 0.5), 12000), Graph(60, [(0, 1), (3, 4), (10, 11)])]:
        dend, best, best_q = fastgreedy(g)
        joins, q_after, oracle_best_q, _ = greedy_merge_direct(g)
        assert _joins(dend, g.node_count) == joins
        for merge, expected_q in zip(dend.merges, q_after):
            assert merge.q == pytest.approx(expected_q, abs=1e-9)
        assert best_q == pytest.approx(oracle_best_q, abs=1e-9)


def test_fastgreedy_karate_regression(karate):
    dend, best, best_q = fastgreedy(karate)
    assert best_q == pytest.approx(0.3806706114398422, abs=1e-12)
    assert best.num_communities == 3
    assert len(dend.merges) == 33
    assert modularity(karate, best) == pytest.approx(best_q, abs=1e-12)


def _check_against_oracle(g):
    dend, best, best_q = fastgreedy(g)
    joins, _, oracle_best_q, _ = greedy_merge_direct(g)
    n = g.node_count
    assert _joins(dend, n) == joins
    two_m = 2.0 * g.total_weight
    q = -reduce(add, (x * x for x in (g.weighted_degree(i) / two_m for i in range(n))), 0)
    running = [q]
    for merge in dend.merges:
        # each join's Q is its predecessor's plus its gain, float for
        # float, and is the modularity of the dendrogram cut right after it
        assert q + merge.gain == merge.q
        q = merge.q
        after = cut(dend, HslSpec("absolute", n - 2 - merge.step))
        assert q == pytest.approx(modularity(g, after), abs=1e-9)
        running.append(q)
    assert best_q == max(running)
    assert best_q == pytest.approx(oracle_best_q, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(small_integer_weighted_graphs())
def test_fastgreedy_matches_oracle_on_integer_weight_ties(g):
    _check_against_oracle(g)


@settings(max_examples=100, deadline=None)
@given(small_fractional_weighted_graphs())
def test_fastgreedy_matches_oracle_on_fractional_weights(g):
    _check_against_oracle(g)


# The goldens check their records in the identity manifest (identity.py):
# every merge with gain.hex() and q.hex(), the labels and best_q.hex() on
# karate, random graphs and tied integer weights, and on fractional weights.
def test_fastgreedy_golden():
    identity.check("fastgreedy_tied")


def test_fastgreedy_fractional_golden():
    identity.check("fastgreedy_fractional")


def _check_cells(rows, heap):
    """Both rows of a pair hold one cell, named (min, max) of its row keys,
    and no two pairs share a cell."""
    pairs = 0
    for i, row in enumerate(rows):
        if row is not None:
            for j, c in row.items():
                assert rows[j][i] == c
                assert (heap.lo[c], heap.hi[c]) == (min(i, j), max(i, j))
            pairs += len(row)
    assert len({c for row in rows if row is not None for c in row.values()}) * 2 == pairs


def _check_heap(rows, heap):
    """Heap order holds on the (-bound, c) entries, and every live cell has
    a queued upper bound."""
    _check_cells(rows, heap)
    entries = heap._entries
    for k in range(1, len(entries)):
        assert entries[(k - 1) // 2] <= entries[k]
    bound = {}
    for neg_bound, c in entries:
        bound[c] = max(bound.get(c, -neg_bound), -neg_bound)
    for row in rows:
        for c in row.values() if row is not None else ():
            assert bound[c] >= heap.gain[c]


def _check_band(rows, heap):
    """The carried band is a min-heap holding every live cell whose gain is
    at least the floor of the last pick, under its current names."""
    band = heap._band
    for k in range(1, len(band)):
        assert band[(k - 1) // 2] <= band[k]
    in_band = set(band)
    for i, j, gain in _pairs(rows, heap):
        if gain >= heap._floor:
            assert (i, j, rows[i][j]) in in_band


def _check_pop_best_against_brute_force(g):
    rows, heap, a = init_fastgreedy(g)
    _check_heap(rows, heap)
    while True:
        picked = heap.pop_best()
        _check_heap(rows, heap)
        pairs = list(_pairs(rows, heap))
        if not pairs:
            assert picked is None
            break
        top = max(gain for _, _, gain in pairs)
        assert picked == min((i, j, gain) for i, j, gain in pairs if gain >= top - _TIE_EPS)
        assert heap._floor == top - _TIE_EPS
        _check_band(rows, heap)
        join(rows, heap, a, *picked[:2])
        _check_heap(rows, heap)
        _check_band(rows, heap)


@settings(max_examples=150, deadline=None)
@given(small_integer_weighted_graphs(max_nodes=16))
def test_pop_best_matches_brute_force_and_keeps_bounds(g):
    _check_pop_best_against_brute_force(g)


@settings(max_examples=100, deadline=None)
@given(small_fractional_weighted_graphs(max_nodes=16))
def test_pop_best_matches_brute_force_on_fractional_weights(g):
    _check_pop_best_against_brute_force(g)


def test_renamed_cell_stays_in_the_carried_band():
    # The heavy edge makes every other degree mass about 5e-8, so a join's
    # fall 2*a_j*a_k stays far below _TIE_EPS and all unit edges tie.
    g = Graph(7, [(0, 1), (0, 2), (3, 4), (5, 6, 1e7)])
    rows, heap, a = init_fastgreedy(g)
    assert heap.pop_best()[:2] == (5, 6)
    join(rows, heap, a, 5, 6)
    assert heap.pop_best()[:2] == (0, 1)
    floor = heap._floor
    renamed = rows[0][2]
    join(rows, heap, a, 0, 1)
    # (0, 2) touched only the absorbed side: the same cell, now (1, 2)
    assert rows[1][2] == rows[2][1] == renamed
    assert (heap.lo[renamed], heap.hi[renamed]) == (1, 2)
    # (3, 4), untouched, still holds the maximum, so the band is carried
    # and must hold the renamed cell under its new names
    assert heap.pop_best() == (1, 2, heap.gain[renamed])
    assert heap._floor == floor
    _check_band(rows, heap)
    _check_pop_best_against_brute_force(g)


class _ShuffledHeap(GlobalHeap):
    """A GlobalHeap that rebuilds its entries by heapify over a seeded
    shuffle before every pick, so each entry below the root, junk or
    not, sits wherever some valid heap could hold it."""

    def __init__(self, seed):
        super().__init__()
        self._rng = random.Random(seed)

    def pop_best(self):
        self._rng.shuffle(self._entries)
        heapq.heapify(self._entries)
        return super().pop_best()


@settings(max_examples=150, deadline=None)
@given(small_integer_weighted_graphs(max_nodes=16), st.integers(0, 2**32 - 1))
def test_heap_layout_cannot_change_a_pick(g, seed):
    # Integer weights tie many gains exactly, so many entries share a bound
    # and the band walk meets them in an order the shuffle changes.
    rows, heap, a = init_fastgreedy(g)
    with patch.object(import_module("commdetect.fastgreedy"), "GlobalHeap", lambda: _ShuffledHeap(seed)):
        shuffled_rows, shuffled, shuffled_a = init_fastgreedy(g)
        dend, best, best_q = fastgreedy(g)
    assert isinstance(shuffled, _ShuffledHeap)
    while True:
        picked = heap.pop_best()
        assert shuffled.pop_best() == picked
        if picked is None:
            break
        join(rows, heap, a, *picked[:2])
        join(shuffled_rows, shuffled, shuffled_a, *picked[:2])
    assert shuffled.gain == heap.gain
    expected, expected_best, expected_q = fastgreedy(g)
    assert (dend, best.labels, best_q) == (expected, expected_best.labels, expected_q)
