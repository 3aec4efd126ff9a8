"""Local-move optimization, aggregation, and variant behavior tests."""

import importlib
import math
import random
import re
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commdetect import Graph, Partition, louvain, modularity
from commdetect.cli import bench
from commdetect.graph import _unite
from commdetect.louvain import (
    _GAIN_EPS,
    CommunityState,
    LouvainVariant,
    aggregate,
    local_move_pass,
)
import identity
from helpers import (
    FRACTIONAL_WEIGHTS,
    fractional_weights,
    mirrored,
    move_gain_checks,
    one_heavy_edge,
    path_graph,
    random_suite,
    relabeled,
    ring_of_cliques,
    two_triangles,
)
from oracles import (
    contract,
    delta_q_insert,
    insert,
    k_in,
    local_move_pass_scanning,
    louvain_scanning,
    modularity_direct,
    neighbor_communities,
    neighbor_weights,
    remove,
    smallest_member_labels,
    total_formula_pass_full_fold,
    total_formula_slots,
)
from strategies import small_fractional_weighted_graphs, small_integer_weighted_graphs

# `commdetect.louvain` is also the name of the re-exported function.
louvain_module = importlib.import_module("commdetect.louvain")

ALL_VARIANTS = ("normal", "total", "noMerge", "totalNoMerge", "Exp")


def test_variant_labels():
    assert {v.value for v in LouvainVariant} == set(ALL_VARIANTS)
    with pytest.raises(ValueError):
        LouvainVariant("leiden")


def test_state_bookkeeping_invariants():
    for idx, g in enumerate(random_suite(12, 3, 10, (0.4, 0.7), 7000)):
        labels = [(i + idx) % 3 for i in range(g.node_count)]
        state = CommunityState(g, labels)
        assert sum(state.sigma_tot) == pytest.approx(
            2.0 * g.total_weight, abs=1e-12
        )
        for c in range(g.node_count):
            inside = sum(
                2.0 * w for u, v, w in g.edges()
                if labels[u] == c and labels[v] == c
            )
            assert state.sigma_in[c] == pytest.approx(inside, abs=1e-12)


def test_state_remove_insert_restores_exactly():
    for g in random_suite(8, 3, 9, (0.5,), 7300):
        # contract once so self-loops and weights are exercised too
        contracted, _ = aggregate(g, Partition([i % 2 for i in range(g.node_count)]))
        for graph in (g, contracted):
            state = CommunityState(graph, [i % 2 for i in range(graph.node_count)])
            before = (
                list(state.sigma_in),
                list(state.sigma_tot),
                list(state.assignment),
            )
            for i in range(graph.node_count):
                c = remove(state, i)
                insert(state, i, c)
            assert (list(state.sigma_in), list(state.sigma_tot),
                    list(state.assignment)) == before


def test_state_rejects_labels_outside_the_node_range():
    for bad in (3, -1, None, 1.0, True):
        with pytest.raises(ValueError, match=re.escape(f"community label {bad!r} of node 1")):
            CommunityState(path_graph(3), [0, bad, 0])
    with pytest.raises(ValueError, match="length"):
        CommunityState(path_graph(3), [0, 1])


def test_k_in_excludes_self_and_own_loop():
    g = Graph(3, [(0, 0, 5.0), (0, 1), (0, 2), (1, 2)])
    state = CommunityState(g, [0, 0, 1])
    assert k_in(state, 0, 0) == 1.0
    assert k_in(state, 0, 1) == 1.0
    assert state.k[0] == 12.0


@st.composite
def _states(draw):
    """A state with random labels on a small weighted graph, or on its
    contraction under a random partition (self-loops, merged weights)."""
    g = draw(small_integer_weighted_graphs(max_nodes=10))
    if draw(st.booleans()):
        groups = draw(st.lists(st.integers(0, 3), min_size=g.node_count, max_size=g.node_count))
        g, _ = aggregate(g, groups)
    n = g.node_count
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return CommunityState(g, labels)


@settings(max_examples=150, deadline=None)
@given(_states())
def test_neighbor_weights_is_one_scan_of_the_adjacency(state):
    assignment = state.assignment
    for i in range(state.graph.node_count):
        weights = neighbor_weights(state, i)
        adj = state.graph.neighbors(i)
        assert weights.keys() == {assignment[j] for j in adj if j != i}
        assert set(weights) == neighbor_communities(state, i)
        for c in weights:
            # Bit-identical to summing the adjacency in order, as k_in did.
            assert weights[c] == sum(w for j, w in adj.items() if j != i and assignment[j] == c)
            assert weights[c] == k_in(state, i, c)


def _scored_state(c_old, scores):
    """A state whose node 0 scores exactly scores[c] for every community c.

    Node 0 sits in c_old with one fellow member, and links to one node per
    other community; each link to c weighs scores[c]. With 2m = 2, k_0 = 0
    and every sum 0 once node 0 is out, the closed-form score of joining c
    reduces to 2*scores[c]/2, which is exact.
    """
    n = 10
    others = [c for c in scores if c != c_old]
    labels = [c_old, c_old, *others]
    state = CommunityState(Graph(n), labels + [0] * (n - len(labels)))
    state.m = 1.0
    state.k = [0.0] * n
    state.adj[0] = {j: scores[c] for j, c in enumerate(labels[1:], 1)}
    state.sigma_in[c_old] = 2.0 * scores[c_old]
    return state


def _pick(monkeypatch, c_old, scores):
    """Where one visit moves node 0 of c_old, given every community's score.

    The closed-form path that normal uses and the total-formula path must
    agree. The state makes each community's modularity term with node 0
    in it its score and every other term 0.0, so the total formula's term
    sums are the scores too; score() is replaced by the given scores for
    the comparisons that fall inside the fold band.
    """
    closed = _scored_state(c_old, scores)
    local_move_pass(closed, [0])
    monkeypatch.setattr(louvain_module._TotalModularity, "score", lambda self, i, c, s_in, s_tot: scores[c])
    total = _scored_state(c_old, scores)
    local_move_pass(total, [0], use_total_formula=True)
    assert closed.assignment[0] == total.assignment[0]
    return closed.assignment[0]


def test_best_move_needs_a_gain_above_the_threshold(monkeypatch):
    assert _pick(monkeypatch, 4, {4: 0.0, 1: _GAIN_EPS}) == 4
    assert _pick(monkeypatch, 4, {4: 0.0, 1: 0.5 * _GAIN_EPS}) == 4
    assert _pick(monkeypatch, 4, {4: 0.0, 1: 2.0 * _GAIN_EPS}) == 1
    assert _pick(monkeypatch, 4, {4: 0.0, 1: -1.0}) == 4


def test_best_move_breaks_ties_by_smaller_label(monkeypatch):
    assert _pick(monkeypatch, 9, {9: 0.0, 7: 0.5, 3: 0.5, 5: 0.5}) == 3
    # Staying is scored first, so a candidate that only ties it loses.
    assert _pick(monkeypatch, 9, {9: 0.5, 2: 0.5}) == 9
    # Node 0's adjacency reaches the tied communities in descending label order.
    assert _pick(monkeypatch, 9, {9: 0.0, 7: 0.5, 5: 0.5, 3: 0.5}) == 3
    assert _pick(monkeypatch, 9, {9: 0.0, 8: 0.25, 6: 0.5, 4: 0.5, 2: 0.25}) == 4


def test_best_move_first_strict_maximum_wins(monkeypatch):
    assert _pick(monkeypatch, 0, {0: 0.0, 1: 0.2, 2: 0.7, 3: 0.4}) == 2
    assert _pick(monkeypatch, 0, {0: 0.0, 5: 0.1, 2: 0.3, 8: 0.9}) == 8


def test_visit_tie_goes_to_the_smaller_label_in_any_adjacency_order():
    # The hub of K1,3 with leaf j in community 4 - j scores every leaf's
    # community alike, float for float, and reaches them as 3, 2, 1.
    for use_total_formula in (False, True):
        state = CommunityState(Graph(4, [(0, 1), (0, 2), (0, 3)]), [0, 3, 2, 1])
        local_move_pass(state, [0], use_total_formula)
        assert state.assignment == [1, 3, 2, 1]


# The goldens check their records in the identity manifest (identity.py):
# labels, q.hex() and passes of Louvain on random:500,0.016,1 (normal,
# noMerge, Exp), of normal and noMerge on random:300,8/300,1 weighted twice
# and of normal on random:2000,0.004,1, where many visits are skipped, and
# of the total-formula variants on karate and random:60,0.1,1, on 40 graphs
# weighted twice, half of them contracted, and on random:300,8/300,1
# weighted twice.
def test_louvain_golden_on_random_500():
    identity.check("louvain_random_500")


def test_louvain_golden_on_settled_levels():
    identity.check("louvain_settled")


def test_total_formula_golden():
    identity.check("total_formula")


def test_total_formula_golden_on_fractional_weights():
    identity.check("total_formula_fractional")


def test_total_formula_golden_on_random_300():
    identity.check("total_formula_300")


def test_total_formula_golden_at_the_2m_bound():
    identity.check("total_formula_2m_bound")


@st.composite
def _louvain_inputs(draw, graphs=small_integer_weighted_graphs()):
    """A small weighted graph, half of the time contracted through
    aggregate so that it carries self-loops, and a seed."""
    g = draw(graphs)
    if draw(st.booleans()):
        groups = draw(st.lists(st.integers(0, 3), min_size=g.node_count, max_size=g.node_count))
        g, _ = aggregate(g, groups)
    return g, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(_louvain_inputs(st.one_of(small_integer_weighted_graphs(), small_fractional_weighted_graphs())))
# With seed 1, node 1 is visited last in the first pass and reaches the
# tied communities 3 and 0 in that order; only the smaller-label tie rule
# keeps normal at (0, 0, 1, 1, 0).
@example((Graph(5, [(0, 4), (1, 2), (1, 4), (2, 3), (2, 4)]), 1))
# A fractional graph beside its mirror image, node 10 tied between them in
# real numbers: with seed 1 rounding puts node 10 with node 9 under the
# total formula, where the closed form keeps it with node 0.
@example((Graph(11, [(0, 1, 0.7), (0, 2, 1.1), (0, 3, 0.1), (0, 4, 0.3), (0, 10, 0.1), (1, 3, 1.1), (1, 4, 0.1),
                     (2, 3, 0.7), (3, 4, 0.7), (5, 6, 0.7), (5, 8, 0.1), (5, 9, 0.3), (6, 7, 0.7), (6, 8, 1.1),
                     (6, 9, 0.1), (7, 9, 1.1), (8, 9, 0.7), (9, 10, 0.1)]), 1))
def test_louvain_matches_the_scanning_replay(inputs):
    # Every row of the variant table: the fused visit against separate
    # remove / delta_q_insert / insert calls that rescan the adjacency, or
    # full modularity folds for the total formula, and a contraction
    # through the public Graph constructor, bit for bit.
    g, seed = inputs
    for variant in ALL_VARIANTS:
        part, q, passes = louvain(g, variant, seed)
        replay, q_replay, passes_replay = louvain_scanning(g, variant, seed)
        assert (part.labels, q.hex(), passes) == (replay.labels, q_replay.hex(), passes_replay)


@st.composite
def _proposals(draw):
    """A node count up to 40 and (source, target) pairs in any order,
    half of the time with a shuffled chain through every node added."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=60))
    if draw(st.booleans()):
        path = draw(st.permutations(range(n)))
        pairs += draw(st.permutations(list(zip(path, path[1:]))))
    return n, draw(st.permutations(pairs))


@settings(max_examples=300)
@given(_proposals())
def test_unite_labels_every_node_with_the_smallest_node_of_its_group(case):
    n, pairs = case
    assert _unite(n, pairs) == smallest_member_labels(n, pairs)


def _assert_scores_are_bit_exact_modularity(g, seed):
    """Every score the evaluator folds for a total-formula visit, staying
    included, is the very float graph.modularity gives the moved
    assignment, at every level of both variants. Most visits fold
    nothing, since only comparisons inside the fold band need a score. A
    level whose weights are all integral with 2m <= 2**53 must take the
    sums path, any other the fold path. Returns the paths taken."""
    evaluator = louvain_module._TotalModularity
    original_init, original_score = evaluator.__init__, evaluator.score
    level_graph = []
    paths = set()

    def init(self, state):
        h = state.graph
        level_graph[:] = [h]
        original_init(self, state)
        assert self.exact is (2.0 * h.total_weight <= 2.0**53 and all(w.is_integer() for _, _, w in h.edges()))
        paths.add(self.exact)

    def score(self, i, c, s_in, s_tot):
        q = original_score(self, i, c, s_in, s_tot)
        moved = list(self.assignment)
        moved[i] = c
        assert q.hex() == modularity(level_graph[0], moved).hex()
        return q

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "__init__", init)
        mp.setattr(evaluator, "score", score)
        for variant in ("total", "totalNoMerge"):
            louvain(g, variant, seed)
    return paths


@st.composite
def _mirrored_graphs(draw):
    """A small fractional-weighted graph mirrored (helpers.mirrored): its
    two halves tie in real numbers, so their folds decide."""
    return mirrored(draw(small_fractional_weighted_graphs(max_nodes=7)), draw(st.sampled_from(FRACTIONAL_WEIGHTS)))


_TOTAL_FORMULA_GRAPHS = st.one_of(small_integer_weighted_graphs(), small_fractional_weighted_graphs(),
                                  _mirrored_graphs())


@settings(max_examples=150, deadline=None)
@given(_louvain_inputs(_TOTAL_FORMULA_GRAPHS))
def test_total_formula_scores_are_bit_exact_modularity(inputs):
    _assert_scores_are_bit_exact_modularity(*inputs)


@settings(max_examples=150, deadline=None)
@given(_louvain_inputs(_TOTAL_FORMULA_GRAPHS))
# With seed 2 the bridging node 6 weighs the mirror's two halves,
# communities 0 and 5, which tie in real numbers: the residue of their
# terms' sum favours 5, while the folds pick 0.
@example((mirrored(Graph(3, [(0, 1, 0.7), (0, 2, 1.1)]), 0.7), 2))
def test_total_formula_visit_matches_the_full_fold_oracle(inputs):
    # Seeded passes until one moves nothing, on a level that is drawn,
    # contracted or not: after each pass the filtered visit and the
    # oracle, which scores every candidate with modularity, made the same
    # moves and hold the same sums, members and slots, bit for bit.
    g, seed = inputs
    rng = random.Random(seed)
    state, replay = CommunityState(g), CommunityState(g, list(range(g.node_count)))
    while True:
        order = list(range(g.node_count))
        rng.shuffle(order)
        changes = louvain_module._visit(state, order, use_total_formula=True)
        assert changes == total_formula_pass_full_fold(replay, order)
        assert (state.assignment, state.size) == (replay.assignment, replay.size)
        for ours, theirs in ((state.sigma_in, replay.sigma_in), (state.sigma_tot, replay.sigma_tot)):
            assert [x.hex() for x in ours] == [x.hex() for x in theirs]
        members, slots = total_formula_slots(g, replay.assignment)
        assert state.total.members == members
        assert [x.hex() for x in state.total.slots] == [x.hex() for x in slots]
        if not changes:
            break


def test_total_formula_filter_settles_only_outside_the_band():
    # Node 0 of _scored_state keys each community exactly by its score,
    # and staying in community 4 by 0.0. A key difference beyond the band
    # settles a comparison, and one outside _GAIN_EPS -+ band the gain
    # threshold, without a fold: this evaluator's score() raises unless
    # it is given the folds, which then decide.
    u, nu = 2.0**-53, 10 * 2.0**-53
    band = _scored_state(4, {4: 0.0}).total.band
    assert band > 5.0 * nu / (1.0 - nu) + 31 * u
    within = math.floor(band / u) * u
    beyond = within + u

    def pick(scores, folds=None):
        state = _scored_state(4, scores)

        def score(i, c, s_in, s_tot):
            if folds is None:
                raise AssertionError(f"folded community {c}")
            return folds[c]

        state.total.score = score
        local_move_pass(state, [0], use_total_formula=True)
        return state.assignment[0]

    # Keys differ by a multiple of u near 0.5, so the difference is exact.
    assert pick({4: 0.0, 1: 0.5, 2: 0.5 + beyond}) == 2
    assert pick({4: 0.0, 2: 0.5 + beyond, 1: 0.5}) == 2
    with pytest.raises(AssertionError, match="folded"):
        pick({4: 0.0, 1: 0.5, 2: 0.5 + within})
    with pytest.raises(AssertionError, match="folded"):
        pick({4: 0.0, 2: 0.5 + within, 1: 0.5})
    # Inside the band the folds decide, the smaller label on a tie.
    assert pick({4: 0.0, 1: 0.5, 2: 0.5 + within}, {1: 0.5, 2: 0.25}) == 1
    assert pick({4: 0.0, 1: 0.5, 2: 0.5 + within}, {1: 0.25, 2: 0.5}) == 2
    assert pick({4: 0.0, 2: 0.5 + within, 1: 0.5}, {1: 0.25, 2: 0.25}) == 1

    eps = _GAIN_EPS
    assert pick({4: 0.0, 1: eps + band}) == 1
    assert pick({4: 0.0, 1: eps - band}) == 4
    for gain in (math.nextafter(eps + band, 0.0), eps, math.nextafter(eps - band, 1.0)):
        with pytest.raises(AssertionError, match="folded"):
            pick({4: 0.0, 1: gain})
    # Inside it, the folds' rounded difference must exceed _GAIN_EPS, and
    # a real difference between eps and the next float may round onto eps.
    eps_up = math.nextafter(eps, math.inf)
    ulp = eps_up - eps
    assert eps_up - 0.75 * ulp == eps
    assert pick({4: 0.0, 1: eps}, {4: 0.0, 1: eps_up}) == 1
    assert pick({4: 0.0, 1: eps}, {4: 0.75 * ulp, 1: eps_up}) == 4


@pytest.mark.parametrize("big", [2.0**52 - 77, 2.0**52])
def test_total_formula_scores_are_bit_exact_at_the_2m_bound(karate, big):
    # Karate with one of its 78 edges weighing `big` and the other 77
    # weighing 1: 2m = 2**53 exactly takes the sums path; 77 more units of
    # weight take the fold path, the only one exact once sums pass 2**53.
    for heavy in (0, 40, 77):
        for seed in range(2):
            assert _assert_scores_are_bit_exact_modularity(one_heavy_edge(karate, heavy, big), seed) == {big < 2.0**52}


def test_level_structures_are_built_once_per_level(karate, monkeypatch):
    # `base` and the total-formula evaluator are built by a level's first
    # pass and kept by every later one, and after each pass they equal a
    # rebuild from the state, float for float.
    evaluator = louvain_module._TotalModularity
    original_init, original_pass = evaluator.__init__, louvain_module.local_move_pass
    built, kept, passes, exact = [], {}, [], []

    def init(self, state):
        built.append(state)
        original_init(self, state)

    def checked_pass(state, order, use_total_formula=False):
        result = original_pass(state, order, use_total_formula)
        base, total = kept.setdefault(id(state), (state.base, state.total))
        assert state.base is base and state.total is total
        two_m = 2.0 * state.m
        assert [x.hex() for x in base] == [
            (s_in / two_m - (s_tot / two_m) ** 2).hex() for s_in, s_tot in zip(state.sigma_in, state.sigma_tot)
        ]
        fresh = object.__new__(evaluator)
        original_init(fresh, state)
        assert [x.hex() for x in total.slots] == [x.hex() for x in fresh.slots]
        assert total.members == fresh.members
        if total.exact:
            # _visit keys a move inline with base[c] in place of c's slot.
            exact.append(state)
            for c, mem in enumerate(total.members):
                if mem:
                    assert total.slots[mem[0]].hex() == base[c].hex()
        passes.append(state)
        return result

    monkeypatch.setattr(evaluator, "__init__", init)
    monkeypatch.setattr(louvain_module, "local_move_pass", checked_pass)
    integer = Graph(karate.node_count, [(u, v, 1 + (u + v) % 3) for u, v, _ in karate.edges()])
    for g in (karate, integer, fractional_weights(karate, 0)):
        for variant in ("total", "totalNoMerge"):
            for seed in range(3):
                built.clear()
                kept.clear()
                passes.clear()
                louvain(g, variant, seed)
                assert [id(s) for s in built] == list(kept)
                assert len(passes) > len(built)
    assert exact


def test_local_move_pass_sums_match_the_scanning_replay():
    # Weights with no exact binary form leave rounding residue in the sums
    # wherever the two formulations differ in a single operation: an
    # emptied community not reset to 0.0, or a staying node whose sums are
    # not taken out and added back.
    for idx, g in enumerate(random_suite(30, 4, 14, (0.3, 0.6), 9900)):
        g = fractional_weights(g, idx)
        if idx % 2:
            g, _ = aggregate(g, [i % 3 for i in range(g.node_count)])
        state, replay = CommunityState(g), CommunityState(g)
        rng = random.Random(idx)
        for _ in range(4):
            order = list(range(g.node_count))
            rng.shuffle(order)
            _, improved = local_move_pass(state, order)
            assert improved == local_move_pass_scanning(replay, order)
            for field in ("assignment", "sigma_in", "sigma_tot", "size"):
                assert getattr(state, field) == getattr(replay, field), field


def _passes(g, labels, orders):
    """The assignment after each local_move_pass over `orders`, each given
    as an iterator, from g labelled `labels`; every pass matches the
    scanning replay."""
    state, replay = CommunityState(g, labels), CommunityState(g, labels)
    assignments = []
    for order in orders:
        local_move_pass(state, iter(order))
        local_move_pass_scanning(replay, order)
        for field in ("assignment", "sigma_in", "sigma_tot", "size"):
            assert getattr(state, field) == getattr(replay, field), field
        assignments.append(list(state.assignment))
    return assignments


def test_a_stayed_node_is_scored_again_when_a_non_neighbour_leaves_a_bordering_community():
    # Node 0 sits in {0, 5} and borders {1, 2, 4} through node 1. Node 2
    # belongs to that community but links only to node 3, so it is no
    # neighbour of node 0. Pass 1 visits node 0 first, and it stays while
    # node 2 weighs on {1, 2, 4}; then node 2 leaves for node 3. No
    # neighbour of node 0 moved, yet pass 2 must score it again: it now
    # joins node 1, and node 5 follows it.
    g = Graph(6, [(0, 1, 2), (0, 5, 1), (1, 4, 5), (2, 3, 10)])
    first, second = _passes(g, [0, 1, 1, 3, 1, 0], [[0, 2, 1, 3, 4, 5], [0, 1, 2, 3, 4, 5]])
    assert first == [0, 1, 3, 3, 1, 0]
    assert second == [1, 1, 3, 3, 1, 1]


def test_a_stayed_node_is_scored_again_when_only_its_own_community_changes():
    # Node 0 sits in {0, 5} and borders {1, 4}. Pass 1 visits node 0 first,
    # and it stays; then node 2, linked only to node 5, joins {0, 5}. Only
    # node 0's own community changed, and pass 2 must score it again: the
    # heavier {0, 2, 5} now loses node 0 to node 1.
    g = Graph(6, [(0, 1, 2), (0, 5, 3), (1, 4, 5), (2, 5, 10)])
    first, second = _passes(g, [0, 1, 2, 3, 1, 0], [[0, 2, 1, 4, 5], [0, 1, 2, 4, 5]])
    assert first == [0, 1, 0, 3, 1, 0]
    assert second == [1, 1, 0, 3, 1, 0]


def test_a_stay_whose_round_trip_moves_a_bit_marks_its_community():
    # Built like _scored_state: 2m = 2 and every degree 0. Node 0 is alone
    # and links to community 1 = {1, 2} by 9007.5 * 2**-53; node 2 links to
    # node 1 by 0.2. Visiting node 2 takes 0.4 out of sigma_in[1] = 1.40004
    # and adds it back, which lands one float lower. Node 0's gain of
    # joining community 1, (sigma_in[1] + 2*k_in)/2 - sigma_in[1]/2, rounds
    # a sum that lies halfway between two floats to the even one: it is
    # _GAIN_EPS or less before node 2's visit and more after it.
    state = CommunityState(Graph(4), [0, 1, 1, 3])
    state.m = 1.0
    state.k = [0.0] * 4
    state.adj[0] = {1: 9007.5 * 2.0**-53}
    state.adj[2] = {1: 0.2}
    state.sigma_in[1] = 1.40004
    local_move_pass(state, [0, 2])
    assert state.assignment == [0, 1, 1, 3]
    assert state.sigma_in[1] < 1.40004
    local_move_pass(state, [0])
    assert state.assignment == [1, 1, 1, 3]


def test_a_total_formula_visit_that_folded_is_visited_again():
    # Node 0 of _scored_state keys joining community 1 at _GAIN_EPS over
    # staying, inside the band, so the folds decide the gain. A fold reads
    # every slot, which moves elsewhere change, so node 0's next visit
    # folds again and follows the new folds.
    state = _scored_state(4, {4: 0.0, 1: _GAIN_EPS})
    folds, folded = {4: 0.0, 1: 0.0}, []

    def score(i, c, s_in, s_tot):
        folded.append(c)
        return folds[c]

    state.total.score = score
    local_move_pass(state, [0], use_total_formula=True)
    assert state.assignment[0] == 4 and folded
    folds[1] = 1.0
    folded.clear()
    local_move_pass(state, [0], use_total_formula=True)
    assert state.assignment[0] == 1 and folded


def test_delta_q_insert_reference_values():
    pair = Graph(2, [(0, 1)])
    state = CommunityState(pair)
    remove(state, 0)
    gain = delta_q_insert(state, 0, 1)
    assert gain == pytest.approx(0.5, abs=1e-12)
    # matches the full modularity difference of the same move
    assert gain == pytest.approx(
        modularity_direct(pair, [1, 1]) - modularity_direct(pair, [0, 1]),
        abs=1e-12,
    )

    lonely = Graph(4, [(0, 1), (1, 2)])
    state = CommunityState(lonely)
    remove(state, 3)
    assert delta_q_insert(state, 3, 0) == 0.0

    with pytest.raises(ValueError):
        delta_q_insert(CommunityState(Graph(2)), 0, 0)


def test_delta_q_insert_singleton_source_identity():
    for g in random_suite(20, 2, 10, (0.3, 0.6), 7600):
        base = list(range(g.node_count))
        q0 = modularity_direct(g, base)
        state = CommunityState(g)
        for i in range(g.node_count):
            remove(state, i)
            for c in sorted(neighbor_communities(state, i)):
                moved = list(base)
                moved[i] = c
                expected = modularity_direct(g, moved) - q0
                assert delta_q_insert(state, i, c) == pytest.approx(
                    expected, abs=1e-9
                )
            insert(state, i, i)


def _squared_total_delta(state, i, c):
    # the algebraic form with (sigma_tot + 2 k_i)^2 inside the square
    two_m = 2.0 * state.m
    s_in = state.sigma_in[c]
    s_tot = state.sigma_tot[c]
    ki = state.k[i]
    kin = k_in(state, i, c)
    after = (s_in + 2.0 * kin) / two_m - ((s_tot + 2.0 * ki) / two_m) ** 2
    before = s_in / two_m - (s_tot / two_m) ** 2 - (ki / two_m) ** 2
    return after - before


def test_doubled_degree_form_fails_the_oracle():
    pair = Graph(2, [(0, 1)])
    state = CommunityState(pair)
    remove(state, 0)
    truth = modularity_direct(pair, [1, 1]) - modularity_direct(pair, [0, 1])
    assert delta_q_insert(state, 0, 1) == pytest.approx(truth, abs=1e-12)
    assert abs(_squared_total_delta(state, 0, 1) - truth) > 0.1


def test_remove_then_insert_gain_equals_total_difference():
    pairs = 0
    for g in random_suite(25, 3, 10, (0.3, 0.6), 8200):
        for gain, direct in move_gain_checks(g, seed=11):
            assert gain == pytest.approx(direct, abs=1e-9)
            pairs += 1
    assert pairs > 500


def test_self_move_defect_is_gone():
    # one community {0,1,2} plus {3} on a path: judging a node against
    # its own community without removing it first reports a bogus change
    g = path_graph(4)
    state = CommunityState(g, [0, 0, 0, 1])
    naive = delta_q_insert(state, 2, 0)
    assert naive == pytest.approx(-2.0 / 9.0, abs=1e-12)
    # the true value of not moving is 0, and remove-then-insert scores it so
    remove(state, 2)
    stay = delta_q_insert(state, 2, 0)
    assert stay - stay == 0.0
    insert(state, 2, 0)


def test_local_move_pass_fixpoint():
    g = two_triangles()
    state = CommunityState(g, [0, 0, 0, 1, 1, 1])
    before = list(state.assignment)
    state, improved = local_move_pass(state, range(6))
    assert not improved
    assert state.assignment == before


def test_local_move_pass_is_monotone():
    for use_total in (False, True):
        for g in random_suite(10, 4, 10, (0.4,), 8400):
            state = CommunityState(g)
            prev = modularity(g, state.assignment)
            for _ in range(6):
                state, improved = local_move_pass(
                    state, range(g.node_count), use_total
                )
                q = modularity(g, state.assignment)
                assert q >= prev - 1e-12
                prev = q
                if not improved:
                    break
            assert not improved


def test_aggregate_examples():
    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    whole, new_node = aggregate(tri, Partition([0, 0, 0]))
    assert whole == Graph(1, [(0, 0, 3.0)])
    assert whole.weighted_degree(0) == 6.0
    assert new_node == (0, 0, 0)

    assert aggregate(tri, Partition([0, 1, 2])) == (Graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]), (0, 1, 2))
    assert aggregate(path_graph(3), [5, 2, 5]) == (Graph(2, [(0, 1, 2.0)]), (0, 1, 0))

    with pytest.raises(ValueError):
        aggregate(tri, [0, 0])
    for labels in ([0, 0.5, 1], [0, "a", 0], [1.0, 1, 0]):
        with pytest.raises(ValueError, match="community labels must be non-negative integers"):
            aggregate(tri, labels)


@st.composite
def _labelled_graphs(draw):
    """A graph of 1-14 nodes with self-loops and integral or fractional
    weights, whose edges stay inside up to three residue classes of the
    node ids, so most have several components, and labels 0..n+2 for its
    nodes, unused ones among them."""
    n = draw(st.integers(1, 14))
    parts = draw(st.integers(1, 3))
    pairs = [(u, v) for u in range(n) for v in range(u, n) if (v - u) % parts == 0]
    weight = st.one_of(st.integers(1, 3), st.sampled_from(FRACTIONAL_WEIGHTS))
    edges = [(u, v, draw(weight)) for u, v in draw(st.lists(st.sampled_from(pairs), unique=True))]
    return Graph(n, edges), draw(st.lists(st.integers(0, n + 2), min_size=n, max_size=n))


def _bits(g):
    return (g.node_count, [(u, v, w.hex()) for u, v, w in g.edges()],
            [[(j, w.hex()) for j, w in a.items()] for a in g._adj],
            g.total_weight.hex(), [k.hex() for k in g._degrees()])


@settings(max_examples=200, deadline=None)
@given(_labelled_graphs())
def test_aggregate_builds_what_the_public_constructor_builds(case):
    # aggregate hands its sorted pairs to Graph unchecked; the result must
    # be the public constructor's, down to each adjacency's key order.
    g, labels = case
    contracted, new_node = aggregate(g, labels)
    expected, expected_new_node = contract(g, labels)
    assert new_node == expected_new_node
    assert _bits(contracted) == _bits(expected)


@settings(max_examples=100, deadline=None)
@given(_labelled_graphs())
def test_a_level_starts_from_the_singleton_sums(case):
    g, labels = case
    for graph in (g, aggregate(g, labels)[0]):
        n = graph.node_count
        fresh, folded = CommunityState(graph), CommunityState(graph, list(range(n)))
        for field in ("sigma_in", "sigma_tot"):
            assert [x.hex() for x in getattr(fresh, field)] == [x.hex() for x in getattr(folded, field)]
        assert (fresh.size, fresh.assignment) == (folded.size, folded.assignment)


def test_aggregate_preserves_weight_and_modularity():
    for idx, g in enumerate(random_suite(15, 3, 10, (0.4, 0.7), 8700)):
        labels = [(i * 7 + idx) % 3 for i in range(g.node_count)]
        contracted, _ = aggregate(g, labels)
        assert contracted.total_weight == pytest.approx(g.total_weight, abs=1e-12)
        assert modularity(contracted, range(contracted.node_count)) == pytest.approx(
            modularity(g, labels), abs=1e-12
        )


def test_louvain_basic_contract():
    g = two_triangles()
    for variant in ALL_VARIANTS:
        part, q, passes = louvain(g, variant, seed=3)
        assert part.labels == (0, 0, 0, 1, 1, 1)
        assert q == pytest.approx(0.5, abs=1e-12)
        assert passes >= 1
    with pytest.raises(ValueError):
        louvain(Graph(3), "normal")
    with pytest.raises(ValueError, match="modularity gain is undefined for a graph with no edges"):
        local_move_pass(CommunityState(Graph(3)), [0, 1, 2])
    with pytest.raises(ValueError):
        louvain(two_triangles(), "leiden")
    # random.Random(None) would seed from the operating system.
    for variant in ALL_VARIANTS:
        for seed in (None, 1.0, "1", True):
            with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
                louvain(g, variant, seed)


def test_louvain_output_is_canonical_and_bounded():
    for seed, g in enumerate(random_suite(12, 3, 12, (0.3, 0.6), 9100)):
        for variant in ALL_VARIANTS:
            part, q, _ = louvain(g, variant, seed)
            assert part == Partition(part.labels).canonicalize()
            assert q == pytest.approx(modularity(g, part), abs=1e-12)
            assert -0.5 < q <= 1.0


def test_exp_ignores_the_seed():
    for g in random_suite(10, 3, 10, (0.4, 0.7), 9400):
        results = {louvain(g, "Exp", seed)[0] for seed in range(12)}
        assert len(results) == 1


def test_exp_karate_regression(karate):
    part, q, _ = louvain(karate, "Exp", 0)
    assert q == pytest.approx(0.3744247205785668, abs=1e-12)
    assert part.num_communities == 3
    again, q2, _ = louvain(karate, "Exp", 99)
    assert again == part and q2 == q


def test_exp_unites_a_ring_of_cliques_into_one_community():
    # Level 0 finds the cliques exactly, but level 1 proposes every clique
    # into a neighbour and _unite chains the whole ring together, so Exp
    # ends at Q 0.0, below its own first level.
    for k, s, q_cliques in ((30, 5, 0.8758), (16, 4, 0.7946)):
        g = ring_of_cliques(k, s)
        cliques, _ = louvain_module._proposals(CommunityState(g), None, False)
        assert cliques == [c * s for c in range(k) for _ in range(s)]
        assert modularity(g, cliques) == pytest.approx(q_cliques, abs=5e-5)
        part, q, passes = louvain(g, "Exp")
        assert (part.num_communities, q, passes) == (1, 0.0, 3)


def test_exp_insertion_scores_are_relabel_equivariant():
    import random as _random

    for g in random_suite(10, 4, 9, (0.5,), 9700):
        n = g.node_count
        perm = list(range(n))
        _random.Random(n).shuffle(perm)
        g2 = relabeled(g, perm)
        state, state2 = CommunityState(g), CommunityState(g2)
        for i in range(n):
            c_old = remove(state, i)
            c2_old = remove(state2, perm[i])
            scores = {
                c: delta_q_insert(state, i, c)
                for c in neighbor_communities(state, i) | {c_old}
            }
            scores2 = {
                c: delta_q_insert(state2, perm[i], c)
                for c in neighbor_communities(state2, perm[i]) | {c2_old}
            }
            assert {perm[c] for c in scores} == set(scores2)
            for c, value in scores.items():
                assert scores2[perm[c]] == value
            insert(state, i, c_old)
            insert(state2, perm[i], c2_old)


def test_exp_relabel_invariant_on_distinct_weights():
    from itertools import permutations

    base = Graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)])
    expected, q, _ = louvain(base, "Exp", 0)
    assert expected.labels == (0, 0, 1, 1)
    for perm in permutations(range(4)):
        part, _, _ = louvain(relabeled(base, list(perm)), "Exp", 0)
        back = Partition([part.labels[perm[i]] for i in range(4)])
        assert back.canonicalize() == expected


def test_run_stats_contract(karate):
    g = two_triangles()
    single = bench(g, "louvain", ("normal",), 1, 5)["records"][0]
    assert single["max"] == single["min"] == single["mean"] == single["q_values"][0]
    assert single["runs"] == 1

    stats = bench(g, "louvain", ("noMerge",), 6, 0)["records"][0]
    assert len(stats["q_values"]) == 6
    assert stats["max"] >= stats["mean"] >= stats["min"]
    assert stats["mean_runtime_ms"] >= 0.0
    assert stats["min_runtime_ms"] <= stats["median_runtime_ms"]
    assert stats["min_runtime_ms"] <= stats["mean_runtime_ms"]
    assert stats.keys() == {
        "variant", "runs", "q_values", "max", "min", "mean",
        "mean_runtime_ms", "min_runtime_ms", "median_runtime_ms",
    }
    assert stats["variant"] == "noMerge"

    exp = bench(g, "louvain", ("Exp",), 5, 0)["records"][0]
    assert exp["max"] == exp["min"]

    with pytest.raises(ValueError):
        bench(g, "louvain", ("normal",), 0, 0)

    for variant in ALL_VARIANTS:
        record = bench(karate, "louvain", (variant,), 4, 7)["records"][0]
        assert record["variant"] == LouvainVariant(variant).value
        assert record["q_values"] == [louvain(karate, variant, 7 + k)[1] for k in range(4)]
    fg = bench(karate, "fastgreedy", (), 3, 0)["records"][0]
    assert fg["mean"] == statistics.fmean(fg["q_values"])


@pytest.mark.parametrize("runs", [True, 2.5])
def test_bench_refuses_runs_that_are_not_ints(karate, runs):
    # True once ran one run and wrote "runs": true; 2.5 raised an unnamed TypeError.
    with pytest.raises(ValueError, match=f"^runs must be an int, not {runs!r}$"):
        bench(karate, "louvain", ["normal"], runs, 0)


@settings(max_examples=100, deadline=None)
@given(small_integer_weighted_graphs(max_nodes=12))
def test_reported_q_is_the_modularity_of_the_labels(g):
    for variant in ALL_VARIANTS:
        part, q, _ = louvain(g, variant, 0)
        assert q == pytest.approx(modularity_direct(g, part.labels), abs=1e-12)
    assert louvain(g, "Exp", 1)[0] == louvain(g, "Exp", 2)[0]
