"""Edge betweenness and divisive clustering tests."""

import random
import re
from collections import deque
from importlib import import_module

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commdetect import Graph, edge_betweenness, girvan_newman, girvan_newman_static, random_graph
from commdetect.graph import _component_nodes
import identity
from helpers import (
    bridged_cliques,
    complete_bipartite,
    cycle_graph,
    grid_graph,
    path_graph,
    random_suite,
    random_tree,
    relabeled,
    star_graph,
    triangles_with_bridge,
)
from oracles import bfs_tree, edge_betweenness_direct, edge_betweenness_level_scan


def test_bfs_tree_path():
    t = bfs_tree(path_graph(3), 0)
    assert t.root == 0
    assert t.level == {0: 0, 1: 1, 2: 2}
    assert t.paths == {0: 1, 1: 1, 2: 1}
    assert t.parents == {0: (), 1: (0,), 2: (1,)}


def test_bfs_tree_cycle_and_star():
    t = bfs_tree(cycle_graph(4), 0)
    assert t.paths[2] == 2
    assert t.parents[2] == (1, 3)

    t = bfs_tree(star_graph(3), 1)
    assert t.level == {1: 0, 0: 1, 2: 2, 3: 2}
    assert all(t.paths[v] == 1 for v in t.paths)


def test_bfs_tree_skips_unreachable_nodes():
    t = bfs_tree(Graph(4, [(0, 1)]), 0)
    assert set(t.level) == {0, 1}
    with pytest.raises(ValueError):
        bfs_tree(Graph(2), 5)


def test_bfs_tree_parent_sum_rule():
    for g in random_suite(15, 3, 10, (0.4, 0.7), 670):
        t = bfs_tree(g, 0)
        for v, ps in t.parents.items():
            if v == t.root:
                continue
            assert t.paths[v] == sum(t.paths[p] for p in ps)
            assert all(t.level[p] == t.level[v] - 1 for p in ps)


def test_edge_betweenness_examples():
    assert edge_betweenness(path_graph(3)) == {(0, 1): 2.0, (1, 2): 2.0}
    assert edge_betweenness(Graph(2, [(0, 1)])) == {(0, 1): 1.0}
    star = edge_betweenness(star_graph(3))
    assert star == {(0, 1): 3.0, (0, 2): 3.0, (0, 3): 3.0}
    ring = edge_betweenness(cycle_graph(4))
    assert all(score == 2.0 for score in ring.values())


def test_edge_betweenness_matches_oracle():
    cases = [path_graph(n) for n in range(2, 8)]
    cases += [star_graph(k) for k in range(2, 7)]
    cases += [cycle_graph(n) for n in range(3, 9)]
    cases += [bridged_cliques(3), bridged_cliques(4), triangles_with_bridge()]
    cases += random_suite(30, 2, 12, (0.2, 0.5), 5000, require_edges=False)
    for g in cases:
        scores = edge_betweenness(g)
        expected = edge_betweenness_direct(g)
        assert scores.keys() == expected.keys()
        for key in expected:
            assert scores[key] == pytest.approx(expected[key], abs=1e-9)
            assert scores[key] >= 0.0


def test_edge_betweenness_self_loop_scores_zero():
    for base in (triangles_with_bridge(), cycle_graph(5), *random_suite(10, 3, 10, (0.4,), 120)):
        plain = edge_betweenness(base)
        for node in range(base.node_count):
            looped = edge_betweenness(Graph(base.node_count, [*base.edges(), (node, node)]))
            assert looped.pop((node, node)) == 0.0
            assert looped == plain


@st.composite
def looped_graphs(draw, max_nodes=12):
    """Graphs on 1..max_nodes nodes with any mix of edges and self-loops,
    so disconnected parts and isolated nodes are common."""
    n = draw(st.integers(1, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


@settings(max_examples=150, deadline=None)
@given(looped_graphs())
def test_edge_betweenness_matches_oracle_property(g):
    scores = edge_betweenness(g)
    expected = edge_betweenness_direct(g)
    assert scores.keys() == expected.keys()
    for key in expected:
        assert scores[key] == pytest.approx(expected[key], abs=1e-9)


@st.composite
def tied_graphs(draw):
    """A grid, complete bipartite graph or cycle, whose shortest paths tie
    often, beside a looped graph, with the node ids shuffled so that each
    component's node set iterates in a drawn order."""
    sides = st.integers(1, 5)
    shape = draw(st.one_of(st.builds(grid_graph, sides, sides), st.builds(complete_bipartite, sides, sides),
                           st.builds(cycle_graph, st.integers(3, 12))))
    extra = draw(looped_graphs(max_nodes=8))
    n = shape.node_count
    g = Graph(n + extra.node_count, [*shape.edges(), *((u + n, v + n) for u, v, _ in extra.edges())])
    return relabeled(g, draw(st.permutations(range(g.node_count))))


@settings(max_examples=150, deadline=None)
@given(st.one_of(looped_graphs(), tied_graphs()))
def test_edge_betweenness_matches_level_scan_bit_for_bit(g):
    # The order-sensitive oracle: the same float sums, so the same bits.
    expected = [(key, score.hex()) for key, score in edge_betweenness_level_scan(g).items()]
    assert [(key, score.hex()) for key, score in edge_betweenness(g).items()] == expected


def test_edge_betweenness_matches_level_scan_on_many_components():
    # random:3000,1/3000,1 has 1524 components: 1100 isolated nodes, many
    # small trees and one of 376 nodes. Each component's state is sized by
    # the component, not the graph; shuffled ids and self-loops leave the
    # scores' bits alone.
    g = random_graph(3000, 1 / 3000, 1)
    perm = list(range(3000))
    random.Random(3).shuffle(perm)
    looped = Graph(3000, [*relabeled(g, perm).edges(), *((u, u) for u in range(0, 3000, 7))])
    for h in (g, looped):
        expected = [(key, score.hex()) for key, score in edge_betweenness_level_scan(h).items()]
        assert [(key, score.hex()) for key, score in edge_betweenness(h).items()] == expected


def _deque_component(adj, start):
    """start's component as tests/oracles.py walks it: a set filled by a deque BFS."""
    nodes = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in nodes:
                nodes.add(v)
                queue.append(v)
    return nodes


@settings(max_examples=150, deadline=None)
@given(st.one_of(looped_graphs(), tied_graphs()))
# 1 and 33 share a slot of the set's table, so the one added first iterates
# first; from 3, a BFS adds 33 first and a depth-first walk adds 1 first.
@example(Graph(34, [(3, 4), (3, 5), (4, 33), (1, 5)]))
def test_component_walk_fills_its_set_in_bfs_order(g):
    # Girvan-Newman's roots run in this set's iteration order, which depends
    # on the order its nodes went in, so every score bit rests on it.
    adj = [g.neighbors(i) for i in range(g.node_count)]
    for start in range(g.node_count):
        assert list(_component_nodes(adj, start)) == list(_deque_component(adj, start))


def test_edge_betweenness_tree_side_product():
    for seed in range(8):
        n = 5 + seed
        tree = random_tree(n, seed)
        scores = edge_betweenness(tree)
        for (u, v), score in scores.items():
            # remove the edge, count the far side from v
            pruned = Graph(
                n, [e for e in tree.edges() if (e[0], e[1]) != (u, v)]
            )
            side = len(_reachable(pruned, v))
            assert score == pytest.approx(side * (n - side), abs=1e-9)


def _reachable(g, start):
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nbr in g.neighbors(node):
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return seen


def test_girvan_newman_bridge_first():
    g = triangles_with_bridge()
    part, cuts = girvan_newman(g, 2)
    assert cuts[0][:2] == (2, 3)
    assert part.num_communities == 2
    assert part.labels == (0, 0, 0, 1, 1, 1)

    static_part, static_cuts = girvan_newman_static(g, 2)
    assert static_cuts == cuts
    assert static_part == part


def test_girvan_newman_trivial_and_errors():
    g = path_graph(4)
    part, cuts = girvan_newman(g, 1)
    assert cuts == []
    assert part.num_communities == 1
    with pytest.raises(ValueError):
        girvan_newman(g, 5)
    with pytest.raises(ValueError):
        girvan_newman(g, 0)
    with pytest.raises(ValueError):
        girvan_newman_static(g, 5)


@pytest.mark.parametrize("run", [girvan_newman, girvan_newman_static])
@pytest.mark.parametrize("target", [2.5, 2.0, True, "2", None])
def test_girvan_newman_rejects_non_int_target(run, target):
    with pytest.raises(ValueError, match=re.escape(repr(target))):
        run(path_graph(4), target)


def test_girvan_newman_full_split_removes_every_edge():
    for g in random_suite(10, 3, 9, (0.5,), 880):
        part, cuts = girvan_newman(g, g.node_count)
        assert part.num_communities == g.node_count
        assert len(cuts) == g.edge_count
        assert sorted((u, v) for u, v, _ in cuts) == [
            (u, v) for u, v, _ in g.edges()
        ]


def test_girvan_newman_deterministic_tie_break():
    # every edge of a 4-cycle ties at score 2; the smallest pair goes first
    part, cuts = girvan_newman(cycle_graph(4), 2)
    assert cuts[0] == (0, 1, 2.0)
    repeat = girvan_newman(cycle_graph(4), 2)
    assert repeat[1] == cuts and repeat[0] == part


def test_girvan_newman_karate_eight_communities(karate):
    part, cuts = girvan_newman(karate, 8)
    assert part.num_communities == 8
    assert len(part) == 34
    assert len(cuts) >= 7


def test_static_first_cut_matches_iterative():
    for g in random_suite(25, 3, 10, (0.3, 0.6), 910):
        _, cuts = girvan_newman(g, min(2, g.node_count))
        _, static_cuts = girvan_newman_static(g, min(2, g.node_count))
        if cuts and static_cuts:
            assert cuts[0] == static_cuts[0]


def test_static_path_five_needs_two_cuts():
    part, cuts = girvan_newman_static(path_graph(5), 3)
    assert part.num_communities == 3
    assert [c[:2] for c in cuts] == [(1, 2), (2, 3)]


def test_drivers_call_their_stages_through_the_module_globals(monkeypatch):
    # perfbench wraps these names on commdetect.girvan_newman to time the
    # initial scoring and component count of each run
    gn = import_module("commdetect.girvan_newman")  # the package's name is the function
    calls = []
    for name in ("edge_betweenness", "connected_components"):
        def spy(*args, _name=name, _real=getattr(gn, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(gn, name, spy)
    for run in (girvan_newman, girvan_newman_static):
        calls.clear()
        assert run(triangles_with_bridge(), 2)[0].num_communities == 2
        assert calls == ["edge_betweenness", "connected_components"], run.__name__


def test_girvan_newman_golden():
    # Its records in the identity manifest (identity.py): every
    # edge_betweenness score.hex() and both variants' labels and cuts at
    # targets 1, 2, 5 and n, on karate, random:100,0.08,1 and looped graphs.
    identity.check("girvan_newman_cuts")
