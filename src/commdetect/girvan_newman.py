"""Divisive clustering by repeated removal of the highest-traffic edge.

Edge betweenness counts, for every node pair, the fraction of shortest
paths between them that cross each edge. The divisive scheme removes the
busiest edge, rescores, and repeats until the graph falls apart into the
requested number of components. A static variant scores every edge once
and removes edges in decreasing order of that initial score.
"""

from collections import deque
from dataclasses import dataclass

from .graph import Partition, connected_components

__all__ = [
    "BfsTree",
    "bfs_tree",
    "edge_betweenness",
    "girvan_newman",
    "girvan_newman_static",
]


@dataclass(frozen=True)
class BfsTree:
    """Shortest-path structure from one root.

    `level` maps each reachable node to its hop distance, `paths` to its
    number of distinct shortest paths from the root, and `parents` to the
    neighbors one level closer to the root. Unreachable nodes are absent.
    """

    root: int
    level: dict
    paths: dict
    parents: dict


def _adjacency(g):
    return [dict(g.neighbors(i)) for i in range(g.node_count)]


def _bfs(adj, root):
    level = {root: 0}
    paths = {root: 1}
    parents = {root: ()}
    order = [root]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v == u:
                continue
            if v not in level:
                level[v] = level[u] + 1
                paths[v] = paths[u]
                parents[v] = [u]
                order.append(v)
                queue.append(v)
            elif level[v] == level[u] + 1:
                paths[v] += paths[u]
                parents[v].append(u)
    for v, ps in parents.items():
        parents[v] = tuple(sorted(ps)) if ps else ()
    return level, paths, parents, order


def bfs_tree(g, root):
    """Breadth-first shortest-path tree of `g` rooted at `root`."""
    if not 0 <= root < g.node_count:
        raise ValueError(f"root {root} out of range")
    level, paths, parents, _ = _bfs(_adjacency(g), root)
    return BfsTree(root, level, paths, parents)


def _component_nodes(adj, start):
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def _component_scores(adj, nodes):
    """Betweenness scores for all edges within one connected component.

    Rooted at every node in turn: each node starts with one unit of
    credit, credit flows down-tree toward the root and splits between
    multiple parents in proportion to their shortest-path counts. Summing
    over all roots counts every unordered pair twice, so the totals are
    halved.
    """
    scores = {}
    for u in nodes:
        for v in adj[u]:
            if u <= v:
                scores[(u, v)] = 0.0
    for root in nodes:
        level, paths, parents, order = _bfs(adj, root)
        credit = {v: 1.0 for v in order}
        for v in reversed(order):
            if v == root:
                continue
            for p in parents[v]:
                share = credit[v] * paths[p] / paths[v]
                key = (v, p) if v < p else (p, v)
                scores[key] += share
                credit[p] += share
    for key in scores:
        scores[key] /= 2.0
    return scores


def edge_betweenness(g):
    """Score every edge of `g`; each node pair contributes one unit split
    evenly across its shortest paths. Self-loops score zero."""
    adj = _adjacency(g)
    scores = {}
    seen = set()
    for start in range(g.node_count):
        if start in seen:
            continue
        nodes = _component_nodes(adj, start)
        seen |= nodes
        scores.update(_component_scores(adj, nodes))
    return scores


def _pick_cut(scores):
    # Highest score wins; ties go to the smallest (u, v).
    return min(scores.items(), key=lambda item: (-item[1], item[0]))


def _partition_from(adj):
    # Components numbered in first-seen order, as connected_components does.
    labels = [-1] * len(adj)
    comp = 0
    for start in range(len(adj)):
        if labels[start] == -1:
            for u in _component_nodes(adj, start):
                labels[u] = comp
            comp += 1
    return Partition(labels)


def girvan_newman(g, target_communities):
    """Divide `g` into at least `target_communities` components.

    Repeatedly removes the highest-betweenness edge and rescores the
    affected component(s) until the component count reaches the target or
    no edges remain. Shortest paths count hops, so edge weights are
    ignored. Returns the final partition and the removal sequence as
    (u, v, score) triples.
    """
    n = g.node_count
    if not 1 <= target_communities <= n:
        raise ValueError(f"target communities must lie in 1..{n}, got {target_communities}")
    adj = _adjacency(g)
    scores = edge_betweenness(g)
    comp_count = connected_components(g).num_communities
    cuts = []
    while comp_count < target_communities and scores:
        (u, v), score = _pick_cut(scores)
        del adj[u][v]
        if u != v:
            del adj[v][u]
        del scores[(u, v)]
        cuts.append((u, v, score))
        comp_u = _component_nodes(adj, u)
        if v in comp_u:
            affected = [comp_u]
        else:
            affected = [comp_u, _component_nodes(adj, v)]
            comp_count += 1
        for nodes in affected:
            scores.update(_component_scores(adj, nodes))
    return _partition_from(adj), cuts


def girvan_newman_static(g, target_communities):
    """Like girvan_newman but never rescores: edges are removed in order
    of decreasing initial betweenness until the target is reached. Edge
    weights are ignored."""
    n = g.node_count
    if not 1 <= target_communities <= n:
        raise ValueError(f"target communities must lie in 1..{n}, got {target_communities}")
    adj = _adjacency(g)
    scores = edge_betweenness(g)
    order = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    comp_count = connected_components(g).num_communities
    cuts = []
    for (u, v), score in order:
        if comp_count >= target_communities:
            break
        del adj[u][v]
        if u != v:
            del adj[v][u]
        cuts.append((u, v, score))
        if u != v and v not in _component_nodes(adj, u):
            comp_count += 1
    return _partition_from(adj), cuts
