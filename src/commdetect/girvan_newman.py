"""Divisive clustering by repeated removal of the highest-traffic edge.

Edge betweenness counts, for every node pair, the fraction of shortest
paths between them that cross each edge. It is computed with Brandes'
accumulation: one breadth-first pass per root over list-indexed
per-node state, where the pass stores each node's parents (the
neighbours one level closer to the root) with their edges' indices,
and back-propagation sums shares into a list indexed by edge. The
divisive scheme removes the busiest edge, rescores, and repeats until
the graph falls apart into the requested number of components. A
static variant scores every edge once and removes edges in decreasing
order of that initial score.
"""

from .graph import _component_nodes, _component_sets, _components, connected_components

__all__ = [
    "edge_betweenness",
    "girvan_newman",
    "girvan_newman_static",
]


def _component_scores(adj, nodes):
    """Betweenness scores for all edges within one connected component.

    Rooted at every node in turn: each node starts with one unit of
    credit, credit flows down-tree toward the root and splits between
    multiple parents in proportion to their shortest-path counts. Summing
    over all roots counts every unordered pair twice, so the totals are
    halved. Each root takes fresh per-node lists of length c and one pass
    over the component's edges, so a component of c nodes and e edges
    scores in O(c*(c+e)).

    The edges are numbered once, in the key order of the returned dict,
    and the nodes locally, in the iteration order of `nodes`. The per-node
    state lives in lists indexed by local id; `order` is both the BFS
    queue and the back-propagation order, and `parents[v]` lists the
    (parent, edge index) pairs through which the BFS reached v. The float
    sums are fixed by two orders that do not depend on how parents are
    listed: an edge takes at most one share per root, so its score adds up
    in the iteration order of `nodes`, and `credit[p]` adds its children's
    shares in reverse BFS order.
    """
    c = len(nodes)
    local = {u: x for x, u in enumerate(nodes)}
    keys = [(u, v) for u in nodes for v in adj[u] if u <= v]
    index = {key: e for e, key in enumerate(keys)}
    # Each node u's neighbors v without its self-loop, each paired with the
    # (u, edge index) entry that v's parent list takes when u is its parent.
    nbrs = [[(local[v], (x, index[(u, v) if u < v else (v, u)])) for v in adj[u] if v != u]
            for x, u in enumerate(nodes)]
    totals = [0.0] * len(keys)
    parents = [None] * c
    for root in range(c):
        level = [-1] * c
        paths = [0] * c
        credit = [1.0] * c
        level[root] = 0
        paths[root] = 1
        order = [root]
        for u in order:
            next_level = level[u] + 1
            for v, link in nbrs[u]:
                if level[v] < 0:
                    level[v] = next_level
                    paths[v] = paths[u]
                    parents[v] = [link]
                    order.append(v)
                elif level[v] == next_level:
                    paths[v] += paths[u]
                    parents[v].append(link)
        for v in reversed(order[1:]):
            credit_v, paths_v = credit[v], paths[v]
            for p, e in parents[v]:
                share = credit_v * paths[p] / paths_v
                totals[e] += share
                credit[p] += share
    return {key: total / 2.0 for key, total in zip(keys, totals)}


def edge_betweenness(g):
    """Score every edge of `g`; each node pair contributes one unit split
    evenly across its shortest paths. Self-loops score zero."""
    scores = {}
    for nodes in _component_sets(g._adj):
        scores.update(_component_scores(g._adj, nodes))
    return scores


def _start(g, target):
    """Check `target`; returns a copy of g's adjacency, its scores and its component count."""
    if type(target) is not int:
        raise ValueError(f"target communities must be an int, got {target!r}")
    if not 1 <= target <= g.node_count:
        raise ValueError(f"target communities must lie in 1..{g.node_count}, got {target}")
    return [dict(a) for a in g._adj], edge_betweenness(g), connected_components(g).num_communities


def _rank(item):  # highest score first; ties go to the smallest (u, v)
    return -item[1], item[0]


def girvan_newman(g, target_communities):
    """Divide `g` into at least `target_communities` components.

    Repeatedly removes the highest-betweenness edge and rescores the
    affected component(s) until the component count reaches the target or
    no edges remain. Shortest paths count hops, so edge weights are
    ignored. Returns the final partition and the removal sequence as
    (u, v, score) triples. Raises ValueError unless `target_communities`
    is an int (not a bool) in 1..node_count.
    """
    adj, scores, comp_count = _start(g, target_communities)
    cuts = []
    while comp_count < target_communities and scores:
        (u, v), score = min(scores.items(), key=_rank)
        del scores[(u, v)]
        del adj[u][v]
        if u != v:
            del adj[v][u]
        cuts.append((u, v, score))
        comp_u = _component_nodes(adj, u)
        scores.update(_component_scores(adj, comp_u))
        if v not in comp_u:
            comp_count += 1
            scores.update(_component_scores(adj, _component_nodes(adj, v)))
    return _components(adj), cuts


def girvan_newman_static(g, target_communities):
    """Like girvan_newman but never rescores: edges are removed in order
    of decreasing initial betweenness until the target is reached. Edge
    weights are ignored."""
    adj, scores, comp_count = _start(g, target_communities)
    cuts = []
    for (u, v), score in sorted(scores.items(), key=_rank):
        if comp_count >= target_communities:
            break
        del adj[u][v]
        if u != v:
            del adj[v][u]
        cuts.append((u, v, score))
        if u != v and v not in _component_nodes(adj, u):
            comp_count += 1
    return _components(adj), cuts
