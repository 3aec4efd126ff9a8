"""Independent reference computations the tests compare against.

Everything here is deliberately naive: direct formula evaluation, path
enumeration, and from-scratch recomputation, plus the level-scanning
edge betweenness, which pins the package's order of float sums. None of
it shares code with the package internals beyond the Graph container
itself, except the Louvain replays, which drive the package's
CommunityState bookkeeping, from an explicit assignment, and modularity
with their own local moves: the scanning replay with its own
contraction, and the total-formula pass with a full modularity for
every candidate.
"""

import random
from collections import deque
from dataclasses import dataclass
from itertools import combinations

from commdetect import Graph, Partition, modularity
from commdetect.louvain import CommunityState


def modularity_direct(g, labels):
    """Literal double-sum modularity: (1/2m) sum_ij [A_ij - k_i k_j / 2m]."""
    n = g.node_count
    m = g.total_weight
    two_m = 2.0 * m
    adj = [[0.0] * n for _ in range(n)]
    for u, v, w in g.edges():
        if u == v:
            adj[u][u] += 2.0 * w
        else:
            adj[u][v] += w
            adj[v][u] += w
    k = [sum(adj[i]) for i in range(n)]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                total += adj[i][j] - k[i] * k[j] / two_m
    return total / two_m


def random_graph_per_pair(n, p, seed):
    """random_graph(n, p, seed) drawn one pair at a time: pair i < j, in
    ascending order, is an edge when its random.Random(seed).random()
    draw is below p. Built through the public Graph constructor."""
    rng = random.Random(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return Graph(n, edges)


@dataclass(frozen=True)
class BfsTree:
    """Shortest-path structure from one root.

    `level` maps each reachable node to its hop distance, `paths` to its
    number of distinct shortest paths from the root, and `parents` to the
    neighbors one level closer to the root, sorted. Unreachable nodes are
    absent.
    """

    root: int
    level: dict
    paths: dict
    parents: dict


def _bfs(adj, root):
    level = {root: 0}
    paths = {root: 1}
    parents = {root: []}
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
                queue.append(v)
            elif level[v] == level[u] + 1:
                paths[v] += paths[u]
                parents[v].append(u)
    return level, paths, {v: tuple(sorted(ps)) for v, ps in parents.items()}


def bfs_tree(g, root):
    """Breadth-first shortest-path tree of `g` rooted at `root`."""
    if not 0 <= root < g.node_count:
        raise ValueError(f"root {root} out of range")
    level, paths, parents = _bfs([g.neighbors(i) for i in range(g.node_count)], root)
    return BfsTree(root, level, paths, parents)


def _all_shortest_paths(adj, source, target):
    """Every shortest path from source to target, as node lists."""
    _, _, parents = _bfs(adj, source)
    if target not in parents:
        return []
    paths = []

    def walk(node, suffix):
        if node == source:
            paths.append([source] + suffix)
            return
        for p in parents[node]:
            walk(p, [node] + suffix)

    walk(target, [])
    return paths


def edge_betweenness_direct(g):
    """Per-edge score: each connected pair spreads one unit over its
    shortest paths; an edge collects whatever fraction passes through."""
    n = g.node_count
    adj = [dict(g.neighbors(i)) for i in range(n)]
    scores = {}
    for u, v, _ in g.edges():
        scores[(u, v) if u <= v else (v, u)] = 0.0
    for s in range(n):
        for t in range(s + 1, n):
            paths = _all_shortest_paths(adj, s, t)
            if not paths:
                continue
            share = 1.0 / len(paths)
            for path in paths:
                for a, b in zip(path, path[1:]):
                    key = (a, b) if a < b else (b, a)
                    scores[key] += share
    return scores


def edge_betweenness_level_scan(g):
    """Brandes' accumulation in the package's float order, parents found by
    scanning each node's neighbours for the level one closer to the root.

    Each component's node set is built in BFS order from its smallest node,
    and its roots go in that set's iteration order. A node's credit takes
    its children's shares in reverse BFS order, and an edge takes at most
    one share per root, so the scores should equal edge_betweenness(g) bit
    for bit, in the same key order. The per-root state (level, paths,
    credit) is keyed by the component's own nodes, so a graph of many
    small components costs no more than its size.
    """
    n = g.node_count
    adj = [g.neighbors(i) for i in range(n)]
    scores = {}
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        nodes = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in nodes:
                    nodes.add(v)
                    queue.append(v)
        comp = {}
        for u in nodes:
            seen[u] = True
            for v in adj[u]:
                if u <= v:
                    comp[(u, v)] = 0.0
        level = dict.fromkeys(nodes, -1)
        paths = dict.fromkeys(nodes, 0)
        credit = dict.fromkeys(nodes, 1.0)
        for root in nodes:
            level[root], paths[root] = 0, 1
            order = [root]
            for u in order:
                for v in adj[u]:
                    if level[v] < 0:
                        level[v] = level[u] + 1
                        paths[v] = paths[u]
                        order.append(v)
                    elif level[v] == level[u] + 1:
                        paths[v] += paths[u]
            for v in reversed(order):
                for p in adj[v]:
                    if level[p] == level[v] - 1:
                        share = credit[v] * paths[p] / paths[v]
                        comp[(p, v) if p < v else (v, p)] += share
                        credit[p] += share
            for v in order:
                level[v], paths[v], credit[v] = -1, 0, 1.0
        for key in comp:
            scores[key] = comp[key] / 2.0
    return scores


def greedy_merge_direct(g):
    """From-scratch greedy modularity agglomeration.

    At every step each pair of communities joined by at least one edge is
    scored by recomputing the full modularity before and after the merge;
    the best pair is merged, keeping label j. Gains within 1e-12 of the
    maximum count as tied and the smallest (i, j) wins, since the
    recompute-from-scratch sums carry last-ulp noise on mathematically
    equal gains. When no connected pair remains, the two lowest-labeled
    communities merge. Returns (joins, q_after, best_q, best_labels)
    where joins is the (i, j) sequence and q_after the running
    modularity after each.
    """
    n = g.node_count
    labels = list(range(n))
    alive = set(range(n))
    joins = []
    q_after = []
    q = modularity_direct(g, labels)
    best_q = q
    best_labels = list(labels)
    link = {}
    for u, v, _ in g.edges():
        if u != v:
            key = (min(u, v), max(u, v))
            link[key] = True
    while len(alive) > 1:
        scored = []
        for i, j in sorted(link):
            trial = [j if lab == i else lab for lab in labels]
            scored.append((modularity_direct(g, trial) - q, (i, j)))
        if not scored:
            i, j = sorted(alive)[:2]
        else:
            top = max(dq for dq, _ in scored)
            i, j = min(pair for dq, pair in scored if dq >= top - 1e-12)
        labels = [j if lab == i else lab for lab in labels]
        alive.remove(i)
        for a, b in list(link):
            if i in (a, b):
                del link[(a, b)]
                other = b if a == i else a
                if other != j:
                    link[(min(other, j), max(other, j))] = True
        q = modularity_direct(g, labels)
        joins.append((i, j))
        q_after.append(q)
        if q > best_q:
            best_q = q
            best_labels = list(labels)
    return joins, q_after, best_q, best_labels


def agglomerate_direct(g, kind, self_neighboring):
    """From-scratch greedy hierarchical merging over node distances.

    Recomputes shared-neighbor counts and the full inter-cluster linkage
    matrix at every step, merging the minimum with ties going to the
    smallest (min id, max id) cluster pair. Returns the merge sequence as
    (left, right, distance) triples.
    """
    n = g.node_count
    neighbor_sets = [set(g.neighbors(i)) for i in range(n)]
    if self_neighboring:
        for i in range(n):
            neighbor_sets[i] = neighbor_sets[i] | {i}

    def node_dist(a, b):
        return (
            len(neighbor_sets[a])
            + len(neighbor_sets[b])
            - 2 * len(neighbor_sets[a] & neighbor_sets[b])
        )

    clusters = {i: [i] for i in range(n)}
    merges = []
    for step in range(n - 1):
        best = None
        for a, b in combinations(sorted(clusters), 2):
            cross = [node_dist(x, y) for x in clusters[a] for y in clusters[b]]
            if kind == "single":
                d = min(cross)
            elif kind == "complete":
                d = max(cross)
            else:
                d = sum(cross) / len(cross)
            key = (d, a, b)
            if best is None or key < best:
                best = key
        d, a, b = best
        merges.append((a, b, d))
        clusters[n + step] = clusters.pop(a) + clusters.pop(b)
    return merges


def cut_direct(dendrogram, undo):
    """Labels after the first n-1-undo merges of a complete dendrogram.

    Replays each merge by relabelling every node of its two clusters with
    the merged id, then renumbers labels 0..k-1 in first-seen order.
    """
    n = dendrogram.leaves
    label = {i: i for i in range(n)}
    for merge in dendrogram.merges[: n - 1 - undo]:
        for node, lab in label.items():
            if lab in (merge.left, merge.right):
                label[node] = merge.merged
    first = {}
    return [first.setdefault(label[i], len(first)) for i in range(n)]


def _set_partitions(items):
    """All partitions of `items` into non-empty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for idx in range(len(smaller)):
            yield smaller[:idx] + [[first] + smaller[idx]] + smaller[idx + 1:]
        yield [[first]] + smaller


def best_partition_exhaustive(g):
    """Maximum-modularity partition by enumerating every set partition."""
    n = g.node_count
    best_q = None
    best_labels = None
    for blocks in _set_partitions(list(range(n))):
        labels = [0] * n
        for idx, block in enumerate(blocks):
            for node in block:
                labels[node] = idx
        q = modularity_direct(g, labels)
        if best_q is None or q > best_q:
            best_q = q
            best_labels = labels
    return best_q, best_labels


def smallest_member_labels(n, pairs):
    """Label each of n nodes with the smallest node of its connected group
    under the undirected edges `pairs`, by breadth-first search."""
    adj = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    labels = [None] * n
    # Roots are taken in ascending order, so each group's root is its smallest node.
    for root in range(n):
        if labels[root] is None:
            labels[root] = root
            queue = deque([root])
            while queue:
                for y in adj[queue.popleft()]:
                    if labels[y] is None:
                        labels[y] = root
                        queue.append(y)
    return labels


# The scanning formulation of Louvain's local move: every link weight is
# rescanned from the adjacency and every step is a separate call. The
# fused visit in commdetect.louvain must reproduce it bit for bit. Each
# function works on a commdetect.louvain.CommunityState.


def neighbor_weights(state, i):
    """{community: weight of node i's edges into it}, own self-loop excluded.

    One adjacency pass, adding in adjacency order from 0 as `sum` does.
    """
    assignment = state.assignment
    weights = {}
    for j, w in state.graph.neighbors(i).items():
        if j != i:
            c = assignment[j]
            weights[c] = weights.get(c, 0) + w
    return weights


def k_in(state, i, c):
    """Weight of edges from node i to community c, own self-loop excluded."""
    return neighbor_weights(state, i).get(c, 0)


def neighbor_communities(state, i):
    return set(neighbor_weights(state, i))


def _delta_in(state, i, c):
    return 2.0 * k_in(state, i, c) + 2.0 * state.graph.neighbors(i).get(i, 0.0)


def remove(state, i):
    """Take node i out of its community; it belongs nowhere until re-inserted."""
    c = state.assignment[i]
    if c is None:
        raise ValueError(f"node {i} is already removed")
    delta_in = _delta_in(state, i, c)
    state.assignment[i] = None
    state.sigma_tot[c] -= state.k[i]
    state.sigma_in[c] -= delta_in
    state.size[c] -= 1
    if state.size[c] == 0:
        state.sigma_in[c] = state.sigma_tot[c] = 0.0
    return c


def insert(state, i, c):
    """Put the removed node i into community c."""
    if state.assignment[i] is not None:
        raise ValueError(f"node {i} is already in a community")
    delta_in = _delta_in(state, i, c)
    state.assignment[i] = c
    state.sigma_tot[c] += state.k[i]
    state.sigma_in[c] += delta_in
    state.size[c] += 1


def delta_q_insert(state, i, c):
    """Modularity gain of inserting node i into community c.

    Evaluates [(sigma_in + 2*k_in)/2m - ((sigma_tot + k_i)/2m)^2] minus
    [sigma_in/2m - (sigma_tot/2m)^2 - (k_i/2m)^2] on the state's current
    bookkeeping. The value equals the true modularity difference exactly
    when node i has been removed first.
    """
    if state.m == 0:
        raise ValueError("modularity gain is undefined for a graph with no edges")
    two_m = 2.0 * state.m
    s_in = state.sigma_in[c]
    s_tot = state.sigma_tot[c]
    ki = state.k[i]
    after = (s_in + 2.0 * k_in(state, i, c)) / two_m - ((s_tot + ki) / two_m) ** 2
    before = s_in / two_m - (s_tot / two_m) ** 2 - (ki / two_m) ** 2
    return after - before


def best_move_scanning(state, i, c_old):
    """Best community for the removed node i: staying is scored first, the
    first strict maximum in ascending label order wins, and it must beat
    staying by more than 1e-12."""
    stay = best = delta_q_insert(state, i, c_old)
    best_c = c_old
    for c in sorted(neighbor_communities(state, i) - {c_old}):
        score = delta_q_insert(state, i, c)
        if score > best:
            best_c, best = c, score
    return best_c if best - stay > 1e-12 else c_old


def local_move_pass_scanning(state, order):
    """local_move_pass(state, order) by the scanning formulation; returns
    whether any node moved."""
    improved = False
    for i in order:
        c_old = remove(state, i)
        c_new = best_move_scanning(state, i, c_old)
        insert(state, i, c_new)
        improved = improved or c_new != c_old
    return improved


def total_formula_pass_full_fold(state, order):
    """_visit(state, order, use_total_formula=True) as the total formula
    defines it: staying and every neighbouring community are scored by
    modularity of the moved assignment, the first strict maximum in
    ascending label order wins, and it must beat staying by more than
    1e-12. The sums are kept by remove and insert. Returns the
    [(c_old, c_new)] of the nodes that moved."""
    changes = []
    for i in order:
        c_old = remove(state, i)
        moved = list(state.assignment)
        scores = {}
        for c in (c_old, *sorted(neighbor_communities(state, i) - {c_old})):
            moved[i] = c
            scores[c] = modularity(state.graph, moved)
        c_new = max(scores, key=lambda c: (scores[c], -c))
        if not scores[c_new] - scores[c_old] > 1e-12:
            c_new = c_old
        insert(state, i, c_new)
        if c_new != c_old:
            changes.append((c_old, c_new))
    return changes


def total_formula_slots(g, labels):
    """(members, slots) of the total-formula evaluator for g labelled by
    `labels` in range(n): each community's ascending members, and its
    modularity term at its smallest member, from sigma_tot folded as
    0.0 + k over ascending members and sigma_in as + 2.0*w over intra
    edges in edges() order; 0.0 elsewhere."""
    n = g.node_count
    members = [[] for _ in range(n)]
    for x, c in enumerate(labels):
        members[c].append(x)
    sigma_in, sigma_tot = [0.0] * n, [0.0] * n
    for x in range(n):
        sigma_tot[labels[x]] += g.weighted_degree(x)
    for u, v, w in g.edges():
        if labels[u] == labels[v]:
            sigma_in[labels[u]] += 2.0 * w
    two_m = 2.0 * g.total_weight
    slots = [0.0] * n
    for c, mem in enumerate(members):
        if mem:
            slots[mem[0]] = sigma_in[c] / two_m - (sigma_tot[c] / two_m) ** 2
    return members, slots


def contract(g, communities):
    """(graph, new_node): each community of g made one node, numbered by
    first appearance, through the public Graph constructor. A pair's
    weight sums its edges in edges() order; intra-community weight
    becomes a self-loop."""
    first = {}
    new_node = tuple(first.setdefault(c, len(first)) for c in communities)
    sums = {}
    for u, v, w in g.edges():
        pair = tuple(sorted((new_node[u], new_node[v])))
        sums[pair] = sums.get(pair, 0.0) + w
    return Graph(len(first), [(u, v, w) for (u, v), w in sums.items()]), new_node


def louvain_scanning(g, variant, seed=0):
    """louvain(g, variant, seed) for every variant, replayed with remove,
    best_move_scanning and insert, or with total_formula_pass_full_fold
    for total and totalNoMerge; returns (partition, q, passes)."""
    if variant in ("total", "totalNoMerge"):
        def local_pass(state, order):
            return bool(total_formula_pass_full_fold(state, order))
    else:
        local_pass = local_move_pass_scanning
    rng = random.Random(seed)
    labels = list(range(g.node_count))
    level_graph = g
    passes = 0
    while True:
        nodes = range(level_graph.node_count)
        state = CommunityState(level_graph, list(nodes))
        if variant == "Exp":
            proposals = []
            for i in nodes:
                c_old = remove(state, i)
                best = best_move_scanning(state, i, c_old)
                insert(state, i, c_old)
                if best != c_old:
                    proposals.append((c_old, best))
            passes += 1
            if not proposals:
                break
            # Uniting with the smaller root winning labels every node
            # with the smallest node of its united group.
            root = list(nodes)
            for a, b in proposals:
                while root[a] != a:
                    a = root[a]
                while root[b] != b:
                    b = root[b]
                root[max(a, b)] = min(a, b)
            communities = []
            for i in nodes:
                while root[i] != i:
                    i = root[i]
                communities.append(i)
        else:
            moved = False
            while True:
                order = list(nodes)
                rng.shuffle(order)
                passes += 1
                if not local_pass(state, order):
                    break
                moved = True
            if variant in ("noMerge", "totalNoMerge"):
                labels = state.assignment
                break
            if not moved:
                break
            communities = state.assignment
        level_graph, new_node = contract(level_graph, communities)
        labels = [new_node[c] for c in labels]
    part = Partition(labels).canonicalize()
    return part, modularity(g, part), passes
