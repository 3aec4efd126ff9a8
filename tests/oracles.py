"""Independent reference computations the tests compare against.

Everything here is deliberately naive: direct formula evaluation, path
enumeration, and from-scratch recomputation. None of it shares code with
the package internals beyond the Graph container itself.
"""

from collections import deque
from dataclasses import dataclass
from itertools import combinations


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
