"""Shared graph builders and replay instrumentation for the test suite."""

import random

from commdetect import Graph, random_graph
from commdetect.louvain import CommunityState, aggregate
from oracles import (
    best_move_scanning,
    delta_q_insert,
    insert,
    modularity_direct,
    neighbor_communities,
    remove,
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves):
    """K1,<leaves> with the hub as node 0."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid_graph(rows, cols):
    """rows x cols lattice with node r * cols + c at row r, column c."""
    edges = [(i, i + 1) for i in range(rows * cols) if (i + 1) % cols]
    edges += [(i, i + cols) for i in range((rows - 1) * cols)]
    return Graph(rows * cols, edges)


def complete_bipartite(a, b):
    """K_{a,b} with nodes 0..a-1 on one side and a..a+b-1 on the other."""
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def two_triangles():
    return Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def bridged_cliques(k):
    """Two K_k cliques joined by the single bridge (0, k)."""
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    edges.append((0, k))
    return Graph(2 * k, edges)


def ring_of_cliques(k, s):
    """k cliques of s nodes around a ring: node c*s of clique c is joined
    to node 1 of clique c+1 (Fortunato & Barthelemy 2007)."""
    edges = [(c * s + a, c * s + b) for c in range(k) for a in range(s) for b in range(a + 1, s)]
    edges += [(c * s, (c + 1) % k * s + 1) for c in range(k)]
    return Graph(k * s, edges)


def triangles_with_bridge():
    """Two triangles joined by the bridge (2, 3)."""
    return Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])


def random_tree(n, seed):
    """Uniform random attachment tree on n nodes."""
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def random_suite(count, n_lo, n_hi, ps, base_seed, require_edges=True):
    """Seeded stream of random graphs covering the given size band."""
    out = []
    seed = base_seed
    while len(out) < count:
        n = n_lo + seed % (n_hi - n_lo + 1)
        p = ps[seed % len(ps)]
        g = random_graph(n, p, seed)
        seed += 1
        if require_edges and g.total_weight == 0:
            continue
        out.append(g)
    return out


FRACTIONAL_WEIGHTS = (0.1, 0.3, 0.7, 1.1)


def fractional_weights(g, salt):
    """Copy of g whose edge weights cycle through FRACTIONAL_WEIGHTS.

    None of these weights has an exact binary form, so sums of them keep
    rounding residue that depends on the order they are added in.
    """
    w = FRACTIONAL_WEIGHTS
    return Graph(g.node_count, [(u, v, w[(u * 7 + v + salt) % 4]) for u, v, _ in g.edges()])


def mirrored(h, w):
    """h beside its mirror image (node i as 2n-1-i) and one node 2n linked
    to both by weight w: a tie in real numbers, broken by rounding residue
    that depends on the order of each fold when h's weights are
    fractional."""
    n = h.node_count
    edges = [*h.edges(), *((2 * n - 1 - u, 2 * n - 1 - v, x) for u, v, x in h.edges())]
    return Graph(2 * n + 1, [*edges, (0, 2 * n, w), (2 * n - 1, 2 * n, w)])


def one_heavy_edge(g, heavy, big):
    """Copy of g whose edge number `heavy`, in edges() order, weighs `big`
    and every other edge 1."""
    return Graph(g.node_count, [(u, v, big if idx == heavy else 1.0) for idx, (u, v, _) in enumerate(g.edges())])


def relabeled(g, perm):
    """Copy of g with node i renamed to perm[i]."""
    edges = [(perm[u], perm[v], w) for u, v, w in g.edges()]
    return Graph(g.node_count, edges)


def move_gain_checks(g, seed):
    """Replay a seeded multi-level local-move optimization.

    Yields one (closed_form_gain, direct_q_difference) pair per candidate
    community evaluated anywhere in the trajectory, where the closed form
    is the remove-then-insert net gain and the direct value recomputes
    both full modularities from scratch. Moves are applied exactly as the
    optimizer would apply them, so the checked states are the states the
    algorithm actually visits, including contracted levels with
    self-loops.
    """
    rng = random.Random(seed)
    level_graph = g
    while True:
        state = CommunityState(level_graph)
        moved_any = False
        improved = True
        while improved:
            improved = False
            order = list(range(level_graph.node_count))
            rng.shuffle(order)
            for i in order:
                c_old = remove(state, i)
                candidates = sorted(neighbor_communities(state, i) | {c_old})
                scores = {c: delta_q_insert(state, i, c) for c in candidates}
                base = list(state.assignment)
                base[i] = c_old
                q_before = modularity_direct(level_graph, base)
                for c in candidates:
                    trial = list(state.assignment)
                    trial[i] = c
                    q_after = modularity_direct(level_graph, trial)
                    yield scores[c] - scores[c_old], q_after - q_before
                best_c = best_move_scanning(state, i, c_old)
                insert(state, i, best_c)
                if best_c != c_old:
                    improved = True
                    moved_any = True
        if not moved_any:
            return
        contracted, _ = aggregate(level_graph, state.assignment)
        if contracted.node_count == level_graph.node_count:
            return
        level_graph = contracted
