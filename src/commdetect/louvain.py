"""Greedy modularity optimization with local moves and graph contraction.

A pass visits every node, pulls it out of its community, and re-inserts
it where the modularity gain is largest; staying put always scores
exactly zero because the comparison is between insertion gains computed
on the same node-removed state. When a level stabilizes, communities are
contracted to single nodes (intra-community weight becoming a self-loop)
and the process repeats one level up.

Variants:
  normal        gains via the closed-form insertion delta, with merging.
  total         gains via full-partition modularity recomputation.
  noMerge       closed-form gains, never contracts the graph.
  totalNoMerge  recomputed gains, never contracts.
  Exp           per pass, every node's best target is computed against a
                frozen state and all assignments are applied at once by
                uniting the proposed community pairs; deterministic and
                independent of visiting order.
"""

import random
from dataclasses import dataclass
from enum import Enum

from .graph import Graph, Partition, modularity

__all__ = [
    "LouvainVariant",
    "CommunityState",
    "AggregateGraph",
    "delta_q_insert",
    "local_move_pass",
    "aggregate",
    "louvain",
]

# A move must beat staying put by more than this to be applied.
_GAIN_EPS = 1e-12


class LouvainVariant(str, Enum):
    NORMAL = "normal"
    TOTAL = "total"
    NO_MERGE = "noMerge"
    TOTAL_NO_MERGE = "totalNoMerge"
    EXP = "Exp"


class CommunityState:
    """Mutable bookkeeping for local-move passes over one graph level.

    Tracks, per community, sigma_in (the adjacency mass inside: twice the
    intra-community edge weight, self-loops counting twice) and sigma_tot
    (the sum of member weighted degrees). Removing and re-inserting a node
    into the same community restores every field.

    A node visit scans the node's adjacency once: neighbor_weights collects
    the link weight to every neighbouring community, and remove, insert and
    delta_q_insert take their k_in from it instead of rescanning.
    """

    def __init__(self, graph, assignment=None):
        self.graph = graph
        self.m = graph.total_weight
        n = graph.node_count
        if assignment is None:
            assignment = range(n)
        self.assignment = list(assignment)
        if len(self.assignment) != n:
            raise ValueError("assignment length does not match node count")
        self.k = [graph.weighted_degree(i) for i in range(n)]
        self.sigma_in = {}
        self.sigma_tot = {}
        self._size = {}
        for i, c in enumerate(self.assignment):
            self.sigma_tot[c] = self.sigma_tot.get(c, 0.0) + self.k[i]
            self._size[c] = self._size.get(c, 0) + 1
        for u, v, w in graph.edges():
            if self.assignment[u] == self.assignment[v]:
                c = self.assignment[u]
                self.sigma_in[c] = self.sigma_in.get(c, 0.0) + 2.0 * w

    def community_of(self, i):
        return self.assignment[i]

    def neighbor_weights(self, i):
        """{community: weight of node i's edges into it}, own self-loop excluded.

        One adjacency pass, adding in adjacency order from 0 as `sum` does.
        """
        assignment = self.assignment
        weights = {}
        for j, w in self.graph.neighbors(i).items():
            if j != i:
                c = assignment[j]
                weights[c] = weights.get(c, 0) + w
        return weights

    def k_in(self, i, c):
        """Weight of edges from node i to community c, own self-loop excluded."""
        return self.neighbor_weights(i).get(c, 0)

    def neighbor_communities(self, i):
        return set(self.neighbor_weights(i))

    def remove(self, i, k_in=None):
        """Take node i out of its community; it belongs nowhere until re-inserted.

        `k_in`, the node's weight into its own community, is scanned for if omitted.
        """
        c = self.assignment[i]
        if c is None:
            raise ValueError(f"node {i} is already removed")
        if k_in is None:
            k_in = self.k_in(i, c)
        self.assignment[i] = None
        loop = self.graph.neighbors(i).get(i, 0.0)
        self.sigma_tot[c] -= self.k[i]
        delta_in = 2.0 * k_in + 2.0 * loop
        if delta_in:
            self.sigma_in[c] -= delta_in
        self._size[c] -= 1
        if self._size[c] == 0:
            del self._size[c]
            del self.sigma_tot[c]
            self.sigma_in.pop(c, None)
        return c

    def insert(self, i, c, k_in=None):
        """Put the removed node i into community c; `k_in` as for remove."""
        if self.assignment[i] is not None:
            raise ValueError(f"node {i} is already in a community")
        if k_in is None:
            k_in = self.k_in(i, c)
        loop = self.graph.neighbors(i).get(i, 0.0)
        delta_in = 2.0 * k_in + 2.0 * loop
        self.assignment[i] = c
        self.sigma_tot[c] = self.sigma_tot.get(c, 0.0) + self.k[i]
        if delta_in:
            self.sigma_in[c] = self.sigma_in.get(c, 0.0) + delta_in
        self._size[c] = self._size.get(c, 0) + 1

    def partition(self):
        if any(c is None for c in self.assignment):
            raise ValueError("state has a removed node")
        return Partition(self.assignment)


def delta_q_insert(state, i, c, k_in=None):
    """Modularity gain of inserting node i into community c.

    Evaluates [(sigma_in + 2*k_in)/2m - ((sigma_tot + k_i)/2m)^2] minus
    [sigma_in/2m - (sigma_tot/2m)^2 - (k_i/2m)^2] on the state's current
    bookkeeping. The value equals the true modularity difference exactly
    when node i has been removed first, which is how _best_move always
    calls it. `k_in` is the node's weight into c; _best_move passes the
    value from its one neighbor_weights scan of the visit, and without it
    the adjacency is scanned here.
    """
    if state.m == 0:
        raise ValueError("modularity gain is undefined for a graph with no edges")
    if k_in is None:
        k_in = state.k_in(i, c)
    two_m = 2.0 * state.m
    s_in = state.sigma_in.get(c, 0.0)
    s_tot = state.sigma_tot.get(c, 0.0)
    ki = state.k[i]
    after = (s_in + 2.0 * k_in) / two_m - ((s_tot + ki) / two_m) ** 2
    before = s_in / two_m - (s_tot / two_m) ** 2 - (ki / two_m) ** 2
    return after - before


def _total_score(state, i, c, k_in=None):
    """Modularity of the partition with the removed node i placed in c; ignores `k_in`."""
    state.assignment[i] = c
    q = modularity(state.graph, state.assignment)
    state.assignment[i] = None
    return q


def _best_move(state, i, c_old, weights, use_total_formula=False):
    """Best community for the removed node i, or c_old when no move pays.

    `weights` is state.neighbor_weights(i), the visit's one adjacency
    scan: its keys are the candidates and its values their k_in, so no
    candidate rescans the adjacency. Closed-form scores are insertion
    gains; total-formula scores are full modularity values of the
    partition with i placed in the candidate. Either way the score
    difference against c_old is the net change of the move. Neighbouring
    communities are tried in ascending label order and the first strict
    maximum wins; it is returned only when it beats staying in c_old by
    more than _GAIN_EPS.
    """
    score_of = _total_score if use_total_formula else delta_q_insert
    stay = best_score = score_of(state, i, c_old, weights.get(c_old, 0))
    best_c = c_old
    for c in sorted(weights):
        if c != c_old:
            score = score_of(state, i, c, weights[c])
            if score > best_score:
                best_c, best_score = c, score
    return best_c if best_score - stay > _GAIN_EPS else c_old


def local_move_pass(state, order, use_total_formula=False):
    """Visit nodes in `order`, applying each node's best single move.

    Returns (state, improved) where improved reports whether any node
    changed community. A move is applied only when its gain over staying
    exceeds a small positive threshold, so modularity strictly increases
    with every applied move and the pass loop always terminates. Each
    visit scans the node's adjacency once.
    """
    improved = False
    for i in order:
        weights = state.neighbor_weights(i)
        c_old = state.remove(i, weights.get(state.assignment[i], 0))
        c_new = _best_move(state, i, c_old, weights, use_total_formula)
        state.insert(i, c_new, weights.get(c_new, 0))
        if c_new != c_old:
            improved = True
    return state, improved


@dataclass(frozen=True)
class AggregateGraph:
    """One contraction level: nodes are the previous level's communities."""

    graph: Graph
    origin: tuple
    level: int


def aggregate(g, partition, level=0):
    """Contract each community of `partition` to a single node.

    Intra-community weight becomes a self-loop on the contracted node, so
    total weight and the modularity of the corresponding partitions are
    preserved. New nodes are numbered by first appearance of their
    community; `origin` maps each new node back to its community label.
    """
    labels = partition.labels if isinstance(partition, Partition) else list(partition)
    if len(labels) != g.node_count:
        raise ValueError("partition length does not match node count")
    index = {}
    origin = []
    for lab in labels:
        if lab not in index:
            index[lab] = len(index)
            origin.append(lab)
    weights = {}
    for u, v, w in g.edges():
        cu = index[labels[u]]
        cv = index[labels[v]]
        if cu > cv:
            cu, cv = cv, cu
        weights[(cu, cv)] = weights.get((cu, cv), 0.0) + w
    edges = [(u, v, w) for (u, v), w in weights.items()]
    return AggregateGraph(Graph(len(index), edges), tuple(origin), level)


def _passes_until_stable(state, rng, use_total_formula):
    n = state.graph.node_count
    passes = 0
    moved_any = False
    while True:
        order = list(range(n))
        rng.shuffle(order)
        _, improved = local_move_pass(state, order, use_total_formula)
        passes += 1
        if not improved:
            return passes, moved_any
        moved_any = True


def _fold(labels, state, agg):
    new_of = {lab: idx for idx, lab in enumerate(agg.origin)}
    assignment = state.assignment
    return [new_of[assignment[c]] for c in labels]


def _louvain_merging(g, rng, use_total_formula):
    labels = list(range(g.node_count))
    level_graph = g
    level = 0
    passes = 0
    while True:
        state = CommunityState(level_graph)
        done, moved = _passes_until_stable(state, rng, use_total_formula)
        passes += done
        if not moved:
            break
        agg = aggregate(level_graph, state.partition(), level)
        labels = _fold(labels, state, agg)
        level_graph = agg.graph
        level += 1
    return labels, passes


def _louvain_flat(g, rng, use_total_formula):
    state = CommunityState(g)
    passes, _ = _passes_until_stable(state, rng, use_total_formula)
    return list(state.assignment), passes


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # Smaller root id wins, keeping labels order-independent.
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


def _exp_proposals(state):
    """Best target community per node, judged against the frozen state."""
    proposals = []
    for i in range(state.graph.node_count):
        weights = state.neighbor_weights(i)
        k_old = weights.get(state.assignment[i], 0)
        c_old = state.remove(i, k_old)
        best_c = _best_move(state, i, c_old, weights)
        state.insert(i, c_old, k_old)
        if best_c != c_old:
            proposals.append((c_old, best_c))
    return proposals


def _louvain_exp(g):
    # Each pass proposes one move per node against the frozen pass-start
    # state, unites all proposals at once, and contracts immediately, so
    # the next pass evaluates whole-community moves as single nodes.
    labels = list(range(g.node_count))
    level_graph = g
    level = 0
    passes = 0
    while True:
        state = CommunityState(level_graph)
        proposals = _exp_proposals(state)
        passes += 1
        if not proposals:
            break
        uf = _UnionFind(set(state.assignment))
        for source, target in proposals:
            uf.union(source, target)
        state = CommunityState(level_graph, [uf.find(c) for c in state.assignment])
        agg = aggregate(level_graph, state.partition(), level)
        labels = _fold(labels, state, agg)
        level_graph = agg.graph
        level += 1
    return labels, passes


def louvain(g, variant, seed=0):
    """Run one seeded Louvain optimization; returns (partition, q, passes).

    The seed drives the node visiting order for every variant except Exp,
    which ignores it and always produces the same partition. Requires a
    graph with at least one edge.
    """
    variant = LouvainVariant(variant)
    if g.total_weight == 0:
        raise ValueError("modularity optimization needs at least one edge")
    if variant is LouvainVariant.EXP:
        labels, passes = _louvain_exp(g)
    else:
        rng = random.Random(seed)
        use_total = variant in (LouvainVariant.TOTAL, LouvainVariant.TOTAL_NO_MERGE)
        if variant in (LouvainVariant.NORMAL, LouvainVariant.TOTAL):
            labels, passes = _louvain_merging(g, rng, use_total)
        else:
            labels, passes = _louvain_flat(g, rng, use_total)
    part = Partition(labels).canonicalize()
    return part, modularity(g, part), passes
