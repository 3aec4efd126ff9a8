"""Greedy modularity optimization with local moves and graph contraction.

Every variant runs one level loop: build a CommunityState on the level's
graph (node i starting in community i), optimise it, then either stop or
contract each community to a single node (intra-community weight
becoming a self-loop) and repeat one level up. The variants differ only
in how a level is optimised and whether it is contracted:

  normal        seeded local-move passes with closed-form gains until a
                pass moves nothing; a level that moved nothing ends the
                run, any other is contracted.
  total         as normal, but a move is chosen as if scored by
                graph.modularity of the moved partition, bit for bit.
                Two moves are compared by the exact sum of the few terms
                they change; only when that difference lies within the
                error bound of modularity's fold are both folded.
  noMerge       as normal, but stops after level 0 and returns its
                assignment.
  totalNoMerge  as total, but stops after level 0.
  Exp           one proposal pass per level: every node's best target is
                computed against the frozen state, and the proposed
                community pairs are united, each group labelled by its
                smallest node. A level with no proposal ends the run, any
                other is contracted. Deterministic; it ignores the seed.
"""

import math
import random
from bisect import insort
from enum import Enum
from functools import cached_property

from .graph import Graph, Partition, _community_sums, _fold, _unite, modularity

__all__ = [
    "LouvainVariant",
    "CommunityState",
    "local_move_pass",
    "aggregate",
    "louvain",
]

# A move must beat staying put by more than this to be applied.
_GAIN_EPS = 1e-12
# The smallest float above _GAIN_EPS: a real difference at least this large
# rounds to a float above _GAIN_EPS, one in between may round down onto it.
_GAIN_EPS_UP = math.nextafter(_GAIN_EPS, math.inf)


class LouvainVariant(str, Enum):
    NORMAL = "normal"
    TOTAL = "total"
    NO_MERGE = "noMerge"
    TOTAL_NO_MERGE = "totalNoMerge"
    EXP = "Exp"


class CommunityState:
    """Mutable bookkeeping for local-move passes over one graph level.

    Community ids are node ids: every label must lie in range(n), as it
    does at the start of each level, where node i starts in community i.
    Three lists indexed by community hold sigma_in and sigma_tot, as
    graph._community_sums folds them, and size (the member count). An
    empty community's slots read exactly 0.0 and 0. `k` is the graph's
    own tuple of weighted degrees. With no assignment every node starts
    alone, and its sums are the one-term folds 0.0 + 2.0*loop and 0.0 + k,
    read straight off the graph in O(n); an explicit assignment is
    checked and folded by _community_sums.

    `base`, each community's sigma_in/2m - (sigma_tot/2m)^2, and `total`,
    the total-formula evaluator, live for the whole level: built on first
    read and kept current by passes, the only way a state may change.
    """

    def __init__(self, graph, assignment=None):
        n = graph.node_count
        self.graph = graph
        self.m = graph.total_weight
        self.adj = adj = graph._adj
        self.k = k = graph._degrees()
        if assignment is None:
            self.assignment = list(range(n))
            self.size = [1] * n
            # x + 0.0 is x for every weight and degree, none of them -0.0.
            self.sigma_in = [2.0 * a.get(i, 0.0) for i, a in enumerate(adj)]
            self.sigma_tot = list(k)
            return
        self.assignment = assignment = list(assignment)
        if len(assignment) != n:
            raise ValueError("assignment length does not match node count")
        self.size = size = [0] * n
        for i, c in enumerate(assignment):
            if type(c) is not int or not 0 <= c < n:
                raise ValueError(f"community label {c!r} of node {i} is outside range({n})")
            size[c] += 1
        self.sigma_in, self.sigma_tot = _community_sums(graph, assignment)

    @cached_property
    def base(self):
        two_m = 2.0 * self.m
        return [s_in / two_m - (s_tot / two_m) ** 2 for s_in, s_tot in zip(self.sigma_in, self.sigma_tot)]

    total = cached_property(lambda self: _TotalModularity(self))


class _TotalModularity:
    """graph.modularity of a level's current assignment and of its
    single-node moves, float for float, and the order of those floats.

    graph._community_sums folds sigma_tot as 0.0 + k[x] over ascending
    members and sigma_in as + 2.0*w over intra edges in edges() order.
    When every weight is integral and 2m <= 2**53, every partial sum of
    those folds is an exact integer, so any order gives modularity's sums:
    a term's sums are then the ones the visit hands over. Otherwise only
    that fold order reproduces modularity's rounding, and the communities
    a move changes are re-folded in it by graph._fold. modularity folds
    the terms s_in/2m - (s_tot/2m)**2 by smallest member; each sits in an
    n-long slot list at that member, 0.0 elsewhere. No partial sum of that
    fold is -0.0, so adding 0.0 is exact: a score folds only the non-zero
    slots, and float() keeps 0.0 when there are none.

    A visit needs only the order of its moves' scores, and rarely their
    folds (Shewchuk 1997's floating-point filter). Two moves' slot lists
    differ only in the terms of the communities they touch, so the real
    difference of their slot sums is the sum of four terms, each move's
    term gained minus its term lost, and math.fsum gets its sign right. A
    left fold of C terms lies within gamma_(C-1) * sum|t| of their real
    sum (Higham 2002, section 4.2), gamma_k = k*u / (1 - k*u) with
    u = 2**-53, and the terms of a level add up to at most 2 in absolute
    value, so two folds of its n slots differ from their real difference
    by less than `band`. A difference that clears the band has the sign
    of the two folds' difference. Only one inside it folds both through
    score(); mostly the two moves tie in exact arithmetic, and their
    terms differ only by rounding residue.
    """

    def __init__(self, state):
        self.assignment = assignment = state.assignment
        self.k = state.k
        self.two_m = 2.0 * state.m
        n = len(assignment)
        self.exact = self.two_m <= 2.0 ** 53 and all(w.is_integer() for _, _, w in state.graph.edges())
        if not self.exact:
            # Each node's doubled edges to itself and higher ids, in edges() order.
            self.fwd = fwd = [[] for _ in range(n)]
            for u, v, w in state.graph.edges():
                fwd[u].append((v, 2.0 * w))
        self.members = members = [[] for _ in range(n)]
        for x, c in enumerate(assignment):
            members[c].append(x)
        self.slots = [0.0] * n
        for c, mem in enumerate(members):
            if mem:
                self.slots[mem[0]] = self._term(state.sigma_in[c], state.sigma_tot[c], c, mem[0], c)
        # 2 * gamma_n * 2.5: terms rounded from rounded sums stay below 2.5.
        nu = n * 2.0**-53
        self.band = 5.0 * nu / (1.0 - nu)

    def _term(self, s_in, s_tot, c, i, c_i):
        """Term of community c once node i is labelled c_i: from c's sums
        s_in and s_tot then on an exact level; otherwise c's ascending
        members, copied only here, are re-folded."""
        if not self.exact:
            assignment = self.assignment
            mem = self.members[c]
            if c_i != c:  # i leaves c
                mem = [x for x in mem if x != i]
            elif assignment[i] != c:  # i joins c
                mem = mem[:]
                insort(mem, i)
            c_was, assignment[i] = assignment[i], c_i
            s_in = _fold([w2 for u in mem for v, w2 in self.fwd[u] if assignment[v] == c])
            assignment[i] = c_was
            s_tot = _fold(map(self.k.__getitem__, mem))
        return s_in / self.two_m - (s_tot / self.two_m) ** 2

    def leave(self, i, s_in, s_tot):
        """Start node i's visit, given its community's sums without it;
        returns staying, as move() returns a move."""
        self.i = i
        self.c_old = c = self.assignment[i]
        mem = self.members[c]
        self.out = [(mem[0], 0.0)]
        t = 0.0
        if len(mem) > 1:
            t = self._term(s_in, s_tot, c, i, -1)
            self.out.append((mem[1] if mem[0] == i else mem[0], t))
        return [c, None, None, self.slots[mem[0]], t, None]

    def move(self, c, s_in, s_tot):
        """Node i's move into community c, whose sums with node i in it
        are s_in and s_tot: [c, s_in, s_tot, c's term with node i, its
        term without, the fold once score() has taken it]."""
        return [c, s_in, s_tot, self._term(s_in, s_tot, c, self.i, c), self.slots[self.members[c][0]], None]

    def _folded(self, move):
        if move[5] is None:
            move[5] = self.score(self.i, *move[:3])
        return move[5]

    def compare(self, a, b):
        """1, 0 or -1 as move a's score is above, equal to or below move
        b's."""
        d = math.fsum((a[3], -a[4], -b[3], b[4]))
        if d > self.band:
            return 1
        if d < -self.band:
            return -1
        q_a, q_b = self._folded(a), self._folded(b)
        return (q_a > q_b) - (q_a < q_b)

    def gains(self, best, stay):
        """Whether best's score minus staying's, rounded, exceeds _GAIN_EPS."""
        terms = (best[3], -best[4], -stay[3], stay[4])
        if math.fsum((*terms, -self.band, -_GAIN_EPS_UP)) >= 0:
            return True
        if math.fsum((*terms, self.band, -_GAIN_EPS)) <= 0:
            return False
        return self._folded(best) - self._folded(stay) > _GAIN_EPS

    def _patch(self, i, c, s_in, s_tot):
        """Slot writes, zeros first, that move node i into community c,
        whose sums with node i in it are s_in and s_tot."""
        mem = self.members[c]
        return [(mem[0], 0.0), *self.out, (min(mem[0], i), self._term(s_in, s_tot, c, i, c))]

    def score(self, i, c, s_in, s_tot):
        """Modularity with node i moved to community c, whose sums with
        node i in it are s_in and s_tot; its own c scores staying."""
        slots = self.slots[:]
        if c != self.c_old:
            for x, t in self._patch(i, c, s_in, s_tot):
                slots[x] = t
        return float(_fold(filter(None, slots)))

    def join(self, i, c, s_in, s_tot):
        """Commit node i's move into community c, whose sums with node i
        in it are s_in and s_tot."""
        for x, t in self._patch(i, c, s_in, s_tot):
            self.slots[x] = t
        self.members[self.c_old].remove(i)
        insort(self.members[c], i)


def _visit(state, order, use_total_formula=False, move=True):
    """Visit each node of `order` once; returns [(c_old, c_best)] per node
    whose best community is not its own.

    A visit scans the node's adjacency once, collecting its link weight
    k_in to every other community and its self-loop. It takes the node
    out of its community c_old in locals, then scores staying and every
    neighbouring community. Closed-form scores are insertion gains,
    [(sigma_in + 2*k_in)/2m - ((sigma_tot + k_i)/2m)^2] minus
    [sigma_in/2m - (sigma_tot/2m)^2 - (k_i/2m)^2] on the node-removed
    sums. Total-formula scores are full modularity values from
    `state.total`, which is handed the node-removed sums by leave() and
    each candidate's sums with the node in it, the floats a move commits,
    by move() and join(); compare() and gains() order the moves as their
    scores would, folding a score only inside the fold band. Either way
    the score difference against c_old is the net change of the move.
    Other communities are tried in the order the adjacency first reaches
    them, and the highest score wins, the smaller label on a tie: the
    ascending order's first strict maximum, found without a sort, so a
    visit costs O(degree + c) for c neighbouring communities. It is taken
    only when it beats staying by more than _GAIN_EPS. The node is then
    inserted into the winner when `move` is set, and back into c_old
    otherwise.
    Staying adds the node's sums back onto the removed ones, so every
    float matches a separate remove and insert. Rewriting what the visit
    changed keeps the level-long `base` and `total` equal, float for
    float, to a rebuild.
    """
    if state.m == 0:
        raise ValueError("modularity gain is undefined for a graph with no edges")
    adj = state.adj
    assignment = state.assignment
    k = state.k
    sigma_in = state.sigma_in
    sigma_tot = state.sigma_tot
    size = state.size
    two_m = 2.0 * state.m
    gain_eps = _GAIN_EPS
    base = state.base
    total = state.total if use_total_formula else None
    changes = []
    for i in order:
        c_old = assignment[i]
        weights = {}
        loop = 0.0
        for j, w in adj[i].items():
            if j != i:
                c = assignment[j]
                if c in weights:
                    weights[c] += w
                else:
                    weights[c] = w
            else:
                loop = w
        ki = k[i]
        k_old = weights.pop(c_old, 0.0)
        in_old = 2.0 * k_old + 2.0 * loop
        if size[c_old] == 1:
            s_in = s_tot = 0.0
        else:
            s_in = sigma_in[c_old] - in_old
            s_tot = sigma_tot[c_old] - ki
        c_new = c_old
        if weights:
            # A candidate that only ties staying may win here, but never
            # beats staying by _GAIN_EPS, so the node still stays.
            if use_total_formula:
                stay = best = total.leave(i, s_in, s_tot)
                for c, k_in in weights.items():
                    trial = total.move(c, sigma_in[c] + (2.0 * k_in + 2.0 * loop), sigma_tot[c] + ki)
                    sign = total.compare(trial, best)
                    if sign > 0 or sign == 0 and c < c_new:
                        c_new, best = c, trial
                gains = c_new != c_old and total.gains(best, stay)
            else:
                kk = (ki / two_m) ** 2
                stay = best = ((s_in + 2.0 * k_old) / two_m - ((s_tot + ki) / two_m) ** 2
                               - (s_in / two_m - (s_tot / two_m) ** 2 - kk))
                for c, k_in in weights.items():
                    score = ((sigma_in[c] + 2.0 * k_in) / two_m - ((sigma_tot[c] + ki) / two_m) ** 2
                             - (base[c] - kk))
                    if score >= best and (score > best or c < c_new):
                        c_new, best = c, score
                gains = best - stay > gain_eps
            if gains:
                changes.append((c_old, c_new))
            else:
                c_new = c_old
        if move and c_new != c_old:
            in_new = sigma_in[c_new] + (2.0 * weights[c_new] + 2.0 * loop)
            tot_new = sigma_tot[c_new] + ki
            if use_total_formula:
                total.join(i, c_new, in_new, tot_new)
            sigma_in[c_new] = in_new
            sigma_tot[c_new] = tot_new
            base[c_new] = in_new / two_m - (tot_new / two_m) ** 2
            size[c_old] -= 1
            size[c_new] += 1
            assignment[i] = c_new
        else:
            s_in += in_old
            s_tot += ki
        sigma_in[c_old] = s_in
        sigma_tot[c_old] = s_tot
        base[c_old] = s_in / two_m - (s_tot / two_m) ** 2
    return changes


def local_move_pass(state, order, use_total_formula=False):
    """Visit nodes in `order`, applying each node's best single move.

    Returns (state, improved) where improved reports whether any node
    changed community. The state, with the `base` and `total` it keeps
    for the whole level, is updated in place. A move is applied only
    when its gain over staying exceeds a small positive threshold, so
    modularity strictly increases with every applied move and the pass
    loop always terminates. Each visit scans the node's adjacency once
    and costs O(degree + c) for c neighbouring communities. With
    `use_total_formula` a candidate costs O(1) more, unless a weight is
    fractional or 2m > 2**53, when it re-folds the joined community's
    sums; only a comparison inside the fold band also sums n slots.
    """
    return state, bool(_visit(state, order, use_total_formula))


def aggregate(g, partition):
    """Contract each community of `partition` to a single node; returns
    (graph, new_node).

    Intra-community weight becomes a self-loop on the contracted node, so
    total weight and the modularity of the corresponding partitions are
    preserved. New nodes are numbered by first appearance of their
    community, as Partition.canonicalize numbers it; the tuple `new_node`
    maps each old node to the new node that holds it. Each contracted
    weight sums its pair's edges in edges() order, and the sorted pairs go
    straight into the new Graph, which does not re-check them.
    """
    canonical = (partition if isinstance(partition, Partition) else Partition(partition)).canonicalize()
    new_node = canonical.labels
    if len(new_node) != g.node_count:
        raise ValueError("partition length does not match node count")
    # rows[cu][cv] for cu <= cv: int keys hash and sort faster than pairs.
    rows = [{} for _ in range(canonical.num_communities)]
    for u, v, w in g._edges:
        cu = new_node[u]
        cv = new_node[v]
        if cu > cv:
            cu, cv = cv, cu
        row = rows[cu]
        row[cv] = row.get(cv, 0.0) + w
    edges = [(cu, cv, row[cv]) for cu, row in enumerate(rows) for cv in sorted(row)]
    return Graph._from_sorted(len(rows), edges), new_node


def louvain(g, variant, seed=0):
    """Run one seeded Louvain optimization; returns (partition, q, passes).

    The seed, an int, drives the node visiting order for every variant
    except Exp, which ignores it and always produces the same partition.
    Requires a graph with at least one edge.
    """
    variant = LouvainVariant(variant)
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if g.total_weight == 0:
        raise ValueError("modularity optimization needs at least one edge")
    rng = random.Random(seed)
    use_total = variant in (LouvainVariant.TOTAL, LouvainVariant.TOTAL_NO_MERGE)
    no_merge = variant in (LouvainVariant.NO_MERGE, LouvainVariant.TOTAL_NO_MERGE)
    labels = list(range(g.node_count))
    level_graph = g
    passes = 0
    while True:
        n = level_graph.node_count
        state = CommunityState(level_graph)
        if variant is LouvainVariant.EXP:
            proposals = _visit(state, range(n), move=False)
            passes += 1
            if not proposals:
                break
            communities = _unite(n, proposals)
        else:
            moved = False
            while True:
                order = list(range(n))
                rng.shuffle(order)
                passes += 1
                if not local_move_pass(state, order, use_total)[1]:
                    break
                moved = True
            communities = state.assignment
            if no_merge:
                labels = communities
                break
            if not moved:
                break
        level_graph, new_node = aggregate(level_graph, communities)
        labels = [new_node[c] for c in labels]
    part = Partition(labels).canonicalize()
    return part, modularity(g, part), passes
