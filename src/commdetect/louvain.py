"""Greedy modularity optimization with local moves and graph contraction.

Every variant runs one level loop: build a CommunityState on the level's
graph (node i starting in community i), optimise it, then either stop or
contract each community to a single node (intra-community weight
becoming a self-loop) and repeat one level up. A variant is one row of
_VARIANTS: how it optimises a level and whether it contracts one.
"""

import random
from bisect import insort
from enum import Enum
from functools import cached_property

from .graph import Graph, Partition, _community_sums, _fold, _unite, modularity

__all__ = ["LouvainVariant", "CommunityState", "local_move_pass", "aggregate", "louvain"]

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

    Community ids are node ids: every label must lie in range(n), as it
    does at the start of each level, where node i starts in community i.
    Three lists indexed by community hold sigma_in and sigma_tot, as
    graph._community_sums folds them, and size (the member count). An
    empty community's slots read exactly 0.0 and 0. `k` is the graph's
    own tuple of weighted degrees. With no assignment every node starts
    alone, and its sums are the one-term folds 0.0 + 2.0*loop and 0.0 + k,
    read straight off the graph in O(n); an explicit assignment is
    checked and folded by _community_sums.

    `base`, each community's sigma_in/2m - (sigma_tot/2m)^2, `total`, the
    total-formula evaluator, and `settled`, what lets a pass skip a visit,
    live for the whole level: built on first read and kept current by
    passes, the only way a state may change.
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

    @cached_property
    def settled(self):
        """Visit counts: [visits so far]; per node, its last stay (0 after a
        move) and its neighbours' last move; per community, its sums' last
        change; per node, its last (weights, k_old, loop)."""
        n = len(self.assignment)
        return [0], [0] * n, [0] * n, [0] * n, [None] * n


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
    difference of their slot sums is that of their keys, each a term with
    node i minus the same community's term without (leave(), key()). A
    left fold of C terms lies within gamma_(C-1) * sum|t| of their real
    sum (Higham 2002, section 4.2), gamma_k = k*u / (1 - k*u), u = 2**-53;
    a level's |t| add up to under 2.5, so two folds of its n slots differ
    from their real difference by under 5*gamma_n. A key subtracts floats
    below 2.5 in magnitude, so two keys' float difference lies within
    20.0001u of the real one (5u per key, 10.0001u for the subtraction).
    `band`, 5*gamma_n + 32u, stays 31u above 5*gamma_n once rounded: a key
    difference outside it has the sign of the folds' difference, and only
    one within it folds both moves through score(). A key difference of
    at least _GAIN_EPS + band (a sum rounded by under u) puts the folds'
    real difference above _GAIN_EPS + 9u, one of at most _GAIN_EPS - band
    below _GAIN_EPS, which settles the gain threshold alike.
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
        # 2 * gamma_n * 2.5, plus 32u for the rounding of the keys.
        nu = n * 2.0**-53
        self.band = 5.0 * nu / (1.0 - nu) + 32 * 2.0**-53

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
        returns staying's key: c_old's term with node i minus without."""
        self.i = i
        self.c_old = c = self.assignment[i]
        mem = self.members[c]
        self.out = [(mem[0], 0.0)]
        t = 0.0
        if len(mem) > 1:
            t = self._term(s_in, s_tot, c, i, -1)
            self.out.append((mem[1] if mem[0] == i else mem[0], t))
        return self.slots[mem[0]] - t

    def key(self, c, s_in, s_tot):
        """Node i's key for community c, whose sums with node i in it are
        s_in and s_tot: c's term with node i minus its term without."""
        return self._term(s_in, s_tot, c, self.i, c) - self.slots[self.members[c][0]]

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
    sums. Total-formula scores are full modularity values, but a move is
    keyed by one float, its community's term with the node minus its term
    without: inline on an exact level, where c's slot holds base[c],
    otherwise by `state.total`.key(), and staying by leave(). A key
    difference outside the evaluator's band settles a comparison, and
    one outside _GAIN_EPS -+ band the gain, as the scores would; only one
    within folds the moves through score(), each at most once a visit.
    Either way the score difference against c_old is the net change of
    the move. Other communities are tried in the order the adjacency
    first reaches them, and the highest score wins, the smaller label on
    a tie: the ascending order's first strict maximum, found without a
    sort, so a visit costs O(degree + c) for c neighbouring communities.
    It is taken only when it beats staying by more than _GAIN_EPS. The
    node is then inserted into the winner when `move` is set, and back
    into c_old otherwise. The two loops share this rule but stay apart,
    as one loop serving both formulas measured slower for normal and Exp.
    Staying adds the node's sums back onto the removed ones, so every
    float matches a separate remove and insert. Rewriting what the visit
    changed keeps the level-long `base` and `total` equal, float for
    float, to a rebuild.

    A local-move pass skips node i when it stayed at its last visit, no
    neighbour has moved since, and neither its community nor one in its
    last `weights` has changed its sums since (`state.settled`). Its
    weights, sums, base terms and keys are then the floats it stayed on,
    so it would stay again and write back the same bits: a stay whose
    round trip, (sigma - in_old) + in_old, moved a bit marked its
    community changed. A visit that folded is never skipped, as a fold
    reads every slot. Unmoved neighbours let a visit reuse its weights.
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
    if use_total_formula:
        total = state.total
        exact, band = total.exact, total.band
    clock, last, near, changed, seen = state.settled
    t = clock[0]
    changes = []
    for t, i in enumerate(order, t + 1):
        c_old = assignment[i]
        if move and near[i] < last[i]:  # node i stayed, and no neighbour moved since
            since = last[i]
            weights, k_old, loop = seen[i]
            if changed[c_old] < since:
                for c in weights:
                    if changed[c] >= since:
                        break
                else:
                    continue  # the floats node i stayed on: it would stay
        else:
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
            k_old = weights.pop(c_old, 0.0)
        ki = k[i]
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
                in_best, tot_best = s_in, s_tot
                folds = {}  # score() by community, taken at most once a visit
                for c, k_in in weights.items():
                    in_c = sigma_in[c] + (2.0 * k_in + 2.0 * loop)
                    tot_c = sigma_tot[c] + ki
                    key = in_c / two_m - (tot_c / two_m) ** 2 - base[c] if exact else total.key(c, in_c, tot_c)
                    d = key - best
                    if -band <= d <= band:
                        # The folds decide; their difference is 0.0 only on a tie.
                        if c_new not in folds:
                            folds[c_new] = total.score(i, c_new, in_best, tot_best)
                        folds[c] = total.score(i, c, in_c, tot_c)
                        d = folds[c] - folds[c_new] or c_new - c
                    if d > 0:
                        c_new, best = c, key
                        in_best, tot_best = in_c, tot_c
                gain = best - stay
                if c_new != c_old and gain_eps - band < gain < gain_eps + band:
                    if c_new not in folds:
                        folds[c_new] = total.score(i, c_new, in_best, tot_best)
                    if c_old not in folds:
                        folds[c_old] = total.score(i, c_old, s_in, s_tot)
                    gain = folds[c_new] - folds[c_old]
                gains = c_new != c_old and gain > gain_eps
                if folds:
                    near[i] = t  # a fold read every slot: visit node i again
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
            changed[c_old] = changed[c_new] = t
            last[i] = 0
            for j in adj[i]:
                near[j] = t
        else:
            s_in += in_old
            s_tot += ki
            if move:
                if s_in != sigma_in[c_old] or s_tot != sigma_tot[c_old]:
                    changed[c_old] = t
                last[i] = t
                seen[i] = weights, k_old, loop
        sigma_in[c_old] = s_in
        sigma_tot[c_old] = s_tot
        base[c_old] = s_in / two_m - (s_tot / two_m) ** 2
    clock[0] = t
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
    `use_total_formula` each candidate is keyed by one float, in O(1)
    unless a weight is fractional or 2m > 2**53, when the key re-folds
    the joined community's sums; only a comparison inside the fold band
    also folds the n slots of both moves. Unchanged visits are skipped.
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


def _passes(state, rng, use_total):
    """Seeded local-move passes until one moves nothing; returns
    (state.assignment, passes), or (None, passes) when no node moved."""
    n = len(state.assignment)
    passes = 0
    while True:
        order = list(range(n))
        rng.shuffle(order)
        passes += 1
        if not local_move_pass(state, order, use_total)[1]:
            return (state.assignment if passes > 1 else None), passes


def _proposals(state, rng, use_total):
    """One proposal pass against the frozen state; returns (communities, 1),
    the proposed community pairs united, or (None, 1) with no proposal."""
    n = len(state.assignment)
    proposals = _visit(state, range(n), use_total, move=False)
    return (_unite(n, proposals) if proposals else None), 1


# Each row: (level optimiser, use the total formula, contract an improved level).
_VARIANTS = {
    # Seeded local-move passes with closed-form gains until a pass moves
    # nothing; a level that moved nothing ends the run.
    LouvainVariant.NORMAL: (_passes, False, True),
    # As normal, but each move is chosen as graph.modularity of the moved
    # partition would choose it, bit for bit: keyed by the one term it
    # changes, and folded only when two keys lie within the fold's bound.
    LouvainVariant.TOTAL: (_passes, True, True),
    LouvainVariant.NO_MERGE: (_passes, False, False),  # normal, returning level 0
    LouvainVariant.TOTAL_NO_MERGE: (_passes, True, False),  # total, returning level 0
    # One proposal pass per level: every node's best target against the
    # frozen state; the proposed community pairs are united, each group
    # labelled by its smallest node. Deterministic; it ignores the seed.
    # No union is checked to raise Q, so it can end at Q 0.0 on a ring of
    # cliques whose level 0 it solved: level 1 chains the whole ring.
    LouvainVariant.EXP: (_proposals, False, True),
}


def louvain(g, variant, seed=0):
    """Run one seeded Louvain optimization; returns (partition, q, passes).

    The seed, an int, drives the node visiting order for every variant
    except Exp, which ignores it and always produces the same partition.
    Requires a graph with at least one edge.
    """
    optimise, use_total, contract = _VARIANTS[LouvainVariant(variant)]
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if g.total_weight == 0:
        raise ValueError("modularity optimization needs at least one edge")
    rng = random.Random(seed)
    labels = list(range(g.node_count))
    level_graph = g
    passes = 0
    while True:
        communities, level_passes = optimise(CommunityState(level_graph), rng, use_total)
        passes += level_passes
        if communities is None:
            break
        if not contract:
            labels = communities
            break
        level_graph, new_node = aggregate(level_graph, communities)
        labels = [new_node[c] for c in labels]
    part = Partition(labels).canonicalize()
    return part, modularity(g, part), passes
