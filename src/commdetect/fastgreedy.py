"""Greedy modularity agglomeration over sparse rows of flat gain cells.

Starting from singleton communities, the pair whose merge increases
modularity the most is joined repeatedly. The pairwise gains live in
sparse symmetric rows, as in Clauset, Newman & Moore 2004, only for
pairs that share at least one edge; a retired community's row is None.
Each pair is one cell, an int c held by `rows[i][j]` and `rows[j][i]`
that indexes the heap's flat lists: its gain, -inf once retired, and
its names lo < hi, so a gain is written once and no heap entry holds a
container. A global max-heap over the cells picks each join; gains are
then updated in place, not recomputed, and the cells the absorbed
community brings alone are renamed to the absorbing one.

A queued gain is an upper bound on its cell's current gain, in the lazy
style of accelerated greedy (Minoux; CELF in Leskovec et al. 2007): a
join pushes only cells whose gain rises, and a renamed cell keeps its
entries. Junk entries, a retired cell's or a bound above its cell's
gain, are resolved only at the heap top: selection drops or re-queues
them until the top is exact, giving the maximum M and the tie floor
M - _TIE_EPS. The pairs at or above the floor, the tie band, are
carried between selections while the floor does not fall, since a cell
climbs into the band only by a push; a renamed cell is re-banded under
its new names. When the floor falls, a walk down the heap array that
only reads it rebuilds the band, taking each cell by its gain, not its
bound. The chosen pair depends only on the stored gains.
"""

import heapq
from dataclasses import dataclass

from .agglomerative import Dendrogram, HslSpec, cut
from .graph import _fold

__all__ = ["GlobalHeap", "init_fastgreedy", "join", "fastgreedy"]

# Gains closer together than this are treated as tied, so the smallest
# (i, j) pair wins regardless of which float happens to be a few ulps
# ahead after incremental updates.
_TIE_EPS = 1e-12

# The gain of a retired cell: below every bound and every floor.
_RETIRED = float("-inf")


@dataclass(frozen=True)
class Join:
    """One join: communities `left` and `right` become `merged`.

    `gain` is the modularity change of the join and `q` the modularity
    of the partition right after it.
    """

    left: int
    right: int
    merged: int
    gain: float
    q: float
    step: int

    def to_record(self):
        # The keys of an agglomerative `Merge` record, the gain as "distance".
        return {"left": self.left, "right": self.right, "merged": self.merged,
                "distance": self.gain, "step": self.step}


class GlobalHeap:
    """One max-heap of (-bound, c) entries over the cells c, which index
    its flat lists `gain`, `lo` and `hi` (see the module docstring).

    Every live cell has a queued entry whose bound is at least its gain,
    so a cell needs a new entry only when its gain rises or it is created.
    Junk entries, those of retired cells and bounds above their cell's
    gain, are resolved only at the top, by `pop_best`; the band walk reads
    past them and writes nothing. The tie band `_band`, carried between
    selections, is a min-heap of (lo, hi, c) entries holding every live
    cell whose gain is at least `_floor`, the tie floor of the last
    `pop_best` (+inf before the first), under its current names; and
    maybe entries whose cell has since retired, fallen or been renamed.
    """

    def __init__(self):
        self.gain, self.lo, self.hi = [], [], []
        self._entries, self._band = [], []
        self._floor = float("inf")

    def push(self, c):
        """Queue cell `c` at its current gain; band it as `carry` does."""
        gain = self.gain[c]
        heapq.heappush(self._entries, (-gain, c))
        if gain >= self._floor:
            heapq.heappush(self._band, (self.lo[c], self.hi[c], c))

    def carry(self, cells):
        """Band each of `cells` whose gain is at or above the floor, under its current names."""
        gains, floor = self.gain, self._floor
        for c in cells:
            if gains[c] >= floor:
                heapq.heappush(self._band, (self.lo[c], self.hi[c], c))

    def pop_best(self):
        """Return (i, j, dq) for the best current pair, or None if empty.

        Pairs whose gains sit within _TIE_EPS of the maximum count as
        tied and the smallest (i, j) among them wins. Junk on top of the
        heap is resolved until the top is exact, which makes it the
        maximum M: a retired cell's entry is dropped and a stale bound is
        re-queued at its cell's gain. The band is read afresh only if the
        floor M - _TIE_EPS fell; retired, fallen or renamed band entries
        are dropped off its top, and the pair left there wins, staying
        queued and in the band until joined.
        """
        entries, gains = self._entries, self.gain
        while entries:
            neg_bound, c = entries[0]
            gain = gains[c]
            if gain == _RETIRED:
                heapq.heappop(entries)
            elif gain < -neg_bound:
                heapq.heappop(entries)
                self.push(c)
            else:
                break
        else:
            return None
        floor = -entries[0][0] - _TIE_EPS
        if floor < self._floor:
            self._band = self._walk_band(floor)
        self._floor = floor
        band = self._band
        while True:
            i, j, c = band[0]
            if gains[c] >= floor and self.lo[c] == i and self.hi[c] == j:
                return i, j, gains[c]
            heapq.heappop(band)

    def _walk_band(self, floor):
        """Every live cell with a gain of at least `floor`, as a band
        min-heap, read by walking the heap array down through bounds at or
        above the floor. A cell is taken by its gain, not its bound, and
        junk entries met are left in place: `_entries` is only read.
        """
        entries = self._entries
        gains, lo, hi = self.gain, self.lo, self.hi
        neg_floor = -floor
        band = []
        stack = [0]
        size = len(entries)
        while stack:
            k = stack.pop()
            c = entries[k][1]
            if gains[c] >= floor:
                band.append((lo[c], hi[c], c))
            child = 2 * k + 1
            if child < size and entries[child][0] <= neg_floor:
                stack.append(child)
            child += 1
            if child < size and entries[child][0] <= neg_floor:
                stack.append(child)
        heapq.heapify(band)
        return band

    def __len__(self):
        return len(self._entries)


def init_fastgreedy(g):
    """Build the gain rows, the heap over them, and the weight fractions.

    Returns (rows, heap, a), both lists indexed by community id: `rows[i]`
    maps each community j that shares an edge with i to the cell c that
    `rows[j][i]` also holds, with `heap.gain[c]` its gain and
    `heap.lo[c]`, `heap.hi[c]` the pair (min(i, j), max(i, j)); cell c is
    the graph's c-th edge. a[i] = k_i/2m is i's share of the degree mass.
    For singleton communities the gain of joining connected i and j is
    w_ij/m - 2*a_i*a_j, the exact modularity change of that merge.
    Requires a simple graph with at least one edge.
    """
    m = g.total_weight
    if m == 0:
        raise ValueError("greedy agglomeration needs at least one edge")
    if g.has_self_loops():
        raise ValueError("greedy agglomeration requires a simple graph (no self-loops)")
    two_m = 2.0 * m
    a = [k / two_m for k in g._degrees()]
    rows = [{} for _ in range(g.node_count)]
    heap = GlobalHeap()
    edges = tuple(g.edges())
    heap.gain = [w / m - 2.0 * a[u] * a[v] for u, v, w in edges]
    heap.lo, heap.hi = [u for u, _, _ in edges], [v for _, v, _ in edges]
    for c, (u, v, _) in enumerate(edges):
        rows[u][v] = rows[v][u] = c
        heap.push(c)
    return rows, heap, a


def _apply_join(rows, heap, a, i, j):
    """Merge community i into j (the result keeps label j).

    Third communities connected to either side get their gain toward the
    merged community rewritten in place:
      both sides:  dq_ik + dq_jk
      only i:      dq_ik - 2*a_j*a_k
      only j:      dq_jk - 2*a_i*a_k
    using the pre-merge weight fractions; then a_j absorbs a_i and a_i is
    0. The joined cell retires, row j's "both" gains are copied aside,
    and one test-free loop gives every cell of row j the "only j" fall.
    One loop over row i then retires the i side of each "both" pair and
    writes the sum into the j side, and lowers each "only i" cell and
    renames it (i, k) -> (j, k), moving it to row j. Queued gains are
    upper bounds, so only a rising "both" gain is pushed; a renamed cell
    keeps its bounds, and `heap.carry` re-bands it under its new names.
    """
    gain, lo, hi = heap.gain, heap.lo, heap.hi
    row_i, row_j = rows[i], rows[j]
    a_i, a_j = a[i], a[j]
    joined = row_i.pop(j, None)
    if joined is not None:
        del row_j[i]
        gain[joined] = _RETIRED
    shared = {k: gain[row_j[k]] for k in row_i if k in row_j}
    t = 2.0 * a_i
    for k, c in row_j.items():
        gain[c] -= t * a[k]
    t = 2.0 * a_j
    for k, c in row_i.items():
        row_k = rows[k]
        del row_k[i]
        if k in shared:
            both = shared[k]
            new = gain[c] + both
            gain[c] = _RETIRED
            kept = row_j[k]
            gain[kept] = new
            if new > both:
                heap.push(kept)
        else:
            gain[c] -= t * a[k]
            row_j[k] = row_k[j] = c
            lo[c], hi[c] = (k, j) if k < j else (j, k)
    heap.carry(row_i.values())
    rows[i] = None
    a[j] = a_i + a_j
    a[i] = 0.0


def join(rows, heap, a, i, j):
    """Merge the pair (i, j) into j, rewrite affected gains, and return
    the gain of the join.

    Raises ValueError when an id is not an int in range(len(rows)),
    either community is dead, or the pair has no gain cell (communities
    in different components cannot be joined through the rows).
    """
    for x in (i, j):
        if type(x) is not int or not 0 <= x < len(rows):
            raise ValueError(f"community id must be an int in 0..{len(rows) - 1}, got {x!r}")
    if i == j:
        raise ValueError("cannot join a community with itself")
    if rows[i] is None or rows[j] is None:
        raise ValueError(f"cannot join dead community in pair ({i}, {j})")
    if j not in rows[i]:
        raise ValueError(f"no stored gain for pair ({i}, {j})")
    dq = heap.gain[rows[i][j]]
    _apply_join(rows, heap, a, i, j)
    return dq


def fastgreedy(g):
    """Full greedy agglomeration of `g`.

    Joins the best pair until none remains, then force-joins leftover
    components pairwise in ascending id order (each such join changes
    modularity by exactly -2*a_i*a_j). Returns the complete dendrogram of
    `Join` records, each with its gain and the running modularity Q after
    it; the partition where Q first reaches its maximum, cut from that
    dendrogram; and that maximum.
    """
    rows, heap, a = init_fastgreedy(g)
    n = g.node_count
    cluster_id = list(range(n))
    q = -_fold(v * v for v in a)
    best_q = q
    best_joins = 0
    joins = []
    remnants = None
    for step in range(n - 1):
        picked = heap.pop_best()
        if picked is None:
            # Disconnected remnants: join the two lowest-numbered ones. No
            # cell is left once the heap runs dry, so each join only retires
            # the lowest id, and the ids listed once stay in order.
            if remnants is None:
                remnants = [k for k in range(n - 1, -1, -1) if rows[k] is not None]
            i, j = remnants.pop(), remnants[-1]
            dq = -2.0 * a[i] * a[j]
            _apply_join(rows, heap, a, i, j)
        else:
            i, j, _ = picked
            dq = join(rows, heap, a, i, j)
        q += dq
        joins.append(Join(cluster_id[i], cluster_id[j], n + step, dq, q, step))
        cluster_id[j] = n + step
        if q > best_q:
            best_q = q
            best_joins = step + 1
    dendrogram = Dendrogram(n, tuple(joins))
    return dendrogram, cut(dendrogram, HslSpec("absolute", n - 1 - best_joins)), best_q
