"""Greedy modularity agglomeration over sparse rows of shared gain cells.

Starting from singleton communities, the pair whose merge increases
modularity the most is joined repeatedly. The pairwise gains live in
sparse symmetric rows, as in Clauset, Newman & Moore 2004, only for
pairs that share at least one edge; a retired community's row is None.
Each pair has one mutable cell `[gain, i, j]`, named by its two
communities with i < j, which `rows[i][j]` and `rows[j][i]` share, so a
gain is written once. A global max-heap over the cells picks each join,
and gains are updated in place after it instead of being recomputed.
A join renames the cells the absorbed community brings alone, in place,
to the absorbing one; a retired cell's gain is -inf.

A queued gain is an upper bound on its cell's current gain, in the lazy
style of accelerated greedy (Minoux; CELF in Leskovec et al. 2007): a
join pushes only cells whose gain rises, never a falling gain, and a
renamed cell keeps its entries. Junk entries, a retired cell's or a
bound above its cell's gain, are resolved in one place, the heap top:
selection drops or re-queues them there until the top is exact, which
gives the maximum M and the tie floor M - _TIE_EPS. The pairs at or
above the floor, the tie band, are carried from one selection to the
next while the floor does not fall, since a cell only climbs into the
band by a push; a renamed cell is re-added under its new names. When
the floor falls, the band is read afresh by a walk down the heap array
that only reads it, taking each cell by its gain, not its bound. The
chosen pair depends only on the stored gains.
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
    """One max-heap of (-bound, cell) entries over the shared gain cells.

    Every live cell has at least one queued entry whose bound is at least
    the cell's current gain, so a cell only needs a new entry when its
    gain rises or it is created. Junk entries, those of retired cells and
    bounds above their cell's current gain, are resolved only at the top,
    by `pop_best`; the band walk reads past them and writes nothing.
    The tie band `_band`, carried between selections, is a min-heap of
    (i, j, cell) entries holding every live cell whose gain is at least
    `_floor`, the tie floor of the last `pop_best` (+inf before the
    first), under its current names; and maybe entries whose cell has
    since retired, fallen below that floor or been renamed.
    """

    def __init__(self):
        self._entries = []
        self._band = []
        self._floor = float("inf")

    def push(self, cell):
        """Queue `cell` at its current gain."""
        gain = cell[0]
        heapq.heappush(self._entries, (-gain, cell))
        if gain >= self._floor:
            heapq.heappush(self._band, (cell[1], cell[2], cell))

    def rename(self, cell, i, j):
        """Name `cell` after communities i and j. Its gain has not risen, so
        its queued bounds still hold; only the band needs the new names."""
        if i > j:
            i, j = j, i
        cell[1] = i
        cell[2] = j
        if cell[0] >= self._floor:
            heapq.heappush(self._band, (i, j, cell))

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
        entries = self._entries
        while entries:
            neg_bound, cell = entries[0]
            gain = cell[0]
            if gain == _RETIRED:
                heapq.heappop(entries)
            elif gain < -neg_bound:
                heapq.heappop(entries)
                self.push(cell)
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
            i, j, cell = band[0]
            if cell[0] >= floor and cell[1] == i and cell[2] == j:
                return i, j, cell[0]
            heapq.heappop(band)

    def _walk_band(self, floor):
        """Every live cell with a gain of at least `floor`, as a band
        min-heap, read by walking the heap array down through bounds at or
        above the floor. A cell is taken by its gain, not its bound, and
        junk entries met are left in place: `_entries` is only read.
        """
        entries = self._entries
        neg_floor = -floor
        band = []
        stack = [0]
        size = len(entries)
        while stack:
            k = stack.pop()
            cell = entries[k][1]
            if cell[0] >= floor:
                band.append((cell[1], cell[2], cell))
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
    maps each community j that shares an edge with i to the cell
    `[gain, min(i, j), max(i, j)]` that `rows[j][i]` also holds, and
    a[i] = k_i/2m is i's share of the degree mass. For singleton
    communities the gain of joining connected i and j is
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
    for u, v, w in g.edges():
        cell = [w / m - 2.0 * a[u] * a[v], u, v]
        rows[u][v] = rows[v][u] = cell
        heap.push(cell)
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
    renames it (i, k) -> (j, k) in place, moving it to row j; row i
    becomes None. Queued gains are upper bounds, so only a rising "both"
    gain is pushed; "only i" and "only j" always fall.
    """
    row_i = rows[i]
    row_j = rows[j]
    a_i = a[i]
    a_j = a[j]
    joined = row_i.pop(j, None)
    if joined is not None:
        del row_j[i]
        joined[0] = _RETIRED
    shared = {k: row_j[k][0] for k in row_i if k in row_j}
    t = 2.0 * a_i
    for k, cell in row_j.items():
        cell[0] -= t * a[k]
    t = 2.0 * a_j
    for k, cell in row_i.items():
        row_k = rows[k]
        del row_k[i]
        if k in shared:
            both = shared[k]
            new = cell[0] + both
            cell[0] = _RETIRED
            kept = row_j[k]
            kept[0] = new
            if new > both:
                heap.push(kept)
        else:
            cell[0] -= t * a[k]
            row_j[k] = row_k[j] = cell
            heap.rename(cell, j, k)
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
    dq = rows[i][j][0]
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
