"""Bottom-up hierarchical clustering over graph-derived node distances.

Each node's neighbor set is kept as one bit row, an int with bit j set
for each neighbor j. The distance between two nodes is the size of the
symmetric difference of their sets, the bit count of their rows' XOR:
effective_degree(i) + effective_degree(j) minus twice their
shared-neighbor count, which is the squared Euclidean distance between
their neighborhood indicator vectors. Clusters are merged greedily under
a chosen linkage and the merge history is kept as a dendrogram that can
be cut into a flat partition.
"""

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from numbers import Real

from .graph import Partition, _unite

__all__ = [
    "NeighborMatrix",
    "neighbor_matrix",
    "Linkage",
    "Merge",
    "Dendrogram",
    "HslSpec",
    "euclidean_distance",
    "linkage_distance",
    "agglomerate",
    "cut",
]


class Linkage(str, Enum):
    SINGLE = "single"
    COMPLETE = "complete"
    AVERAGE = "average"


@dataclass(frozen=True)
class Merge:
    """One merge event: clusters `left` and `right`, `distance` apart, become `merged`."""

    left: int
    right: int
    merged: int
    distance: float
    step: int

    def to_record(self):
        return {"left": self.left, "right": self.right, "merged": self.merged,
                "distance": self.distance, "step": self.step}


@dataclass(frozen=True)
class Dendrogram:
    """Full merge history over `leaves` original nodes.

    Leaves are clusters 0..leaves-1; merge step s creates cluster
    leaves + s. A complete agglomeration has exactly leaves - 1 merges.
    `cut` reads only the cluster ids of the records, so it also cuts
    fastgreedy's `Join`s.
    """

    leaves: int
    merges: tuple

    def to_records(self):
        return [m.to_record() for m in self.merges]


@dataclass(frozen=True)
class HslSpec:
    """Where to cut a dendrogram.

    mode "absolute": value is an integer count of final merges to undo.
    mode "relative": value in [0, 1]; 0 keeps every merge (one cluster),
    1 undoes them all (every node its own cluster).
    """

    mode: str
    value: float

    def __post_init__(self):
        if self.mode not in ("absolute", "relative"):
            raise ValueError(f"unknown cut mode {self.mode!r}")
        value = self.value
        number = type(value) is not bool and isinstance(value, Real)
        if self.mode == "absolute":
            if not number or not math.isfinite(value) or value != int(value) or value < 0:
                raise ValueError(f"absolute cut value must be a non-negative integer, got {value!r}")
        elif not number or not 0.0 <= value <= 1.0:
            raise ValueError(f"relative cut value must lie in [0, 1], got {value!r}")


class NeighborMatrix:
    """Neighbor sets as bit rows, backing the degree-based node distance.

    `_bits[i]` has bit j set for each neighbor j of node i. In
    self-neighboring mode every node is a member of its own neighbor set,
    so bit i is set too: each node's effective degree grows by one and
    every adjacent pair gains two shared neighbors (each endpoint now
    appears in the other's set).
    """

    __slots__ = ("_bits", "effective_degree")

    def __init__(self, bits):
        self._bits = bits
        self.effective_degree = tuple(b.bit_count() for b in bits)

    def shared(self, i, j):
        """Number of shared neighbors of the distinct nodes i and j."""
        for node in (i, j):
            if type(node) is not int or not 0 <= node < len(self.effective_degree):
                raise ValueError(f"node {node!r} out of range 0..{len(self.effective_degree) - 1}")
        if i == j:
            raise ValueError(f"shared-neighbor count is defined for distinct nodes only, got {i} twice")
        return (self._bits[i] & self._bits[j]).bit_count()


def neighbor_matrix(g, self_neighboring=False):
    """Neighbor sets of every node of a simple graph, as bit rows.

    With self_neighboring enabled each node also counts as its own
    neighbor: its row sets its own bit, so effective degrees grow by one
    and adjacent pairs gain two shared neighbors. Raises ValueError if the
    graph has self-loops. Takes O(n + m) int operations on ints of n bits,
    and holds about n*n/8 bytes.
    """
    if g.has_self_loops():
        raise ValueError("neighbor matrix requires a simple graph (no self-loops)")
    own = 1 if self_neighboring else 0
    return NeighborMatrix([sum(1 << j for j in adj) | own << i for i, adj in enumerate(g._adj)])


def euclidean_distance(nm, i, j):
    """Distance k_i + k_j - 2*n_ij between two distinct nodes."""
    shared = nm.shared(i, j)  # checks both ids before they index anything
    return nm.effective_degree[i] + nm.effective_degree[j] - 2 * shared


def linkage_distance(kind, cluster_a, cluster_b, pairwise):
    """Inter-cluster distance under a linkage rule.

    `pairwise` is a callable giving the distance between two nodes. Single
    linkage takes the minimum over cross pairs, complete the maximum,
    average the arithmetic mean.
    """
    kind = Linkage(kind)
    if not cluster_a or not cluster_b:
        raise ValueError("linkage distance requires two non-empty clusters")
    if kind is Linkage.SINGLE:
        return min(pairwise(a, b) for a in cluster_a for b in cluster_b)
    if kind is Linkage.COMPLETE:
        return max(pairwise(a, b) for a in cluster_a for b in cluster_b)
    total = sum(pairwise(a, b) for a in cluster_a for b in cluster_b)
    return total / (len(cluster_a) * len(cluster_b))


def agglomerate(g, kind, self_neighboring=False):
    """Merge clusters greedily until one remains; return the dendrogram.

    Edge weights are ignored. Node distances are computed once, each the
    bit count of the XOR of two neighbor bit rows: n(n-1)/2 XORs of n-bit
    ints, whatever the density. Each pair is kept once, in its smaller id's
    row. A merge writes each live cluster's distance to the new one by the
    Lance-Williams rules (min, max, or the integer sum of pair distances for
    average linkage, keyed on sum / pair count). The closest pair merges
    first, ties going to the smallest (min id, max id) pair. As in Muellner's
    generic algorithm (2011), a lazy heap holds one candidate per cluster a,
    the smallest (key, b) over live b > a, which is rescanned when it reaches
    the top after b merged away. The merges typically take O(n^2) time,
    O(n^3) at worst, and O(n^2) memory. Requires a simple graph with at
    least one node.
    """
    kind = Linkage(kind)
    n = g.node_count
    if n < 1:
        raise ValueError("agglomeration requires at least one node")
    bits = neighbor_matrix(g, self_neighboring)._bits
    # best[a]: a's candidate (key, a, b), (inf, a, -1) if none, None once merged.
    rows, best = {}, []
    for i, bi in enumerate(bits):
        ds = [(bi ^ bj).bit_count() for bj in bits[i + 1:]]
        rows[i] = dict(zip(range(i + 1, n), ds))
        best.append((d := min(ds), i, i + 1 + ds.index(d)) if ds else (math.inf, i, -1))
    heap = best[:]
    heapq.heapify(heap)
    single, average = kind is Linkage.SINGLE, kind is Linkage.AVERAGE
    size = [1] * n
    merges = []
    for step in range(n - 1):
        # Live pairs never change distance, so each candidate bounds its
        # cluster's from below, and the first live one with b alive wins.
        while True:
            d, a, b = top = heap[0]
            if best[a] is not top:
                heapq.heappop(heap)
            elif b in rows:
                break
            else:  # Row keys stay ascending, so the first smallest key wins.
                c = best[a] = (math.inf, a, -1)
                for k, v in rows[a].items():
                    key = v / (size[a] * size[k]) if average else v
                    if key < c[0]:
                        c = best[a] = (key, a, k)
                heapq.heapreplace(heap, c)
        heapq.heappop(heap)
        m = n + step
        merges.append(Merge(a, b, m, float(d), step))
        row_a, row_b = rows.pop(a), rows.pop(b)
        best[a] = best[b] = None
        best.append((math.inf, m, -1))
        size.append(sm := size[a] + size[b])
        for k, row_k in rows.items():  # a < b, and d(k, a), d(k, b) sit in the smaller id's row
            x = row_k.pop(a) if k < a else row_a[k]
            y = row_k.pop(b) if k < b else row_b[k]
            v = row_k[m] = x + y if average else x if (x < y) == single else y  # min if single
            key = v / (sm * size[k]) if average else v
            if key < best[k][0]:
                best[k] = c = (key, k, m)
                heapq.heappush(heap, c)
        rows[m] = {}
    return Dendrogram(n, tuple(merges))


def cut(dendrogram, spec):
    """Flatten a dendrogram into a Partition per an HslSpec.

    Undoing s merges leaves the partition after the first n-1-s merges,
    so s = 0 gives one cluster and s = n-1 gives all singletons. Relative
    values map to s = round(value * (n - 1)) with halves rounding up.
    """
    n = dendrogram.leaves
    if n < 1:
        raise ValueError("cannot cut an empty dendrogram")
    total = n - 1
    if len(dendrogram.merges) != total:
        raise ValueError("dendrogram is not a complete merge history")
    if spec.mode == "absolute":
        undo = int(spec.value)
        if undo > total:
            raise ValueError(f"cannot undo {undo} merges, only {total} were made")
    else:
        undo = math.floor(spec.value * total + 0.5)
    # Step s creates cluster n + s, so each kept merge's ids index `leaf`,
    # which maps every cluster to one of its leaves.
    leaf = list(range(n))
    pairs = []
    for merge in dendrogram.merges[: total - undo]:
        pairs.append((leaf[merge.left], leaf[merge.right]))
        leaf.append(leaf[merge.left])
    return Partition(_unite(n, pairs)).canonicalize()
