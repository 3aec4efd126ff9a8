"""Graph container, dataset loaders, and the modularity evaluator.

Everything downstream (the clustering algorithms and the benchmark CLI)
works in terms of this module's value types, Graph and Partition.
"""

import math
import random
from functools import reduce
from numbers import Real
from operator import add
from struct import unpack_from

__all__ = [
    "Graph",
    "Partition",
    "load_edge_list",
    "serialize_edge_list",
    "karate_club",
    "random_graph",
    "connected_components",
    "modularity",
]

# Zachary's karate club: 34 members, 78 friendship ties, the usual
# 0-indexed labeling.
_KARATE_EDGES = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8),
    (0, 10), (0, 11), (0, 12), (0, 13), (0, 17), (0, 19), (0, 21), (0, 31),
    (1, 2), (1, 3), (1, 7), (1, 13), (1, 17), (1, 19), (1, 21), (1, 30),
    (2, 3), (2, 7), (2, 8), (2, 9), (2, 13), (2, 27), (2, 28), (2, 32),
    (3, 7), (3, 12), (3, 13), (4, 6), (4, 10), (5, 6), (5, 10), (5, 16),
    (6, 16), (8, 30), (8, 32), (8, 33), (9, 33), (13, 33), (14, 32),
    (14, 33), (15, 32), (15, 33), (18, 32), (18, 33), (19, 33), (20, 32),
    (20, 33), (22, 32), (22, 33), (23, 25), (23, 27), (23, 29), (23, 32),
    (23, 33), (24, 25), (24, 27), (24, 31), (25, 31), (26, 29), (26, 33),
    (27, 33), (28, 31), (28, 33), (29, 32), (29, 33), (30, 32), (30, 33),
    (31, 32), (31, 33), (32, 33),
)


# A Graph holds about 72 bytes per node, so "0 10000000" would build 0.7 GB.
_MAX_EDGE_LIST_ID = 10**7


# The one summation rule for every float sum that defines an output: a left
# fold from int 0, as sum() was before CPython 3.12 made it compensate.
def _fold(xs):
    return reduce(add, xs, 0)


class Graph:
    """Undirected weighted graph over contiguous node ids 0..node_count-1.

    Parallel edges are rejected. Self-loops are allowed (they appear when
    community graphs are contracted) and count twice toward the weighted
    degree, which keeps the degree sum equal to twice the total weight.
    Instances are immutable once constructed.
    """

    __slots__ = ("_n", "_adj", "_edges", "_m", "_k")

    def __init__(self, node_count, edges=()):
        if type(node_count) is not int or node_count < 0:
            raise ValueError(f"node_count must be a non-negative integer, got {node_count!r}")
        normalized = []
        for edge in edges:
            match edge:
                case (u, v):
                    w = 1.0
                case (u, v, w):
                    pass
                case _:
                    raise ValueError(f"edge {edge!r} is not a (u, v) or (u, v, w) sequence")
            if not (type(u) is int and type(v) is int):
                raise ValueError(f"node ids must be integers, got ({u!r}, {v!r})")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"edge ({u}, {v}) outside node range 0..{node_count - 1}")
            if type(w) is not float and (type(w) is bool or not isinstance(w, Real)):
                raise ValueError(f"edge ({u}, {v}) has non-numeric weight {w!r}")
            try:
                w = float(w)
            except OverflowError:
                # A weight past the largest double rounds to infinity, which _build names.
                w = math.inf
            if not w > 0:
                kind = "weight nan, which is not a number" if math.isnan(w) else f"non-positive weight {w}"
                raise ValueError(f"edge ({u}, {v}) has {kind}")
            if u > v:
                u, v = v, u
            normalized.append((u, v, w))
        normalized.sort()
        self._build(node_count, normalized)
        # Each distinct pair makes two adjacency entries, counting a self-loop's one
        # entry twice; a repeated pair makes none.
        adj = self._adj
        if sum(map(len, adj)) + sum(map(dict.__contains__, adj, range(node_count))) != 2 * len(normalized):
            for (u, v, _), (x, y, _) in zip(normalized, normalized[1:]):
                if u == x and v == y:
                    raise ValueError(f"duplicate edge ({u}, {v})")

    @classmethod
    def _from_sorted(cls, node_count, edges):
        """Graph of `edges` already in __init__'s normal form: (u, v, w) with
        u <= v < node_count and w a positive float, ascending, with distinct
        (u, v) pairs. Only the 2m overflow is checked again."""
        g = object.__new__(cls)
        g._build(node_count, edges)
        return g

    def _build(self, node_count, edges):
        """Fill the slots from edges in __init__'s normal form. Each
        adjacency takes its keys in ascending order, and m folds the weights
        in edges() order; both orders are part of the float-sum contract."""
        adj = [{} for _ in range(node_count)]
        m = 0.0
        for u, v, w in edges:
            adj[u][v] = w
            adj[v][u] = w
            m += w
        # NaN and -inf fail __init__'s per-edge check, so any other
        # non-finite weight, or an m whose degree sum 2m overflows, shows up here.
        if 2.0 * m == math.inf:
            for u, v, w in edges:
                if w == math.inf:
                    raise ValueError(f"edge ({u}, {v}) has infinite weight")
            raise ValueError("twice the total edge weight overflows to infinity")
        self._n = node_count
        self._adj = adj
        self._edges = tuple(edges)
        self._m = m
        self._k = None

    @property
    def node_count(self):
        return self._n

    @property
    def edge_count(self):
        return len(self._edges)

    @property
    def total_weight(self):
        """Sum of all edge weights. Self-loops count once here."""
        return self._m

    def edges(self):
        """Iterate edges as (u, v, w) tuples with u <= v, ascending."""
        return iter(self._edges)

    def neighbors(self, i):
        """Neighbor-to-weight mapping for node i. Treat as read-only."""
        self._check_node(i)
        return self._adj[i]

    def has_edge(self, u, v):
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def degree(self, i):
        """Number of distinct neighbors of i, self-loops excluded."""
        self._check_node(i)
        adj = self._adj[i]
        return len(adj) - (1 if i in adj else 0)

    def weighted_degree(self, i):
        """Total incident weight at node i; a self-loop contributes twice."""
        self._check_node(i)
        return self._degrees()[i]

    def _degrees(self):
        """Every node's weighted degree, folded on first read and shared by
        all readers after it. Graphs whose degrees nobody reads never pay."""
        if self._k is None:
            self._k = tuple(_fold(a.values()) + a.get(i, 0.0) for i, a in enumerate(self._adj))
        return self._k

    def has_self_loops(self):
        return any(u == v for u, v, _ in self._edges)

    def _check_node(self, i):
        if type(i) is not int or not 0 <= i < self._n:
            raise ValueError(f"node {i!r} out of range 0..{self._n - 1}")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self):
        return hash((self._n, self._edges))

    def __repr__(self):
        return f"Graph(nodes={self._n}, edges={len(self._edges)}, weight={self._m})"


class Partition:
    """Total assignment of nodes to integer community labels."""

    __slots__ = ("_labels",)

    def __init__(self, labels):
        labels = tuple(labels)
        # Exact non-negative ints pass at C speed; anything else is checked one by one.
        if not set(map(type, labels)) <= {int} or min(labels, default=0) < 0:
            for lab in labels:
                if type(lab) is bool or not isinstance(lab, int) or lab < 0:
                    raise ValueError(f"community labels must be non-negative integers, got {lab!r}")
        self._labels = labels

    @property
    def labels(self):
        return self._labels

    def __len__(self):
        return len(self._labels)

    @property
    def num_communities(self):
        return len(set(self._labels))

    def canonicalize(self):
        """Relabel communities 0..k-1 in order of first appearance."""
        first = {lab: x for x, lab in enumerate(dict.fromkeys(self._labels))}
        return Partition(map(first.__getitem__, self._labels))

    def to_dict(self, modularity=None):
        return {
            "labels": list(self._labels),
            "num_communities": self.num_communities,
            "modularity": modularity,
        }

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self._labels == other._labels

    def __hash__(self):
        return hash(self._labels)

    def __repr__(self):
        return f"Partition({list(self._labels)!r})"


def load_edge_list(source):
    """Parse a whitespace-separated edge list into a Graph.

    `source` is a string or an iterable of lines. Blank lines and lines
    starting with '#' are ignored. Each remaining line is either "u v" or
    "u v w"; the weight defaults to 1. Node count is the highest id plus
    one. Ids and weights are plain ASCII numbers: a line with an
    underscore or a non-ASCII character is malformed, although int() and
    float() would read '1_0' as 10 and '\u0661' as 1. Malformed lines, ids
    outside 0.._MAX_EDGE_LIST_ID-1, non-positive or non-finite weights, and
    duplicate edges raise ValueError naming the offending line before
    anything is built, so the sorted edges skip Graph()'s checks.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    edges = []
    seen = set()
    max_id = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "_" in line or not line.isascii():
            raise ValueError(f"line {lineno}: ids and weights must be ASCII numbers without '_' in {line!r}")
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v' or 'u v w', got {line!r}")
        try:
            u = int(parts[0])
            v = int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: node ids must be integers in {line!r}") from None
        if not (0 <= u < _MAX_EDGE_LIST_ID and 0 <= v < _MAX_EDGE_LIST_ID):
            raise ValueError(f"line {lineno}: node ids must lie in 0..{_MAX_EDGE_LIST_ID - 1} in {line!r}")
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise ValueError(f"line {lineno}: bad edge weight in {line!r}") from None
            if not 0 < w < math.inf:
                raise ValueError(f"line {lineno}: edge weight must be positive and finite, got {w}")
        else:
            w = 1.0
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise ValueError(f"line {lineno}: duplicate edge {(u, v)}")
        seen.add((u, v))
        edges.append((u, v, w))
        if v > max_id:
            max_id = v
    edges.sort()
    return Graph._from_sorted(max_id + 1, edges)


def serialize_edge_list(g):
    """Render a Graph back to edge-list text; inverse of load_edge_list.

    Nodes are only represented through their edges, so a graph whose
    highest-numbered node is isolated does not survive the round trip.
    """
    lines = [f"{u} {v} {w!r}" for u, v, w in g.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def karate_club():
    """Zachary's karate club graph: 34 nodes, 78 unit-weight edges."""
    return Graph(34, _KARATE_EDGES)


# Below n = 200 or above p = 0.04, one random() call per pair is faster
# than the bulk draw: each row of bytes costs a fixed setup, and each
# candidate pair, a fraction of about p + 1/256, a Python step.
_BULK_MIN_N = 200
_BULK_MAX_P = 0.04


def random_graph(n, p, seed):
    """Erdos-Renyi G(n, p) graph drawn with the given seed, an int.

    Each pair i < j, in ascending order, draws once from
    random.Random(seed) and is an edge of weight 1.0 when random() < p.
    Large sparse graphs find the same edges from rng.getrandbits, relying
    on two facts of CPython's Modules/_randommodule.c:

    - random() is (w1 >> 5) * 2**-27 + (w2 >> 6) * 2**-53 for two
      consecutive 32-bit Mersenne Twister outputs w1 and w2, so it is
      below p exactly when (w1 >> 5) << 26 | w2 >> 6 < ceil(p * 2**53).
    - getrandbits(64 * d) fills its 32-bit words from the least
      significant up with consecutive outputs of the same generator, so
      the little-endian bytes 8t..8t+7 of the result hold pair t's w1 and
      then its w2.
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    if type(p) is bool or not isinstance(p, Real) or not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be a number in [0, 1], got {p!r}")
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    rng = random.Random(seed)
    if n >= _BULK_MIN_N and p <= _BULK_MAX_P:
        edges = _bulk_pairs(rng, n, p)
    else:
        draw = rng.random
        edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n) if draw() < p]
    return Graph._from_sorted(n, edges)


def _bulk_pairs(rng, n, p):
    """The (i, j, 1.0) edges that random_graph's per-pair draw keeps,
    ascending, each row of pairs drawn as one getrandbits call."""
    cutoff = math.ceil(p * 2**53)
    # A pair is an edge when X = (w1 >> 5) << 26 | w2 >> 6 is below cutoff.
    # X >> 45 is w1's top byte t, so t < top is an edge and t > top is
    # not; only t == top needs the whole of X.
    top = cutoff >> 45
    candidate = bytes(t <= top for t in range(256))
    getrandbits = rng.getrandbits
    edges = []
    for i in range(n - 1):
        d = n - 1 - i
        raw = getrandbits(64 * d).to_bytes(8 * d, "little")
        marks = raw[3::8].translate(candidate)
        k = marks.find(1)
        while k >= 0:
            if raw[8 * k + 3] < top:
                edges.append((i, i + 1 + k, 1.0))
            else:
                w1, w2 = unpack_from("<II", raw, 8 * k)
                if (w1 >> 5) << 26 | w2 >> 6 < cutoff:
                    edges.append((i, i + 1 + k, 1.0))
            k = marks.find(1, k + 1)
    return edges


def _component_nodes(adj, start):
    """Node set of start's component, added in BFS order, which fixes its iteration order."""
    seen = {start}
    queue = [start]
    for u in queue:
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def _component_sets(adj):
    """Yield the node set of each connected component of a list of
    neighbour mappings, in order of smallest node."""
    seen = [False] * len(adj)
    for start in range(len(adj)):
        if not seen[start]:
            nodes = _component_nodes(adj, start)
            for u in nodes:
                seen[u] = True
            yield nodes


def _components(adj):
    """Label the nodes of a list of neighbour mappings by connected
    component, numbered in first-seen order; returns a Partition."""
    labels = [0] * len(adj)
    for comp, nodes in enumerate(_component_sets(adj)):
        for u in nodes:
            labels[u] = comp
    return Partition(labels)


def connected_components(g):
    """Label nodes by connected component, numbered in first-seen order."""
    return _components(g._adj)


def _unite(n, pairs):
    """Label each of n nodes with the smallest node of its group, the
    groups being the connected components of the (a, b) `pairs`."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            # Path halving: point x at its grandparent, then step there.
            root[x] = x = root[root[x]]
        return x

    for a, b in pairs:
        a, b = find(a), find(b)
        # The smaller root wins, so every root is its group's smallest node.
        root[max(a, b)] = min(a, b)
    return [find(x) for x in range(n)]


def _community_sums(g, labels):
    """(sigma_in, sigma_tot) lists of a labelling of g's nodes into range(n).

    sigma_in[c] is the adjacency mass inside community c: twice its
    intra-community edge weight, self-loops counting twice. sigma_tot[c]
    is the sum of its members' weighted degrees. sigma_tot folds 0.0 + k
    over ascending nodes and sigma_in + 2.0*w over intra edges in edges()
    order; Louvain's total-formula evaluator replays both folds float for
    float, so their order is part of the contract. Unused labels read 0.0.
    """
    sigma_in = [0.0] * g._n
    sigma_tot = [0.0] * g._n
    for i, k in enumerate(g._degrees()):
        sigma_tot[labels[i]] += k
    for u, v, w in g._edges:
        if labels[u] == labels[v]:
            sigma_in[labels[u]] += 2.0 * w
    return sigma_in, sigma_tot


def modularity(g, partition):
    """Modularity Q of a node partition.

    Computed per community as sigma_in/2m - (sigma_tot/2m)^2 over the sums
    of _community_sums, added up in order of first appearance. Raises
    ValueError for an edgeless graph, a label sequence of wrong length, or
    a label that Partition rejects.
    """
    labels = partition.labels if isinstance(partition, Partition) else partition
    if len(labels) != g.node_count:
        raise ValueError("partition length does not match node count")
    m = g.total_weight
    if m == 0:
        raise ValueError("modularity is undefined for a graph with no edges")
    two_m = 2.0 * m
    # Canonical labels put the terms in first-appearance order; an unused
    # label's term is 0.0, and adding it is exact.
    sigma_in, sigma_tot = _community_sums(g, Partition(labels).canonicalize().labels)
    return _fold(s_in / two_m - (s_tot / two_m) ** 2 for s_in, s_tot in zip(sigma_in, sigma_tot))

