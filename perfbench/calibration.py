"""Machine-speed calibration for a shared, noisy host.

On a shared 2-core machine the speed of pure-Python code drifts by up to
about 1.8x over minutes (other tenants share the cores and caches), which
moves every wall time of a run together.  A fixed loop written here,
independent of commdetect, is timed between benchmarked calls; each
call's wall time is multiplied by REFERENCE_S / (recent loop time), i.e.
expressed as seconds at the speed where the loop takes REFERENCE_S.
A change to commdetect cannot move the loop, so it moves the rescaled
times exactly as it moves the raw ones.

The loop mixes what the algorithms do: breadth-first search over int
adjacency lists with dict bookkeeping, float accumulation and a heap.
"""

import heapq
import random
import statistics
import time
from collections import deque

# Loop time on an idle core of the machine the benchmark was defined on
# (CPython 3.11, x86-64); only fixes the scale of the reported seconds.
REFERENCE_S = 0.024

# Re-time the loop when this much time has passed since the last timing.
_EVERY_S = 0.25


def _graph(n=2000, half_degree=4, seed=20210830):
    rng = random.Random(seed)
    adj = [[] for _ in range(n)]
    for u in range(n):
        for _ in range(half_degree):
            v = rng.randrange(n)
            if v != u:
                adj[u].append(v)
                adj[v].append(u)
    pairs = {(u, v): len(adj[u]) + len(adj[v]) for u in range(n) for v in adj[u] if u < v}
    return adj, pairs


def _loop(adj, pairs, roots):
    total = 0.0
    for root in roots:
        level = {root: 0}
        paths = {root: 1}
        order = [root]
        queue = deque([root])
        while queue:
            u = queue.popleft()
            next_level = level[u] + 1
            for v in adj[u]:
                if v not in level:
                    level[v] = next_level
                    paths[v] = paths[u]
                    order.append(v)
                    queue.append(v)
                elif level[v] == next_level:
                    paths[v] += paths[u]
        credit = dict.fromkeys(order, 1.0)
        for v in reversed(order):
            total += credit[v] / paths[v]
        heap = [(-credit[v] * level[v], v) for v in order[:400]]
        heapq.heapify(heap)
        while heap:
            total += heapq.heappop(heap)[0]
        # Pair lookups through tuple keys, as the linkage computations do.
        members = order[:60]
        total += sum(pairs.get((a, b) if a < b else (b, a), 0) for a in members for b in members)
    return total


class Calibrator:
    def __init__(self):
        self._adj, self._pairs = _graph()
        self._roots = list(range(0, 2000, 250))
        self.samples = []
        self._last = None

    def measure(self):
        start = time.perf_counter()
        _loop(self._adj, self._pairs, self._roots)
        end = time.perf_counter()
        self.samples.append(end - start)
        self._last = end

    def maybe_measure(self):
        """Time the loop twice unless it was timed within the last _EVERY_S."""
        if self._last is None or time.perf_counter() - self._last >= _EVERY_S:
            self.measure()
            self.measure()

    def factor(self, first):
        """Multiplier taking wall seconds to reference seconds.

        Uses the loop times from the two taken up to sample `first` (the
        last one before the call) to the latest.
        """
        return REFERENCE_S / statistics.median(self.samples[max(0, first - 1):])
