#!/usr/bin/env python3
"""Dataset ladder: time building random:N,8/N,1 and Louvain, fastgreedy,
agglomerative clustering and Girvan-Newman on it, and agglomerative
clustering on the dense random:300,0.5,1, and write one BENCH_<n>.json.

    PYTHONPATH=src python tools/ladder.py --out BENCH_<n>.json

Run from the repository root; `commdetect` is imported from PYTHONPATH,
so pointing it at another checkout's `src` times that code. Each cell is
one call on one graph: random_graph(N, 8/N, 1) itself, Louvain normal,
noMerge, total and Exp with seed 0, and fastgreedy, for N = 500, 2000
and 8000; average linkage, and single linkage with self-neighbouring,
for N = 100, 200, 400 and 1600 and on random:300,0.5,1; girvan_newman
to 10 communities for N = 100, 200 and 400. A cell runs five times, once
if its first run takes over 10 s, and records the min and median wall
time, raw and rescaled to reference seconds by perfbench/calibration.py's
loop, timed around each run as perfbench does.

Each cell also records the sha256 digest of its output, in the record
format of tests/identity.py: the edge tuple for the build,
(labels, q.hex(), passes) for Louvain, (merges, labels, q.hex()) for
fastgreedy, the merges with each distance as .hex() for agglomerative
clustering and (labels, cuts with each score as .hex()) for
Girvan-Newman. Where tests/identity.txt holds the same key, the digests
must match, or the script exits 1. Two BENCH files describe the same
outputs when their digests match cell for cell.
"""

import argparse
import hashlib
import json
import platform
import statistics
import sys
import time
from pathlib import Path

from commdetect import agglomerate, fastgreedy, girvan_newman, louvain, random_graph

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import calibration  # noqa: E402

MANIFEST = ROOT / "tests" / "identity.txt"
LOUVAIN_VARIANTS = ("normal", "noMerge", "total", "Exp")
RUNS = 5
# A cell whose first run takes longer than this runs once.
ONE_RUN_S = 10.0


def _build(g):
    n = g.node_count
    edges = tuple(random_graph(n, 8 / n, 1).edges())
    return "random_graph - -", edges, {}


def _louvain(variant):
    def run(g):
        part, q, passes = louvain(g, variant, 0)
        return f"louvain {variant} 0", (part.labels, q.hex(), passes), {"q": q, "passes": passes}
    return run


def _fastgreedy(g):
    dend, best, best_q = fastgreedy(g)
    merges = [(m.left, m.right, m.merged, m.gain.hex(), m.q.hex(), m.step) for m in dend.merges]
    return "fastgreedy - -", (merges, best.labels, best_q.hex()), {"q": best_q, "joins": len(merges)}


def _agglomerative(linkage, self_neighboring):
    def run(g):
        merges = agglomerate(g, linkage, self_neighboring).merges
        record = [(m.left, m.right, m.merged, m.distance.hex(), m.step) for m in merges]
        return f"agglomerative {linkage}{'+self' * self_neighboring} -", record, {"merges": len(merges)}
    return run


def _girvan_newman(g):
    part, cuts = girvan_newman(g, 10)
    return "girvan_newman 10 -", (part.labels, [(u, v, s.hex()) for u, v, s in cuts]), {"removals": len(cuts)}


def _sparse(*sizes):
    return [(n, 8 / n) for n in sizes]


# (graphs, cells): every cell runs on random:N,p,1 for each (N, p) of its
# graphs; the build cell, in a sparse row, draws that graph again.
AGGLOMERATIVE = (_agglomerative("average", False), _agglomerative("single", True))
LADDER = [
    (_sparse(500, 2000, 8000), (_build, *map(_louvain, LOUVAIN_VARIANTS), _fastgreedy)),
    (_sparse(100, 200, 400, 1600), AGGLOMERATIVE),
    ([(300, 0.5)], AGGLOMERATIVE),
    (_sparse(100, 200, 400), (_girvan_newman,)),
]


def _cell(run, g, calibrator):
    """Time `run(g)` up to RUNS times; returns its key, digest, stats
    and the (raw, rescaled) seconds of each run."""
    times, outputs = [], set()
    while len(times) < RUNS:
        calibrator.maybe_measure()
        first = len(calibrator.samples) - 1
        start = time.perf_counter()
        key, record, stats = run(g)
        raw = time.perf_counter() - start
        calibrator.maybe_measure()
        times.append((raw, raw * calibrator.factor(first)))
        outputs.add(hashlib.sha256(repr(record).encode()).hexdigest())
        if raw > ONE_RUN_S:
            break
    if len(outputs) != 1:
        raise RuntimeError(f"{key}: repeated runs gave different outputs")
    return key, outputs.pop(), stats, times


def ladder():
    recorded = dict(line.split("\t") for line in MANIFEST.read_text().splitlines())
    calibrator = calibration.Calibrator()
    cells, mismatched = [], []
    for graphs, runs in LADDER:
        for n, p in graphs:
            dataset = f"random:{n},{p},1"
            g = random_graph(n, p, 1)
            for run in runs:
                key, digest, stats, times = _cell(run, g, calibrator)
                key = f"{key} {dataset}"
                manifest = recorded.get(key)
                if manifest is not None and manifest != digest:
                    mismatched.append(key)
                raw, scaled = zip(*times)
                cells.append({
                    "cell": key,
                    "nodes": n,
                    "edges": g.edge_count,
                    "runs": len(times),
                    "min_s": min(raw),
                    "median_s": statistics.median(raw),
                    "min_ref_s": min(scaled),
                    "median_ref_s": statistics.median(scaled),
                    **stats,
                    "digest": digest,
                    "in_manifest": manifest is not None,
                })
                print(f"{key}: {len(times)} runs, min {min(raw):.4f} s, median {statistics.median(raw):.4f} s",
                      file=sys.stderr)
    report = {
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "calibration": {"reference_s": calibration.REFERENCE_S,
                        "loop_median_s": statistics.median(calibrator.samples)},
        "cells": cells,
    }
    return report, mismatched


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the BENCH JSON file to write")
    args = parser.parse_args(argv)
    report, mismatched = ladder()
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for key in mismatched:
        print(f"ladder: {key} differs from tests/identity.txt", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
