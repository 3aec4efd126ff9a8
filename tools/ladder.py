#!/usr/bin/env python3
"""Dataset ladder: time building random:N,8/N,1 and Louvain, fastgreedy,
agglomerative clustering and Girvan-Newman on it, and agglomerative
clustering on the dense random:300,0.5,1, two source trees pair by pair,
and write one BENCH_<n>.json.

    PYTHONPATH=src python tools/ladder.py --only "random:2000," --out BENCH_<n>.json
    PYTHONPATH=src python tools/ladder.py --against <parent>/ --only fastgreedy --out BENCH_<n>.json

Run from the repository root. Each cell is one call on one graph:
random_graph(N, 8/N, 1) itself, Louvain normal, noMerge, total and Exp
with seed 0, and fastgreedy, for N = 500, 2000 and 8000; average
linkage, and single linkage with self-neighbouring, for N = 100, 200,
400 and 1600 and on random:300,0.5,1; girvan_newman to 10 communities
for N = 100, 200 and 400. `--only TEXT` keeps the cells whose key
contains TEXT.

Each cell runs ten pairs of fresh subprocesses, one importing DIR/src
(the parent) and one this checkout's src (the change), in alternating
order, so both sides share the host's drift. Without `--against`, DIR is
this checkout: an A/A run, whose ratios are the cells' noise floor. A
cell records each side's min and median wall time, the change/parent
ratio of every pair, how many pairs the change won, and both digests. A
full run takes about 20 minutes, most of it `total` at N=8000 and
Girvan-Newman at N=400, each run 20 times; time a subset with `--only`.

A digest is the sha256 of the cell's output record, made by
tests/records.py as tests/identity.py makes it. The script exits 1 if
the two sides' digests differ in any cell, or if the change's differs
from the record of tests/identity.txt with the same key.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
import records  # noqa: E402
from commdetect import random_graph  # noqa: E402

MANIFEST = ROOT / "tests" / "identity.txt"
LOUVAIN_VARIANTS = ("normal", "noMerge", "total", "Exp")
PAIRS = 10


def _build(g):
    n = g.node_count
    return records.graph(n, 8 / n, 1), {}


def _louvain(variant):
    def run(g):
        record = records.louvain(g, variant, 0)
        return record, {"q": float.fromhex(record[1]), "passes": record[2]}
    return f"louvain {variant} 0", run


def _fastgreedy(g):
    record = records.fastgreedy(g)
    return record, {"q": float.fromhex(record[2]), "joins": len(record[0])}


def _agglomerative(linkage, self_neighboring):
    def run(g):
        record = records.agglomerative(g, linkage, self_neighboring)
        return record, {"merges": len(record)}
    return f"agglomerative {linkage}{'+self' * self_neighboring} -", run


def _girvan_newman(g):
    record = records.girvan_newman(g, 10)
    return record, {"removals": len(record[1])}


def _sparse(*sizes):
    return [(n, 8 / n) for n in sizes]


# (graphs, cells): every (key, run) cell runs on random:N,p,1 for each
# (N, p) of its graphs; the build cell, in a sparse row, draws that graph
# again.
AGGLOMERATIVE = (_agglomerative("average", False), _agglomerative("single", True))
LADDER = [
    (_sparse(500, 2000, 8000), (("random_graph - -", _build), *map(_louvain, LOUVAIN_VARIANTS),
                                ("fastgreedy - -", _fastgreedy))),
    (_sparse(100, 200, 400, 1600), AGGLOMERATIVE),
    ([(300, 0.5)], AGGLOMERATIVE),
    (_sparse(100, 200, 400), (("girvan_newman 10 -", _girvan_newman),)),
]
CELLS = [(f"{key} random:{n},{p},1", n, p, run) for graphs, runs in LADDER for n, p in graphs for key, run in runs]


def child(index):
    """Build cell `index`'s graph, time one run of it, and print its
    seconds, digest, edge count and stats as JSON: one side of a pair."""
    _, n, p, run = CELLS[index]
    g = random_graph(n, p, 1)
    start = time.perf_counter()
    record, stats = run(g)
    seconds = time.perf_counter() - start
    print(json.dumps({"s": seconds, "digest": records.digest(record), "edges": g.edge_count, "stats": stats}))


def _side(src, index):
    """One run of cell `index` in a fresh interpreter that imports
    commdetect from `src`."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import ladder; ladder.child({index})"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{CELLS[index][0]} under {src} failed:\n{out.stderr}")
    return json.loads(out.stdout)


def _summary(runs):
    digests = {r["digest"] for r in runs}
    if len(digests) != 1:
        raise RuntimeError("repeated runs gave different outputs")
    times = [r["s"] for r in runs]
    return {"min_s": min(times), "median_s": statistics.median(times), "digest": digests.pop()}


def _pair_cell(index, against):
    """Time cell `index` over PAIRS pairs of runs, one of each side per
    pair, the side that goes first alternating from pair to pair."""
    srcs = {"parent": Path(against) / "src", "change": ROOT / "src"}
    runs = {"parent": [], "change": []}
    for k in range(PAIRS):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            runs[side].append(_side(srcs[side], index))
    ratios = [c["s"] / p["s"] for p, c in zip(runs["parent"], runs["change"])]
    return {
        "edges": runs["change"][0]["edges"],
        "pairs": PAIRS,
        "parent": _summary(runs["parent"]),
        "change": _summary(runs["change"]),
        "ratios": ratios,
        "median_ratio": statistics.median(ratios),
        "change_wins": sum(r < 1.0 for r in ratios),
        **runs["change"][0]["stats"],
    }


def ladder(only, against):
    """Time every cell whose key contains `only` pair by pair against the
    checkout `against`; returns the report and the (key, what it differs
    from) of every mismatched digest."""
    recorded = dict(line.split("\t") for line in MANIFEST.read_text().splitlines())
    cells, mismatched = [], []
    for index, (key, n, *_) in enumerate(CELLS):
        if only not in key:
            continue
        cell = _pair_cell(index, against)
        digest = cell["change"]["digest"]
        if cell["parent"]["digest"] != digest:
            mismatched.append((key, "the parent's output"))
        print(f"{key}: parent median {cell['parent']['median_s']:.4f} s, change median "
              f"{cell['change']['median_s']:.4f} s, median ratio {cell['median_ratio']:.3f}, "
              f"change faster in {cell['change_wins']} of {PAIRS}", file=sys.stderr)
        manifest = recorded.get(key)
        if manifest is not None and manifest != digest:
            mismatched.append((key, "tests/identity.txt"))
        cells.append({"cell": key, "nodes": n, **cell, "in_manifest": manifest is not None})
    report = {"interpreter": f"{platform.python_implementation()} {platform.python_version()}",
              "platform": platform.platform(), "pairs": PAIRS, "cells": cells}
    return report, mismatched


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the BENCH JSON file to write")
    parser.add_argument("--only", default="", metavar="TEXT", help="time only the cells whose key contains TEXT")
    parser.add_argument("--against", metavar="DIR", default=str(ROOT),
                        help="time DIR/src (the parent) against this checkout's src, pair by pair "
                             "(default: this checkout, an A/A run)")
    args = parser.parse_args(argv)
    if not (Path(args.against) / "src" / "commdetect").is_dir():
        parser.error(f"--against {args.against}: no src/commdetect there")
    if not any(args.only in key for key, *_ in CELLS):
        parser.error(f"--only {args.only!r} matches no cell")
    report, mismatched = ladder(args.only, args.against)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for key, what in mismatched:
        print(f"ladder: {key} differs from {what}", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
