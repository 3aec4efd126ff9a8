#!/usr/bin/env python3
"""Dataset ladder: time building random:N,8/N,1 and Louvain, fastgreedy,
agglomerative clustering and Girvan-Newman on it, and agglomerative
clustering on the dense random:300,0.5,1, and write one BENCH_<n>.json.

    PYTHONPATH=src python tools/ladder.py --out BENCH_<n>.json
    PYTHONPATH=src python tools/ladder.py --against <parent>/ --only fastgreedy --out BENCH_<n>.json

Run from the repository root; `commdetect` is imported from PYTHONPATH,
so pointing it at another checkout's `src` times that code. Each cell is
one call on one graph: random_graph(N, 8/N, 1) itself, Louvain normal,
noMerge, total and Exp with seed 0, and fastgreedy, for N = 500, 2000
and 8000; average linkage, and single linkage with self-neighbouring,
for N = 100, 200, 400 and 1600 and on random:300,0.5,1; girvan_newman
to 10 communities for N = 100, 200 and 400. `--only TEXT` keeps the
cells whose key contains TEXT.

Alone, a cell runs five times, once if its first run takes over 10 s,
and records the min and median wall time, raw and rescaled to reference
seconds by perfbench/calibration.py's loop, timed around each run as
perfbench does. With `--against DIR`, each cell instead runs ten
pairs of fresh subprocesses, one importing DIR/src (the parent) and one
this checkout's src (the change), in alternating order, so both sides
share the host's drift; it records each side's min and median, the
change/parent ratio of every pair, how many pairs the change won, and
both digests.

Each cell also records the sha256 digest of its output, in the record
format of tests/identity.py: the edge tuple for the build,
(labels, q.hex(), passes) for Louvain, (merges, labels, q.hex()) for
fastgreedy, the merges with each distance as .hex() for agglomerative
clustering and (labels, cuts with each score as .hex()) for
Girvan-Newman. Where tests/identity.txt holds the same key, the digests
must match, or the script exits 1; with --against it also exits 1 if
the two sides' digests differ in any cell. Two BENCH files describe the
same outputs when their digests match cell for cell.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
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
# Pairs of runs per cell with --against.
PAIRS = 10
# A cell whose first run takes longer than this runs once.
ONE_RUN_S = 10.0


def _build(g):
    n = g.node_count
    return tuple(random_graph(n, 8 / n, 1).edges()), {}


def _louvain(variant):
    def run(g):
        part, q, passes = louvain(g, variant, 0)
        return (part.labels, q.hex(), passes), {"q": q, "passes": passes}
    return f"louvain {variant} 0", run


def _fastgreedy(g):
    dend, best, best_q = fastgreedy(g)
    merges = [(m.left, m.right, m.merged, m.gain.hex(), m.q.hex(), m.step) for m in dend.merges]
    return (merges, best.labels, best_q.hex()), {"q": best_q, "joins": len(merges)}


def _agglomerative(linkage, self_neighboring):
    def run(g):
        merges = agglomerate(g, linkage, self_neighboring).merges
        record = [(m.left, m.right, m.merged, m.distance.hex(), m.step) for m in merges]
        return record, {"merges": len(merges)}
    return f"agglomerative {linkage}{'+self' * self_neighboring} -", run


def _girvan_newman(g):
    part, cuts = girvan_newman(g, 10)
    return (part.labels, [(u, v, s.hex()) for u, v, s in cuts]), {"removals": len(cuts)}


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


def _digest(record):
    return hashlib.sha256(repr(record).encode()).hexdigest()


def _solo_cell(run, g, calibrator):
    """Time `run(g)` up to RUNS times, with the calibration loop around
    each run."""
    times, outputs = [], set()
    while len(times) < RUNS:
        calibrator.maybe_measure()
        first = len(calibrator.samples) - 1
        start = time.perf_counter()
        record, stats = run(g)
        raw = time.perf_counter() - start
        calibrator.maybe_measure()
        times.append((raw, raw * calibrator.factor(first)))
        outputs.add(_digest(record))
        if raw > ONE_RUN_S:
            break
    if len(outputs) != 1:
        raise RuntimeError("repeated runs gave different outputs")
    raw, scaled = zip(*times)
    return {
        "edges": g.edge_count,
        "runs": len(times),
        "min_s": min(raw),
        "median_s": statistics.median(raw),
        "min_ref_s": min(scaled),
        "median_ref_s": statistics.median(scaled),
        **stats,
        "digest": outputs.pop(),
    }


def child(index):
    """Build cell `index`'s graph, time one run of it, and print its
    seconds, digest, edge count and stats as JSON: one side of a pair."""
    _, n, p, run = CELLS[index]
    g = random_graph(n, p, 1)
    start = time.perf_counter()
    record, stats = run(g)
    seconds = time.perf_counter() - start
    print(json.dumps({"s": seconds, "digest": _digest(record), "edges": g.edge_count, "stats": stats}))


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


def ladder(only="", against=None):
    """Time every cell whose key contains `only`, alone or, given a
    checkout `against`, pair by pair against it; returns the report and
    the (key, what it differs from) of every mismatched digest."""
    recorded = dict(line.split("\t") for line in MANIFEST.read_text().splitlines())
    calibrator = None if against else calibration.Calibrator()
    cells, mismatched, graph = [], [], None
    for index, (key, n, p, run) in enumerate(CELLS):
        if only not in key:
            continue
        if against:
            cell = _pair_cell(index, against)
            digest = cell["change"]["digest"]
            if cell["parent"]["digest"] != digest:
                mismatched.append((key, "the parent's output"))
            print(f"{key}: parent median {cell['parent']['median_s']:.4f} s, change median "
                  f"{cell['change']['median_s']:.4f} s, median ratio {cell['median_ratio']:.3f}, "
                  f"change faster in {cell['change_wins']} of {PAIRS}", file=sys.stderr)
        else:
            if graph is None or graph[0] != (n, p):
                graph = (n, p), random_graph(n, p, 1)
            cell = _solo_cell(run, graph[1], calibrator)
            digest = cell["digest"]
            print(f"{key}: {cell['runs']} runs, min {cell['min_s']:.4f} s, median {cell['median_s']:.4f} s",
                  file=sys.stderr)
        manifest = recorded.get(key)
        if manifest is not None and manifest != digest:
            mismatched.append((key, "tests/identity.txt"))
        cells.append({"cell": key, "nodes": n, **cell, "in_manifest": manifest is not None})
    report = {"interpreter": f"{platform.python_implementation()} {platform.python_version()}",
              "platform": platform.platform()}
    if against:
        report["pairs"] = PAIRS
    else:
        report["calibration"] = {"reference_s": calibration.REFERENCE_S,
                                 "loop_median_s": statistics.median(calibrator.samples)}
    report["cells"] = cells
    return report, mismatched


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the BENCH JSON file to write")
    parser.add_argument("--only", default="", metavar="TEXT", help="time only the cells whose key contains TEXT")
    parser.add_argument("--against", metavar="DIR",
                        help="time DIR/src (the parent) against this checkout's src, pair by pair")
    args = parser.parse_args(argv)
    if args.against and not (Path(args.against) / "src" / "commdetect").is_dir():
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
