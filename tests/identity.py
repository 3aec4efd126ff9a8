"""Output-identity manifest: one `key<TAB>sha256` line per record.

A key names the algorithm, its variant or target, its seed and its graph
(tests/records.py's `key`), or is a command line. The command lines are
this module's COMMANDS, on the edge lists in INPUTS, and its KARATE
commands: it is the one list of CLI runs whose outputs are pinned, and
each runs in-process. The digest is of the record's repr: an algorithm
call's record as tests/records.py makes it, or a command's stdout and
files, where a bench report loses its host line, runtimes and table. It
takes no arguments and imports `commdetect` from PYTHONPATH:

    PYTHONPATH=src python tests/identity.py > tests/identity.txt
    PYTHONPATH=<parent checkout>/src python tests/identity.py | diff tests/identity.txt -

The first regenerates the manifest that tests/test_identity.py checks; the
second lists every record that a change moves against its parent.
"""

import contextlib
import functools
import io
import json
import os
import random
import shlex
import tempfile
from itertools import chain, product
from pathlib import Path

import records
from commdetect import Graph, edge_betweenness, girvan_newman, girvan_newman_static, karate_club, random_graph
from commdetect.cli import main
from commdetect.louvain import LouvainVariant, aggregate
from helpers import FRACTIONAL_WEIGHTS, complete_graph, fractional_weights, mirrored, one_heavy_edge, random_suite

MANIFEST = Path(__file__).with_name("identity.txt")

# The edge lists that COMMANDS read: integer weights, the same with one
# weight of 2**52 (2m past 2**53), fractional weights, and a 4x4 grid.
INPUTS = {
    "intw.txt": "0 1 1\n0 2 3\n1 2 2\n2 3 1\n3 4 3\n3 5 2\n4 5 1\n5 6 1\n6 7 2\n6 8 3\n7 8 1\n",
    "intbig.txt": ("0 1 1\n0 2 3\n1 2 2\n2 3 1\n3 4 4503599627370496\n3 5 2\n4 5 1\n5 6 1\n6 7 2\n"
                   "6 8 3\n7 8 1\n"),
    "fracw.txt": ("0 1 0.1\n0 2 0.3\n1 2 0.7\n2 3 0.1\n3 4 0.3\n3 5 0.7\n4 5 0.1\n5 6 0.3\n6 7 0.7\n"
                  "6 8 0.1\n7 8 0.3\n"),
    "grid4.txt": ("0 1\n0 4\n1 2\n1 5\n2 3\n2 6\n3 7\n4 5\n4 8\n5 6\n5 9\n6 7\n6 10\n7 11\n8 9\n8 12\n"
                  "9 10\n9 13\n10 11\n10 14\n11 15\n12 13\n13 14\n14 15\n"),
}

# The pinned command lines, each a manifest key; a line may chain
# commands with ` && `, and its record holds each one's stdout and files.
COMMANDS = [
    "commdetect bench --dataset karate --runs 2 --out bench.json && commdetect plot-data bench.json --out points.csv",
    "commdetect run --algorithm louvain --variant total --dataset karate --out total.json",
    "commdetect run --algorithm louvain --variant total --dataset edgelist:intw.txt --out totalint.json",
    "commdetect run --algorithm louvain --variant total --dataset edgelist:intbig.txt --out totalbig.json",
    "commdetect run --algorithm louvain --variant totalNoMerge --dataset edgelist:intbig.txt --out totalnmbig.json",
    "commdetect run --algorithm louvain --variant total --dataset edgelist:fracw.txt --out totalfrac.json",
    "commdetect run --algorithm louvain --variant totalNoMerge --dataset edgelist:fracw.txt --out totalnmfrac.json",
    "commdetect run --algorithm louvain --variant Exp --dataset edgelist:fracw.txt --out expfrac.json",
    "commdetect run --algorithm louvain --variant normal --dataset edgelist:fracw.txt --seed 1 --out normalfrac.json",
    "commdetect run --algorithm louvain --variant Exp --dataset random:2000,0.004,0 --out exp2k.json",
    "commdetect run --algorithm louvain --variant normal --dataset random:2000,0.004,1 --seed 1 --out normal2k.json",
    "commdetect run --algorithm louvain --variant noMerge --dataset karate --seed 3 --out nomerge.json",
    "commdetect run --algorithm louvain --variant totalNoMerge --dataset random:60,0.1,1 --seed 1 "
        "--out totalnm60.json",
    "commdetect bench --dataset random:300,0.0267,1 --variant total,totalNoMerge --runs 2 --out bench300.json",
    "commdetect run --algorithm agglomerative --linkage average --hsl-mode relative --hsl-value 0.3 "
        "--dataset karate --out agg.json",
    "commdetect run --algorithm agglomerative --linkage single --self-neighboring --hsl-mode absolute --hsl-value 5 "
        "--dataset karate --out aggabs.json",
    "commdetect run --algorithm agglomerative --linkage complete --hsl-mode absolute --hsl-value 9 "
        "--dataset random:200,0.04,1 --out aggc200.json",
    "commdetect run --algorithm agglomerative --linkage average --self-neighboring --hsl-mode relative "
        "--hsl-value 0.3 --dataset random:400,0.02,1 --out agg400.json",
    "commdetect run --algorithm agglomerative --linkage single --self-neighboring --hsl-mode absolute --hsl-value 4 "
        "--dataset random:300,0.5,1 --out aggdense.json",
    "commdetect run --algorithm girvan-newman --target-communities 8 --dataset karate --out gn.json",
    "commdetect run --algorithm girvan-newman-static --target-communities 8 --dataset karate --out gns.json",
    "commdetect run --algorithm girvan-newman --target-communities 10 --dataset random:100,0.08,1 --out gn100.json",
    "commdetect run --algorithm girvan-newman-static --target-communities 10 --dataset random:100,0.08,1 "
        "--out gns100.json",
    "commdetect run --algorithm girvan-newman --target-communities 8 --dataset random:60,0.05,1 --out gn60.json",
    "commdetect run --algorithm girvan-newman-static --target-communities 8 --dataset random:60,0.05,1 "
        "--out gns60.json",
    "commdetect run --algorithm girvan-newman --target-communities 4 --dataset edgelist:grid4.txt --out gngrid.json",
    "commdetect run --algorithm girvan-newman-static --target-communities 4 --dataset edgelist:grid4.txt "
        "--out gnsgrid.json",
    "commdetect run --algorithm fastgreedy --dataset karate --out fg.json "
        "&& commdetect plot-data fg.trace.json --out curve.csv",
    "commdetect run --algorithm fastgreedy --dataset random:2000,0.004,0 --out fg2k.json "
        "&& commdetect plot-data fg2k.trace.json --out curve2k.csv",
    "commdetect run --algorithm fastgreedy --dataset random:1000,0.00390625,5 --out fgedge.json",
    "commdetect run --algorithm fastgreedy --dataset random:60,0.02,1 --out fgdis.json "
        "&& commdetect plot-data fgdis.trace.json --out curvedis.csv",
    "commdetect run --algorithm fastgreedy --dataset edgelist:intw.txt --out fgint.json "
        "&& commdetect plot-data fgint.trace.json --out curveint.csv",
    "commdetect run --algorithm fastgreedy --dataset edgelist:fracw.txt --out fgfrac.json "
        "&& commdetect plot-data fgfrac.trace.json --out curvefrac.csv",
]

# More commands on karate, beyond the runs of each algorithm in COMMANDS:
# each Louvain variant, another cut, and every bench. _commands appends
# `--dataset karate --out k<index>.json` to each.
KARATE = [
    *(f"run --algorithm louvain --variant {v.value} --seed 1" for v in LouvainVariant),
    "run --algorithm agglomerative --linkage single --self-neighboring --hsl-mode absolute --hsl-value 2",
    "bench --algorithm louvain --runs 3 --seed 2",
    "bench --algorithm fastgreedy --runs 1 --seed 2",
    "bench --algorithm agglomerative --linkage average --hsl-mode relative --hsl-value 0.3 --runs 1 --seed 2",
    *(f"bench --algorithm {a} --target-communities 8 --runs 1 --seed 2"
      for a in ("girvan-newman", "girvan-newman-static")),
]


def tied_suite(count, seed):
    """Seeded graphs with integer weights 1-3, which make many tied gains,
    whose edges stay inside up to three residue classes of the node ids,
    so most have several components, some of them isolated nodes."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(4, 16)
        parts = rng.randint(1, 3)
        edges = [(u, v, rng.randint(1, 3)) for u in range(n) for v in range(u + 1, n)
                 if (v - u) % parts == 0 and rng.random() < 0.5]
        yield f"tied:{seed}#{k}", Graph(n + rng.randint(0, 2), edges or [(0, parts)])


def looped_suite(count, seed):
    """Seeded small graphs with self-loops and trailing isolated nodes."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(1, 14)
        p = rng.choice((0.15, 0.3, 0.5))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        edges += [(u, u) for u in range(n) if rng.random() < 0.2]
        yield f"looped:{seed}#{k}", Graph(n + rng.randint(0, 2), edges)


def mirrored_suite(count, seed):
    """Seeded fractional-weighted graphs, each mirrored (helpers.mirrored)."""
    for idx, base in enumerate(random_suite(count, 5, 12, (0.4, 0.6), seed)):
        yield f"mirrored:{seed}#{idx}", mirrored(fractional_weights(base, idx), FRACTIONAL_WEIGHTS[idx % 4])


def _louvain(graphs, variants, seeds):
    for name, g in graphs:
        for variant in variants:
            for seed in seeds:
                yield records.key("louvain", name, variant, seed), records.louvain(g, variant, seed)


def _weighted_twice():
    """40 graphs, with fractional weights and with one of them on every edge
    (exact ties left to rounding residue); every other one contracted."""
    for idx, base in enumerate(random_suite(40, 5, 18, (0.25, 0.5), 12100)):
        w = FRACTIONAL_WEIGHTS[idx % 4]
        uniform = Graph(base.node_count, [(u, v, w) for u, v, _ in base.edges()])
        for kind, g in (("fractional", fractional_weights(base, idx)), ("uniform", uniform)):
            if idx % 2:
                g, kind = aggregate(g, [i // 2 for i in range(g.node_count)])[0], f"{kind}+contracted"
            yield f"suite:12100#{idx}+{kind}", g


def _command_records(inputs, lines):
    """Run each `&&`-chained line in-process, in one temporary directory
    that holds the (name, text) `inputs`."""
    home, out = os.getcwd(), []
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in inputs:
                Path(name).write_text(text)
            for line in lines:
                out.append((line, [_command(shlex.split(part)[1:]) for part in line.split(" && ")]))
        finally:
            os.chdir(home)
    return out


def _command(argv):
    before, stdout = set(os.listdir()), io.StringIO()
    with contextlib.redirect_stdout(stdout):
        if main(argv) != 0:
            raise RuntimeError(f"commdetect {shlex.join(argv)} failed")
    files = []
    for name in sorted(set(os.listdir()) - before):
        data = Path(name).read_bytes()
        if argv[0] == "bench":
            data = json.loads(data)
            del data["environment"]
            data["records"] = [{k: v for k, v in r.items() if not k.endswith("_runtime_ms")}
                               for r in data["records"]]
        files.append((name, data))
    return None if argv[0] == "bench" else stdout.getvalue(), files


def _random(n, p, seed):
    return records.random_name(n, p, seed), random_graph(n, p, seed)


def _random_twice(n, p, seed):
    """random:n,p,seed and its fractional_weights copy."""
    name, g = _random(n, p, seed)
    return [(name, g), (f"{name}+fractional", fractional_weights(g, seed))]


def _heavy_karate():
    """Karate with one edge weighing 2**52 - 77 (2m = 2**53, the largest
    2m of exact sums) or 2**52 (2m past 2**53, where only refolds are
    exact), on edge 0, 40 or 77."""
    for big in (2.0**52 - 77, 2.0**52):
        for heavy in (0, 40, 77):
            yield f"karate+edge{heavy}:{int(big)}", one_heavy_edge(KARATE_CLUB[1], heavy, big)


def _fastgreedy(graphs):
    for name, g in graphs:
        yield records.key("fastgreedy", name), records.fastgreedy(g)


def _girvan_newman(graphs):
    for name, g in graphs:
        yield records.key("edge_betweenness", name), sorted((key, s.hex()) for key, s in edge_betweenness(g).items())
        for target in sorted({t for t in (1, 2, 5, g.node_count) if t <= g.node_count}):
            for run in (girvan_newman, girvan_newman_static):
                yield records.key(run.__name__, name, target), records.girvan_newman(g, target, run)


def _agglomerative(graphs, kinds=tuple(product(("single", "complete", "average"), (False, True)))):
    for name, g in graphs:
        for linkage, self_neighboring in kinds:
            yield (records.key("agglomerative", name, linkage, self_neighboring=self_neighboring),
                   records.agglomerative(g, linkage, self_neighboring))


def _ladder():
    """tools/ladder.py's sub-second cells that no other section pins; its
    N=8000 and N=1600 cells and Girvan-Newman at N=200 and 400 are too slow."""
    for n in (500, 2000):
        yield records.key("random_graph", records.random_name(n, 8 / n, 1)), records.graph(n, 8 / n, 1)
    yield from _louvain([_random(500, 0.016, 1)], ("total",), [0])
    yield from _louvain([_random(2000, 0.004, 1)], ("noMerge", "total", "Exp"), [0])
    yield from _agglomerative([_random(400, 0.02, 1)], (("average", False), ("single", True)))
    name, g = _random(100, 0.08, 1)
    yield records.key("girvan_newman", name, 10), records.girvan_newman(g, 10)


def _commands():
    """COMMANDS on the INPUTS files, then the KARATE commands."""
    karate = [f"commdetect {line} --dataset karate --out k{k}.json" for k, line in enumerate(KARATE)]
    return _command_records(INPUTS.items(), [*COMMANDS, *karate])


# The manifest in order, by section: the goldens in the test modules each
# check one section (`check`), and test_identity.py checks all of them.
TOTAL, KARATE_CLUB = ("total", "totalNoMerge"), ("karate", karate_club())
SECTIONS = {
    "louvain_random_500": lambda: _louvain([_random(500, 0.016, 1)], ("normal", "noMerge", "Exp"), range(3)),
    "louvain_settled": lambda: chain(_louvain(_random_twice(300, 8 / 300, 1), ("normal", "noMerge"), range(3)),
                                     _louvain([_random(2000, 0.004, 1)], ("normal",), range(2))),
    "total_formula": lambda: chain(_louvain([KARATE_CLUB], TOTAL, range(5)),
                                   _louvain([_random(60, 0.1, 1)], TOTAL, range(2))),
    "total_formula_fractional": lambda: _louvain(_weighted_twice(), TOTAL, range(2)),
    "total_formula_mirrored": lambda: _louvain(mirrored_suite(20, 15000), TOTAL, range(2)),
    "total_formula_300": lambda: _louvain(_random_twice(300, 8 / 300, 1), TOTAL, range(3)),
    "total_formula_2m_bound": lambda: _louvain(_heavy_karate(), TOTAL, range(2)),
    "louvain_disconnected": lambda: _louvain([_random(60, 0.02, 1)], [v.value for v in LouvainVariant],
                                             range(2)),
    "fastgreedy_tied": lambda: _fastgreedy([KARATE_CLUB, *(_random(500, 0.016, s) for s in range(3)),
                                            _random(2000, 0.004, 0), _random(8000, 8 / 8000, 1),
                                            *tied_suite(60, 8)]),
    "fastgreedy_fractional": lambda: _fastgreedy([
        *((f"suite:13000#{k}+fractional", fractional_weights(g, k))
          for k, g in enumerate(random_suite(40, 4, 40, (0.1, 0.3), 13000))),
        *(_random_twice(500, 0.016, s)[1] for s in range(3)),
        _random(2000, 0.004, 1),
    ]),
    "girvan_newman_cuts": lambda: _girvan_newman([KARATE_CLUB, _random(100, 0.08, 1), *looped_suite(80, 77)]),
    "agglomerative": lambda: _agglomerative([KARATE_CLUB, _random(100, 0.08, 1), _random(60, 0.02, 1)]),
    "agglomerative_tied": lambda: _agglomerative([_random(200, 8 / 200, 1), *tied_suite(60, 8)]),
    "agglomerative_dense": lambda: _agglomerative([_random(150, 0.5, 1), _random(300, 0.5, 1),
                                                   _random(64, 0.9, 2), ("complete:40", complete_graph(40))]),
    "commands": _commands,
    "ladder": _ladder,
}


@functools.cache
def digests(section):
    """The (key, sha256) lines of one section, computed once per process."""
    return [(key, records.digest(record)) for key, record in SECTIONS[section]()]


def manifest():
    for section in SECTIONS:
        yield from digests(section)


def check(section, dataset=""):
    """Every record of `section`, or only its commands run on `--dataset
    <dataset>` if that is given, has its digest in tests/identity.txt."""
    recorded = dict(line.split("\t") for line in MANIFEST.read_text().splitlines())
    lines = [(key, digest) for key, digest in digests(section)
             if not dataset or f"--dataset {dataset} " in key]
    assert lines, f"no record of {section!r} matches {dataset!r}"
    for key, digest in lines:
        assert recorded.get(key) == digest, f"record {key!r} differs from tests/identity.txt or is missing there"


if __name__ == "__main__":
    for key, digest in manifest():
        print(f"{key}\t{digest}")
