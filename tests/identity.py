"""Output-identity manifest: one `key<TAB>sha256` line per record.

A key names the algorithm, its variant or target, its seed and its graph,
or is a command line. The digest is of the record's repr: an algorithm
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
import re
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
CI = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"

# Karate commands beyond CI's console-script lines, which run every other
# algorithm on it: each Louvain variant, another cut, and every bench.
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
                yield f"louvain {variant} {seed} {name}", records.louvain(g, variant, seed)


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
    return f"random:{n},{p},{seed}", random_graph(n, p, seed)


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
        yield f"fastgreedy - - {name}", records.fastgreedy(g)


def _girvan_newman(graphs):
    for name, g in graphs:
        yield f"edge_betweenness - - {name}", sorted((key, s.hex()) for key, s in edge_betweenness(g).items())
        for target in sorted({t for t in (1, 2, 5, g.node_count) if t <= g.node_count}):
            for run in (girvan_newman, girvan_newman_static):
                yield f"{run.__name__} {target} - {name}", records.girvan_newman(g, target, run)


def _agglomerative(graphs, kinds=tuple(product(("single", "complete", "average"), (False, True)))):
    for name, g in graphs:
        for linkage, self_neighboring in kinds:
            yield (f"agglomerative {linkage}{'+self' * self_neighboring} - {name}",
                   records.agglomerative(g, linkage, self_neighboring))


def _ladder():
    """tools/ladder.py's sub-second cells that no other section pins; its
    N=8000 and N=1600 cells and Girvan-Newman at N=200 and 400 are too slow."""
    for n in (500, 2000):
        yield f"random_graph - - random:{n},{8 / n},1", records.graph(n, 8 / n, 1)
    yield from _louvain([_random(500, 0.016, 1)], ("total",), [0])
    yield from _louvain([_random(2000, 0.004, 1)], ("noMerge", "total", "Exp"), [0])
    yield from _agglomerative([_random(400, 0.02, 1)], (("average", False), ("single", True)))
    name, g = _random(100, 0.08, 1)
    yield f"girvan_newman 10 - {name}", records.girvan_newman(g, 10)


def _commands():
    """CI's console-script step (the files its printf lines write, then its
    commands), then the KARATE commands."""
    ci = [line.strip() for line in CI.read_text().splitlines()]
    inputs = [re.fullmatch(r"printf '(.*)' > (\S+)", line).groups() for line in ci if line.startswith("printf ")]
    lines = [line for line in ci if line.startswith("commdetect ")]
    lines += [f"commdetect {line} --dataset karate --out k{k}.json" for k, line in enumerate(KARATE)]
    return _command_records([(name, text.replace("\\n", "\n")) for text, name in inputs], lines)


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
        *((f"random:500,0.016,{s}+fractional", fractional_weights(random_graph(500, 0.016, s), s)) for s in range(3)),
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
