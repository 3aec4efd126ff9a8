"""Command-line interface: single runs, benchmark sweeps, and plot data.

Subcommands:
  run        one algorithm on one dataset, results written as JSON
  bench      repeated seeded runs with per-variant statistics
  plot-data  flatten a bench report or a per-step trace into CSV

Datasets are named as "karate", "edgelist:<path>", or "random:<n,p,seed>".
One table, `_ALGORITHMS`, holds each algorithm's accepted and required
parameters, whether it refuses weighted graphs, and how to call it. `run`
and `bench` check every parameter against it before building the dataset,
and call every algorithm through it.
"""

import argparse
import csv
import functools
import io
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass

from .agglomerative import HslSpec, agglomerate, cut
from .fastgreedy import fastgreedy
from .girvan_newman import girvan_newman, girvan_newman_static
from .graph import karate_club, load_edge_list, modularity, random_graph
from .louvain import LouvainVariant, louvain

# random:N,P,SEED draws once per node pair: 3.2e7 draws at N = 8000,
# 5e9 at N = 100000. It expects P times as many edges: `run` on
# random:3000,0.2222,1 (1.0e6 edges) peaked at 199 MB RSS for Louvain
# and 551 MB for fastgreedy.
_MAX_RANDOM_PAIRS = 5 * 10**7
_MAX_RANDOM_EDGES = 10**6


class CliError(Exception):
    pass


def load_dataset(spec):
    """Resolve a dataset spec string to a Graph."""
    if spec == "karate":
        return karate_club()
    if spec.startswith("edgelist:"):
        path = spec[len("edgelist:"):]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return load_edge_list(handle)
        except OSError as exc:
            raise CliError(f"cannot read edge list {path!r}: {exc}") from None
        except ValueError as exc:
            raise CliError(f"bad edge list {path!r}: {exc}") from None
    if spec.startswith("random:"):
        body = spec[len("random:"):]
        # load_edge_list's rule: int() and float() would read '1_0' and '\u0661\u0660' as 10.
        if "_" in body or not body.isascii():
            raise CliError(f"random dataset {spec!r}: n, p and seed must be ASCII numbers without '_'")
        parts = body.split(",")
        if len(parts) != 3:
            raise CliError(f"random dataset needs n,p,seed, got {body!r}")
        try:
            n = int(parts[0])
            p = float(parts[1])
            seed = int(parts[2])
        except ValueError:
            raise CliError(f"random dataset needs n,p,seed, got {body!r}") from None
        pairs = n * (n - 1) // 2
        if n > 0 and pairs > _MAX_RANDOM_PAIRS:
            raise CliError(
                f"random dataset {spec!r} has {pairs} node pairs; the limit is {_MAX_RANDOM_PAIRS}"
            )
        if pairs * p > _MAX_RANDOM_EDGES and p <= 1.0:  # random_graph names a larger p
            raise CliError(f"random dataset {spec!r} expects {pairs * p:.0f} edges; "
                           f"the limit is {_MAX_RANDOM_EDGES}")
        try:
            return random_graph(n, p, seed)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    raise CliError(f"unknown dataset {spec!r}")


def _dump(payload):
    return json.dumps(payload, indent=2) + "\n"


def _write_all(files):
    """Write every (path, text) pair; on failure leave nothing behind."""
    written = []
    try:
        for path, text in files:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            written.append(path)
    except OSError as exc:
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise CliError(f"cannot write output: {exc}") from None


# Each `call` below names its algorithm as a module global, looked up when
# it runs, so a wrapper set on this module sees every run and bench call.
# It returns the partition, the algorithm's own Q (None where it has none)
# and a function that builds `run`'s sibling files as (suffix, payload)
# pairs, which the timed runs of `bench` never call.


def _agglomerative(g, params, _seed):
    dendrogram = agglomerate(g, params["linkage"], bool(params.get("self_neighboring")))
    part = cut(dendrogram, HslSpec(params["hsl_mode"], params["hsl_value"]))
    return part, None, lambda: [(".dendrogram.json", dendrogram.to_records())]


def _with_cuts(result):
    part, cuts = result
    return part, None, lambda: [(".cuts.json", [[u, v, s] for u, v, s in cuts])]


def _louvain(g, params, seed):
    part, q, _ = louvain(g, params["variant"], seed)
    return part, q, lambda: []


def _fastgreedy(g, _params, _seed):
    dendrogram, part, _ = fastgreedy(g)
    n = dendrogram.leaves
    return part, None, lambda: [
        (".dendrogram.json", dendrogram.to_records()),
        (".trace.json", [[m.step + 1, m.q, n - m.step - 1] for m in dendrogram.merges]),
    ]


@dataclass(frozen=True)
class _Algorithm:
    accepts: set  # tuning parameters it takes; any other is rejected
    requires: set
    unweighted: bool  # reads the graph by hop count, so refuses edge weights
    call: object  # call(g, params, seed) -> (partition, own Q or None, siblings)


_GN_PARAMS = {"target_communities"}
_ALGORITHMS = {
    "agglomerative": _Algorithm(
        {"linkage", "self_neighboring", "hsl_mode", "hsl_value"},
        {"linkage", "hsl_mode", "hsl_value"}, True, _agglomerative,
    ),
    "girvan-newman": _Algorithm(
        _GN_PARAMS, _GN_PARAMS, True,
        lambda g, params, _: _with_cuts(girvan_newman(g, params["target_communities"])),
    ),
    "girvan-newman-static": _Algorithm(
        _GN_PARAMS, _GN_PARAMS, True,
        lambda g, params, _: _with_cuts(girvan_newman_static(g, params["target_communities"])),
    ),
    "louvain": _Algorithm({"variant", "seed"}, {"variant"}, False, _louvain),
    "fastgreedy": _Algorithm(set(), set(), False, _fastgreedy),
}

# The tuning flags `run` and `bench` share, then --variant and --seed, in
# the order `run` declares them. `bench` checks each name of its --variant
# list on its own, and its --seed is the base seed of any algorithm.
_TUNING = ("linkage", "self_neighboring", "hsl_mode", "hsl_value", "target_communities")
_PARAMETERS = (*_TUNING, "variant", "seed")


def _checked(algorithm, params):
    """The table entry of `algorithm`, once `params` suit it.

    An unknown algorithm, a parameter it does not take, a required one left
    out, an unknown Louvain variant or a bad dendrogram cut raises CliError.
    """
    entry = _ALGORITHMS.get(algorithm)
    if entry is None:
        raise CliError(f"unknown algorithm {algorithm!r}")
    for name in _PARAMETERS:
        if params.get(name) is not None and name not in entry.accepts:
            raise CliError(f"--{name.replace('_', '-')} is not a parameter of {algorithm}")
    for name in _PARAMETERS:
        if name in entry.requires and params.get(name) is None:
            raise CliError(f"{algorithm} requires --{name.replace('_', '-')}")
    labels = [v.value for v in LouvainVariant]
    if params.get("variant") is not None and params["variant"] not in labels:
        raise CliError(f"unknown variant {params['variant']!r}; expected one of: {', '.join(labels)}")
    if params.get("hsl_mode") is not None:
        try:
            HslSpec(params["hsl_mode"], params["hsl_value"])
        except ValueError as exc:
            raise CliError(str(exc)) from None
    return entry


def _load_for(algorithm, entry, spec):
    """Build the dataset; a hop-count algorithm refuses a weighted graph."""
    g = load_dataset(spec)
    if entry.unweighted:
        for u, v, w in g.edges():
            if w != 1.0:
                raise CliError(f"{algorithm} is unweighted, but edge ({u}, {v}) has weight {w!r}")
    return g


def run_command(args):
    params = {name: getattr(args, name) for name in _PARAMETERS}
    entry = _checked(args.algorithm, params)
    g = _load_for(args.algorithm, entry, args.dataset)
    try:
        part, q, siblings = entry.call(g, params, 0 if args.seed is None else args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if q is None and g.total_weight > 0:
        q = modularity(g, part)
    root, _ = os.path.splitext(args.out)
    files = [(args.out, part.to_dict(modularity=q))]
    files += [(root + suffix, payload) for suffix, payload in siblings()]
    _write_all([(path, _dump(payload)) for path, payload in files])
    print(f"communities: {part.num_communities}")
    print(f"q: {q!r}")
    return 0


def format_table(records):
    """Aligned text table over bench records."""
    headers = ("Version", "Max. Score", "Min Score", "Avg. runtime (ms)")
    rows = [
        (
            str(r["variant"]),
            f"{r['max']:.5f}",
            f"{r['min']:.5f}",
            f"{r['mean_runtime_ms']:.3f}",
        )
        for r in records
    ]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rows)) if rows else len(headers[col])
        for col in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def run_stats(label, runs, one):
    """Call `one(k)` for k in range(runs), one run after another; returns the record.

    `one(k)` returns the Q of run k. The record holds every Q, their max,
    min and mean, and the mean, min and median wall time per run; timing
    covers only the calls. A `runs` that is not an int of at least 1 (a
    bool is not) raises ValueError.
    """
    if not isinstance(runs, int) or isinstance(runs, bool):
        raise ValueError(f"runs must be an int, not {runs!r}")
    if runs < 1:
        raise ValueError("runs must be at least 1")
    qs = []
    times = []
    for k in range(runs):
        start = time.perf_counter()
        q = one(k)
        times.append(time.perf_counter() - start)
        qs.append(q)
    return {
        "variant": label,
        "runs": runs,
        "q_values": qs,
        "max": max(qs),
        "min": min(qs),
        "mean": statistics.fmean(qs),
        "mean_runtime_ms": statistics.fmean(times) * 1000.0,
        "min_runtime_ms": min(times) * 1000.0,
        "median_runtime_ms": statistics.median(times) * 1000.0,
    }


def _bench_configs(algorithm, variants, params):
    """`algorithm`'s table entry and the (label, params) of each bench record,
    once each variant suits it as `_checked` judges and is named only once."""
    for variant in variants or [None]:
        entry = _checked(algorithm, {**params, "variant": variant})
        if variants.count(variant) > 1:
            raise CliError(f"variant {variant!r} is repeated in --variant")
    if "variant" not in entry.accepts:
        return entry, [(algorithm, params)]
    return entry, [(LouvainVariant(v).value, {**params, "variant": v}) for v in variants]


def bench(g, algorithm, variants, runs, base_seed, params=None):
    """Benchmark one algorithm on one graph; returns the report
    {"environment": host note, "records": [...]}.

    For louvain each requested variant becomes one record of the runs with
    seeds base_seed..base_seed+runs-1; other algorithms are deterministic,
    so their record repeats one configuration `runs` times for timing. Every
    record comes from run_stats. A record's Q is Louvain's own, or else the
    partition's modularity, which raises ValueError on a graph with no
    edges. A variant that does not suit the algorithm, or one named twice,
    raises CliError.
    """
    entry, configs = _bench_configs(algorithm, list(variants), params or {})

    def one(config, k):
        part, q, _ = entry.call(g, config, base_seed + k)
        return modularity(g, part) if q is None else q

    records = [run_stats(label, runs, functools.partial(one, config)) for label, config in configs]
    environment = f"{platform.platform()} / Python {platform.python_version()}"
    return {"environment": environment, "records": records}


def bench_command(args):
    if args.runs < 1:
        raise CliError("--runs must be at least 1")
    params = {name: getattr(args, name) for name in _TUNING}
    if args.variant is not None:
        variants = args.variant.split(",")
    else:  # every Louvain variant, or none for an algorithm that takes none
        variants = [v.value for v in LouvainVariant if "variant" in _ALGORITHMS[args.algorithm].accepts]
    entry, _ = _bench_configs(args.algorithm, variants, params)
    g = _load_for(args.algorithm, entry, args.dataset)
    try:
        report = bench(g, args.algorithm, variants, args.runs, args.seed, params=params)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    _write_all([(args.out, _dump(report))])
    print(format_table(report["records"]))
    return 0


def emit_plot_data(data, path):
    """Write a bench report or per-step trace as CSV.

    A report (mapping with a "records" list) yields one row per run:
    variant, run_index, q. A trace (a list of steps) yields rows of
    step, q, num_communities. An empty report yields a header-only file.
    A record or row of any other shape raises CliError.
    """
    rows = []
    if isinstance(data, dict) and isinstance(data.get("records"), list):
        header = ("variant", "run_index", "q")
        for record in data["records"]:
            if not (isinstance(record, dict) and "variant" in record
                    and isinstance(record.get("q_values"), list)):
                raise CliError(f"bad report record {record!r}")
            rows.extend((record["variant"], idx, q) for idx, q in enumerate(record["q_values"]))
    elif isinstance(data, list):
        header = ("step", "q", "num_communities")
        for entry in data:
            if not isinstance(entry, list) or len(entry) != 3:
                raise CliError(f"bad trace row {entry!r}")
            rows.append(entry)
    else:
        raise CliError("input is neither a bench report nor a trace")
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    _write_all([(path, text.getvalue())])


def plot_data_command(args):
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {args.input!r}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise CliError(f"{args.input!r} is not valid JSON: {exc}") from None
    emit_plot_data(data, args.out)
    return 0


def _add_tuning_flags(parser):
    """The five tuning flags of `run` and `bench`, in _TUNING order."""
    parser.add_argument("--linkage", choices=("single", "complete", "average"))
    parser.add_argument("--self-neighboring", action="store_true", default=None)
    parser.add_argument("--hsl-mode", choices=("absolute", "relative"))
    parser.add_argument("--hsl-value", type=float)
    parser.add_argument("--target-communities", type=int)


# Built once per process: building the tree costs about ten times a parse.
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="commdetect",
        description="Community detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one algorithm and write JSON results")
    run_p.add_argument("--algorithm", required=True, choices=tuple(_ALGORITHMS))
    run_p.add_argument("--dataset", required=True)
    _add_tuning_flags(run_p)
    run_p.add_argument("--variant")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--out", required=True)
    run_p.set_defaults(handler=run_command)

    bench_p = sub.add_parser("bench", help="repeated seeded runs with statistics")
    bench_p.add_argument("--algorithm", default="louvain", choices=tuple(_ALGORITHMS))
    bench_p.add_argument("--dataset", required=True)
    bench_p.add_argument("--variant", help="comma-separated louvain variants")
    bench_p.add_argument("--runs", type=int, default=1)
    bench_p.add_argument("--seed", type=int, default=0, help="base seed")
    _add_tuning_flags(bench_p)
    bench_p.add_argument("--out", required=True)
    bench_p.set_defaults(handler=bench_command)

    plot_p = sub.add_parser("plot-data", help="flatten report/trace JSON to CSV")
    plot_p.add_argument("input", help="bench report or trace JSON file")
    plot_p.add_argument("--out", required=True)
    plot_p.set_defaults(handler=plot_data_command)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
