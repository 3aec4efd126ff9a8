"""Command-line interface: single runs, benchmark sweeps, and plot data.

Subcommands:
  run        one algorithm on one dataset, results written as JSON
  bench      repeated seeded runs with per-variant statistics
  plot-data  flatten a bench report or a per-step trace into CSV

Datasets are named as "karate", "edgelist:<path>", or "random:<n,p,seed>".
"""

import argparse
import csv
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

_ALGORITHMS = (
    "agglomerative",
    "girvan-newman",
    "girvan-newman-static",
    "louvain",
    "fastgreedy",
)

# Optional/required tuning parameters accepted by each algorithm. Anything
# supplied outside its algorithm's row is rejected, not ignored.
_ALLOWED = {
    "agglomerative": {"linkage", "self_neighboring", "hsl_mode", "hsl_value"},
    "girvan-newman": {"target_communities"},
    "girvan-newman-static": {"target_communities"},
    "louvain": {"variant", "seed"},
    "fastgreedy": set(),
}
_REQUIRED = {
    "agglomerative": {"linkage", "hsl_mode", "hsl_value"},
    "girvan-newman": {"target_communities"},
    "girvan-newman-static": {"target_communities"},
    "louvain": {"variant"},
    "fastgreedy": set(),
}


# Algorithms that read the graph by hop count and ignore edge weights.
_UNWEIGHTED = ("agglomerative", "girvan-newman", "girvan-newman-static")

# random:N,P,SEED draws once per node pair: 3.2e7 draws at N = 8000,
# 5e9 at N = 100000.
_MAX_RANDOM_PAIRS = 5 * 10**7


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
        try:
            return random_graph(n, p, seed)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    raise CliError(f"unknown dataset {spec!r}")


def _check_unweighted(algorithm, g):
    if algorithm in _UNWEIGHTED:
        for u, v, w in g.edges():
            if w != 1.0:
                raise CliError(f"{algorithm} is unweighted, but edge ({u}, {v}) has weight {w!r}")


def _check_params(algorithm, provided):
    allowed = _ALLOWED[algorithm]
    for name, value in provided.items():
        if value is not None and name not in allowed:
            flag = "--" + name.replace("_", "-")
            raise CliError(f"{flag} is not a parameter of {algorithm}")
    for name in _REQUIRED[algorithm]:
        if provided.get(name) is None:
            flag = "--" + name.replace("_", "-")
            raise CliError(f"{algorithm} requires {flag}")


def _parse_variant(value):
    try:
        return LouvainVariant(value)
    except ValueError:
        labels = ", ".join(v.value for v in LouvainVariant)
        raise CliError(f"unknown variant {value!r}; expected one of: {labels}") from None


def _derived_path(out, suffix):
    root, _ = os.path.splitext(out)
    return root + suffix


def _dump(payload):
    return json.dumps(payload, indent=2) + "\n"


def _write_all(files):
    """Write every (path, text) pair; on failure leave nothing behind."""
    written = []
    try:
        for path, text in files:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            written.append(path)
    except OSError as exc:
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise CliError(f"cannot write output: {exc}") from None


def _trace_rows(g, dendrogram):
    q = modularity(g, list(range(g.node_count)))
    rows = []
    for merge in dendrogram.merges:
        q += merge.distance
        rows.append([merge.step + 1, q, dendrogram.leaves - merge.step - 1])
    return rows


def run_command(args):
    params = {
        "linkage": args.linkage,
        "self_neighboring": args.self_neighboring,
        "hsl_mode": args.hsl_mode,
        "hsl_value": args.hsl_value,
        "target_communities": args.target_communities,
        "variant": args.variant,
        "seed": args.seed,
    }
    _check_params(args.algorithm, params)
    g = load_dataset(args.dataset)
    _check_unweighted(args.algorithm, g)
    files = []
    try:
        if args.algorithm == "agglomerative":
            dendrogram = agglomerate(g, args.linkage, bool(args.self_neighboring))
            part = cut(dendrogram, HslSpec(args.hsl_mode, args.hsl_value))
            files.append((_derived_path(args.out, ".dendrogram.json"),
                          _dump(dendrogram.to_records())))
        elif args.algorithm in ("girvan-newman", "girvan-newman-static"):
            fn = girvan_newman if args.algorithm == "girvan-newman" else girvan_newman_static
            part, cuts = fn(g, args.target_communities)
            files.append((_derived_path(args.out, ".cuts.json"),
                          _dump([[u, v, s] for u, v, s in cuts])))
        elif args.algorithm == "louvain":
            variant = _parse_variant(args.variant)
            part, _, _ = louvain(g, variant, args.seed if args.seed is not None else 0)
        else:
            dendrogram, part, _ = fastgreedy(g)
            files.append((_derived_path(args.out, ".dendrogram.json"),
                          _dump(dendrogram.to_records())))
            files.append((_derived_path(args.out, ".trace.json"),
                          _dump(_trace_rows(g, dendrogram))))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    q = modularity(g, part) if g.total_weight > 0 else None
    files.insert(0, (args.out, _dump(part.to_dict(modularity=q))))
    _write_all(files)
    print(f"communities: {part.num_communities}")
    print(f"q: {q!r}")
    return 0


@dataclass
class BenchReport:
    """Per-variant statistics records plus a host environment note."""

    environment: str
    records: list

    def to_dict(self):
        return {"environment": self.environment, "records": self.records}


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


def _environment_note():
    return f"{platform.platform()} / Python {platform.python_version()}"


def run_stats(label, runs, one):
    """Call `one(k)` for k in range(runs), one run after another; returns the record.

    `one(k)` returns the Q of run k. The record holds every Q, their max,
    min and mean, and the mean, min and median wall time per run; timing
    covers only the calls.
    """
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


def bench(g, algorithm, variants, runs, base_seed, params=None):
    """Benchmark one algorithm on one graph; returns a BenchReport.

    For louvain each requested variant becomes one record of the runs
    with seeds base_seed..base_seed+runs-1; other algorithms are
    deterministic, so their record repeats one configuration `runs` times
    for timing. Every record comes from run_stats.
    """
    params = params or {}
    records = []
    if algorithm == "louvain":
        for variant in variants:
            variant = LouvainVariant(variant)
            records.append(run_stats(
                variant.value, runs, lambda k: louvain(g, variant, base_seed + k)[1]
            ))
    elif algorithm in ("girvan-newman", "girvan-newman-static"):
        fn = girvan_newman if algorithm == "girvan-newman" else girvan_newman_static
        target = params["target_communities"]

        def one(_):
            part, _ = fn(g, target)
            return modularity(g, part) if g.total_weight > 0 else float("nan")

        records.append(run_stats(algorithm, runs, one))
    elif algorithm == "agglomerative":
        spec = HslSpec(params["hsl_mode"], params["hsl_value"])
        linkage = params["linkage"]
        self_neighboring = bool(params.get("self_neighboring"))

        def one(_):
            part = cut(agglomerate(g, linkage, self_neighboring), spec)
            return modularity(g, part) if g.total_weight > 0 else float("nan")

        records.append(run_stats(algorithm, runs, one))
    elif algorithm == "fastgreedy":

        def one(_):
            _, part, _ = fastgreedy(g)
            return modularity(g, part)

        records.append(run_stats(algorithm, runs, one))
    else:
        raise CliError(f"unknown algorithm {algorithm!r}")
    return BenchReport(_environment_note(), records)


def bench_command(args):
    if args.runs < 1:
        raise CliError("--runs must be at least 1")
    g = load_dataset(args.dataset)
    params = {
        "linkage": args.linkage,
        "self_neighboring": args.self_neighboring,
        "hsl_mode": args.hsl_mode,
        "hsl_value": args.hsl_value,
        "target_communities": args.target_communities,
    }
    if args.algorithm == "louvain":
        for name, value in params.items():
            if value is not None:
                flag = "--" + name.replace("_", "-")
                raise CliError(f"{flag} is not a parameter of louvain")
        if args.variant is None:
            variants = [v for v in LouvainVariant]
        else:
            variants = [_parse_variant(v) for v in args.variant.split(",")]
    else:
        if args.variant is not None:
            raise CliError(f"--variant is not a parameter of {args.algorithm}")
        _check_params(args.algorithm, params)
        variants = []
    _check_unweighted(args.algorithm, g)
    try:
        report = bench(g, args.algorithm, variants, args.runs, args.seed, params=params)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    _write_all([(args.out, _dump(report.to_dict()))])
    print(format_table(report.records))
    return 0


def emit_plot_data(data, path):
    """Write a bench report or per-step trace as CSV.

    A report (mapping with a "records" key) yields one row per run:
    variant, run_index, q. A trace (a list of steps) yields rows of
    step, q, num_communities. An empty report yields a header-only file.
    """
    rows = []
    if isinstance(data, dict) and "records" in data:
        header = ("variant", "run_index", "q")
        for record in data["records"]:
            for idx, q in enumerate(record["q_values"]):
                rows.append((record["variant"], idx, q))
    elif isinstance(data, list):
        header = ("step", "q", "num_communities")
        for entry in data:
            if len(entry) != 3:
                raise CliError(f"bad trace row {entry!r}")
            rows.append(tuple(entry))
    else:
        raise CliError("input is neither a bench report nor a trace")
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        try:
            os.unlink(path)
        except OSError:
            pass
        raise CliError(f"cannot write output: {exc}") from None


def plot_data_command(args):
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {args.input!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.input!r} is not valid JSON: {exc}") from None
    emit_plot_data(data, args.out)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="commdetect",
        description="Community detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one algorithm and write JSON results")
    run_p.add_argument("--algorithm", required=True, choices=_ALGORITHMS)
    run_p.add_argument("--dataset", required=True)
    run_p.add_argument("--linkage", choices=("single", "complete", "average"))
    run_p.add_argument("--self-neighboring", action="store_true", default=None)
    run_p.add_argument("--hsl-mode", choices=("absolute", "relative"))
    run_p.add_argument("--hsl-value", type=float)
    run_p.add_argument("--target-communities", type=int)
    run_p.add_argument("--variant")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--out", required=True)
    run_p.set_defaults(handler=run_command)

    bench_p = sub.add_parser("bench", help="repeated seeded runs with statistics")
    bench_p.add_argument("--algorithm", default="louvain", choices=_ALGORITHMS)
    bench_p.add_argument("--dataset", required=True)
    bench_p.add_argument("--variant", help="comma-separated louvain variants")
    bench_p.add_argument("--runs", type=int, default=1)
    bench_p.add_argument("--seed", type=int, default=0, help="base seed")
    bench_p.add_argument("--linkage", choices=("single", "complete", "average"))
    bench_p.add_argument("--self-neighboring", action="store_true", default=None)
    bench_p.add_argument("--hsl-mode", choices=("absolute", "relative"))
    bench_p.add_argument("--hsl-value", type=float)
    bench_p.add_argument("--target-communities", type=int)
    bench_p.add_argument("--out", required=True)
    bench_p.set_defaults(handler=bench_command)

    plot_p = sub.add_parser("plot-data", help="flatten report/trace JSON to CSV")
    plot_p.add_argument("input", help="bench report or trace JSON file")
    plot_p.add_argument("--out", required=True)
    plot_p.set_defaults(handler=plot_data_command)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
