"""The benchmark's workloads.

Each workload builds its inputs from the seed in `setup`, names one
warm-up call per configuration, and yields the calls of cycle j.  Every
call goes through the attribute of the module that owns the name (for
example `lv_mod.louvain`), so the traced run's wrappers see it.  Why each
workload exists, and which layers it loads or bypasses, is recorded in
BENCHMARK.json and METRICS.md.
"""

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from importlib import import_module

from commdetect.graph import Graph, load_edge_list, serialize_edge_list

import checks
from tracing import CLI_SPAN

# `import commdetect.louvain as m` would bind the function the package
# re-exports under the submodule's name, so the modules are looked up.
agg_mod = import_module("commdetect.agglomerative")
cli_mod = import_module("commdetect.cli")
fg_mod = import_module("commdetect.fastgreedy")
gn_mod = import_module("commdetect.girvan_newman")
graph_mod = import_module("commdetect.graph")
lv_mod = import_module("commdetect.louvain")


@dataclass
class Op:
    """One benchmarked call.

    `check` turns the output into digest content and raises
    checks.CheckFailed when an invariant breaks.  Ops of one cycle that
    share `metric` and `sample` add up to one sample; `work` divides the
    call's time by the units of work its output shows.
    """

    key: str
    call: object
    check: object
    metric: str = None
    sample: object = None
    work: object = None
    span: str = "bench.call"
    files: tuple = ()


@dataclass(frozen=True)
class Metric:
    """A per-call statistic: `stat` of the `source` samples times `scale`."""

    name: str
    source: str
    scale: float = 1.0
    stat: str = "median"


# ---------------------------------------------------------------------------


class ModoptSparse2k:
    """Louvain and fastgreedy on sparse Erdos-Renyi graphs of mean degree 8."""

    name = "modopt-sparse2k"
    setup_reps = 3
    min_cycles = 3
    metrics = (
        Metric("louvain.normal_ms_per_pass", "louvain_normal", 1000.0),
        Metric("louvain.exp_s", "louvain_exp"),
        Metric("fastgreedy.call_s", "fastgreedy"),
    )

    def __init__(self, smoke):
        self.n, self.p = (200, 0.04) if smoke else (2000, 0.004)
        # Louvain normal's time per pass varies by about 15% from one seed
        # to the next, so it needs many calls per run: on a 500-node graph
        # of the same mean degree a call takes a tenth of the 2000-node time.
        self.normal_n, self.normal_p = (100, 0.08) if smoke else (500, 0.016)
        self.normal_calls = 4

    def setup(self, seed, workdir):
        # fastgreedy's heap traffic differs by about 9% between graphs of
        # this size, so Exp and fastgreedy run on two of them.
        return {"graphs": [graph_mod.random_graph(self.n, self.p, 2 * seed + k) for k in (0, 1)],
                "small": graph_mod.random_graph(self.normal_n, self.normal_p, seed),
                "seed": seed}

    def _normal(self, g, louvain_seed):
        what = f"louvain normal seed={louvain_seed}"
        return Op(what, lambda: lv_mod.louvain(g, "normal", louvain_seed),
                  lambda out: checks.louvain_result(g, out, what),
                  metric="louvain_normal", work=lambda out: out[2])

    def _exp(self, inputs, k):
        g = inputs["graphs"][k]
        return Op(f"louvain Exp graph={k}", lambda: lv_mod.louvain(g, "Exp"),
                  lambda out: checks.louvain_result(g, out, "louvain Exp"), metric="louvain_exp")

    def _fastgreedy(self, inputs, k):
        g = inputs["graphs"][k]
        return Op(f"fastgreedy graph={k}", lambda: fg_mod.fastgreedy(g),
                  lambda out: checks.fastgreedy_result(g, out, "fastgreedy"), metric="fastgreedy")

    def warmup(self, inputs):
        return [self._normal(inputs["small"], inputs["seed"]), self._exp(inputs, 0),
                self._fastgreedy(inputs, 0)]

    def cycle(self, inputs, j):
        # Every Louvain call draws a new seed, so the run samples the
        # seed-to-seed spread of the pass cost instead of fixing it.
        first = inputs["seed"] + j * self.normal_calls
        return [
            *[self._normal(inputs["small"], first + i) for i in range(self.normal_calls)],
            *[self._exp(inputs, k) for k in (0, 1)],
            *[self._fastgreedy(inputs, k) for k in (0, 1)],
        ]


# ---------------------------------------------------------------------------


def planted_graph(seed, blocks, size, p_in, ring_edges):
    """Ring of dense blocks with shuffled node ids.

    Each block is a commdetect `random_graph(size, p_in, .)`; consecutive
    blocks (cyclically) are joined by `ring_edges` random edges.  The
    divisive scheme therefore reaches `blocks` components after removing
    about blocks * ring_edges edges whatever the seed, unlike on an
    Erdos-Renyi graph: on random_graph(160, 0.05, s) the removal count to
    reach ten components ranged from 24 to 166 over thirteen seeds.
    """
    rng = random.Random(seed)
    edges = set()
    for b in range(blocks):
        block = graph_mod.random_graph(size, p_in, rng.randrange(2**32))
        edges.update((b * size + u, b * size + v) for u, v, _ in block.edges())
    for b in range(blocks):
        c = (b + 1) % blocks
        added = 0
        while added < ring_edges:
            u = b * size + rng.randrange(size)
            v = c * size + rng.randrange(size)
            edge = (min(u, v), max(u, v))
            if edge not in edges:
                edges.add(edge)
                added += 1
    n = blocks * size
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in sorted(edges)])


class HierCubic100:
    """Agglomerative and Girvan-Newman clustering on a 100-node graph."""

    name = "hier-cubic100"
    setup_reps = 9
    min_cycles = 3
    metrics = (
        Metric("agglomerative.average_s", "agglomerative_average"),
        Metric("agglomerative.single_sn_s", "agglomerative_single_sn"),
        Metric("girvan_newman.ns_per_bfs_step", "girvan_newman", 1e9),
        Metric("girvan_newman.static_s", "girvan_newman_static"),
    )

    def __init__(self, smoke):
        # (blocks, block size, intra-block edge probability, ring edges); GN
        # splits the graph into as many components as there are blocks.
        self.shape = (4, 8, 0.6, 2) if smoke else (10, 10, 0.8, 2)
        self.target = self.shape[0]

    def setup(self, seed, workdir):
        return {"g": planted_graph(seed, *self.shape)}

    def _agglomerative(self, g, linkage, self_neighboring, metric):
        spec = agg_mod.HslSpec("relative", 0.3)
        undo = math.floor(0.3 * (g.node_count - 1) + 0.5)
        what = f"agglomerate {linkage} self_neighboring={self_neighboring}"

        def call():
            dendrogram = agg_mod.agglomerate(g, linkage, self_neighboring)
            return dendrogram, agg_mod.cut(dendrogram, spec)

        return Op(what, call, lambda out: checks.agglomerative_result(g, out, undo, what), metric=metric)

    def _ops(self, g):
        target = self.target
        return [
            self._agglomerative(g, "average", False, "agglomerative_average"),
            self._agglomerative(g, "single", True, "agglomerative_single_sn"),
            Op("girvan_newman", lambda: gn_mod.girvan_newman(g, target),
               lambda out: checks.girvan_newman_result(g, target, out, "girvan_newman"),
               metric="girvan_newman", work=lambda out: checks.betweenness_work(g, out[1])),
            Op("girvan_newman_static", lambda: gn_mod.girvan_newman_static(g, target),
               lambda out: checks.girvan_newman_result(g, target, out, "girvan_newman_static"),
               metric="girvan_newman_static"),
        ]

    def warmup(self, inputs):
        return self._ops(inputs["g"])

    def cycle(self, inputs, j):
        return self._ops(inputs["g"])


# ---------------------------------------------------------------------------


def run_cli(argv):
    """Call commdetect.cli.main in-process; returns (status, captured output)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        status = cli_mod.main(argv)
    return status, buffer.getvalue()


_KARATE_RUNS = (
    ("louvain-normal", ["--algorithm", "louvain", "--variant", "normal"]),
    ("louvain-total", ["--algorithm", "louvain", "--variant", "total"]),
    ("louvain-noMerge", ["--algorithm", "louvain", "--variant", "noMerge"]),
    ("louvain-totalNoMerge", ["--algorithm", "louvain", "--variant", "totalNoMerge"]),
    ("louvain-Exp", ["--algorithm", "louvain", "--variant", "Exp"]),
    ("fastgreedy", ["--algorithm", "fastgreedy"]),
    ("agglomerative", ["--algorithm", "agglomerative", "--linkage", "average",
                       "--hsl-mode", "relative", "--hsl-value", "0.3"]),
    ("girvan-newman", ["--algorithm", "girvan-newman", "--target-communities", "8"]),
    ("girvan-newman-static", ["--algorithm", "girvan-newman-static", "--target-communities", "8"]),
)
_SIDE_FILES = {
    "fastgreedy": (".dendrogram.json", ".trace.json"),
    "agglomerative": (".dendrogram.json",),
    "girvan-newman": (".cuts.json",),
    "girvan-newman-static": (".cuts.json",),
}
_LOUVAIN_VARIANTS = ["normal", "total", "noMerge", "totalNoMerge", "Exp"]


class CliSmall:
    """Many small in-process CLI calls, where fixed per-call costs dominate."""

    name = "cli-small"
    setup_reps = 3
    metrics = (
        Metric("cli.karate_cycle_ms", "cli_karate_cycle", 1000.0),
        Metric("cli.karate_cycle_p90_ms", "cli_karate_cycle", 1000.0, "p90"),
        Metric("cli.edgelist_run_s", "cli_edgelist_run"),
        Metric("cli.bench_s", "cli_bench"),
    )

    def __init__(self, smoke):
        self.n, self.p = (200, 0.04) if smoke else (2000, 0.004)
        self.karate_cycles = 2 if smoke else 10  # per benchmark cycle
        self.bench_runs = 2 if smoke else 20
        # At least 100 karate cycles, so the p90 has ten samples beyond it.
        self.min_cycles = 3 if smoke else 10

    def setup(self, seed, workdir):
        g = graph_mod.random_graph(self.n, self.p, seed)
        path = os.path.join(workdir, f"sparse-{seed}.edges")
        text = serialize_edge_list(g)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return {"seed": seed, "workdir": workdir, "edges": path,
                "edge_graph": load_edge_list(text), "karate": graph_mod.karate_club()}

    def _run(self, inputs, name, args, graph, dataset, metric, sample):
        out = os.path.join(inputs["workdir"], name + ".json")
        argv = ["run", *args, "--dataset", dataset, "--out", out]
        algorithm = args[1]
        files = (out,) + tuple(out[: -len(".json")] + s for s in _SIDE_FILES.get(algorithm, ()))
        # The key names the configuration, not the scratch directory.
        key = " ".join(["run", *args, "--dataset", os.path.basename(dataset)])
        return Op(key, lambda: run_cli(argv),
                  lambda res: checks.cli_run_result(graph, argv, out, res[0], res[1], key),
                  metric=metric, sample=sample, span=CLI_SPAN, files=files)

    def _karate_cycle(self, inputs, index):
        louvain_seed = str(inputs["seed"] + index % 3)
        ops = []
        for name, args in _KARATE_RUNS:
            if args[1] == "louvain":
                args = [*args, "--seed", louvain_seed]
            ops.append(self._run(inputs, "karate-" + name, args, inputs["karate"], "karate",
                                 "cli_karate_cycle", index))
        return ops

    def _edgelist(self, inputs):
        return self._run(inputs, "edgelist-exp", ["--algorithm", "louvain", "--variant", "Exp"],
                         inputs["edge_graph"], "edgelist:" + inputs["edges"], "cli_edgelist_run", None)

    def _bench(self, inputs):
        out = os.path.join(inputs["workdir"], "bench.json")
        runs = self.bench_runs
        argv = ["bench", "--dataset", "karate", "--runs", str(runs), "--seed", str(inputs["seed"]),
                "--out", out]
        return Op(" ".join(argv[:-2]), lambda: run_cli(argv),
                  lambda res: checks.cli_bench_result(out, res[0], _LOUVAIN_VARIANTS, runs, "bench"),
                  metric="cli_bench", span=CLI_SPAN, files=(out,))

    def warmup(self, inputs):
        return [*self._karate_cycle(inputs, 0), self._edgelist(inputs), self._bench(inputs)]

    def cycle(self, inputs, j):
        ops = []
        for k in range(self.karate_cycles):
            ops.extend(self._karate_cycle(inputs, j * self.karate_cycles + k))
        return [*ops, self._edgelist(inputs), self._bench(inputs)]


WORKLOADS = {w.name: w for w in (ModoptSparse2k, HierCubic100, CliSmall)}


def call_metrics():
    """Every workload's per-call metrics, reported as per-layer metrics."""
    return [m for w in WORKLOADS.values() for m in w.metrics]
