"""Output checks for every benchmarked call.

Each check validates one call's output against invariants that must hold
whatever the implementation, and returns the content that identifies the
result (partitions, Q, pass counts, merge order, cut sequences).  The
harness hashes that content, never file bytes, so a change of record
layout that keeps the results does not change the digest.

The reference functions are bound at import, before the tracer wraps
anything, so checking adds nothing to the traced layers.
"""

import json
import math
from collections import deque

from commdetect.graph import Graph, Partition, connected_components, modularity

_Q_TOL = 1e-9


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _same_q(reported, expected, what):
    require(isinstance(reported, float) and math.isfinite(reported), f"{what}: Q is not a finite float")
    require(abs(reported - expected) <= _Q_TOL,
            f"{what}: reported Q {reported!r} differs from recomputed {expected!r}")


def _labels(part, n, what):
    labels = list(part.labels)
    require(len(labels) == n, f"{what}: partition covers {len(labels)} of {n} nodes")
    return labels


def merge_gain(merge):
    """Modularity gain of a fastgreedy merge, wherever the record keeps it."""
    return merge.gain if hasattr(merge, "gain") else merge.distance


def _merge_rows(dendrogram, n, what, value):
    require(dendrogram.leaves == n, f"{what}: dendrogram has {dendrogram.leaves} leaves, graph {n}")
    require(len(dendrogram.merges) == n - 1,
            f"{what}: {len(dendrogram.merges)} merges, expected {n - 1}")
    live = set(range(n))
    rows = []
    for step, merge in enumerate(dendrogram.merges):
        require(merge.left in live and merge.right in live and merge.left != merge.right,
                f"{what}: merge {step} joins a dead or repeated cluster")
        require(merge.merged == n + step and merge.step == step, f"{what}: merge {step} misnumbered")
        live -= {merge.left, merge.right}
        live.add(merge.merged)
        rows.append([merge.left, merge.right, merge.merged, repr(float(value(merge)))])
    return rows


def louvain_result(g, out, what):
    part, q, passes = out
    labels = _labels(part, g.node_count, what)
    _same_q(q, modularity(g, part), what)
    require(part == part.canonicalize(), f"{what}: labels are not canonical")
    require(isinstance(passes, int) and passes >= 1, f"{what}: bad pass count {passes!r}")
    return {"labels": labels, "q": repr(q), "passes": passes}


def fastgreedy_result(g, out, what):
    dendrogram, part, best_q = out
    n = g.node_count
    rows = _merge_rows(dendrogram, n, what, merge_gain)
    q = modularity(g, list(range(n)))
    peak = q
    for merge in dendrogram.merges:
        q += merge_gain(merge)
        peak = max(peak, q)
    _same_q(best_q, peak, what + " (peak of Q rebuilt from the merges)")
    _same_q(best_q, modularity(g, part), what + " (best partition)")
    return {"merges": rows, "labels": _labels(part, n, what), "best_q": repr(best_q)}


def agglomerative_result(g, out, undo, what):
    dendrogram, part = out
    n = g.node_count
    rows = _merge_rows(dendrogram, n, what, lambda m: m.distance)
    labels = _labels(part, n, what)
    require(part.num_communities == undo + 1,
            f"{what}: cut left {part.num_communities} clusters, expected {undo + 1}")
    return {"merges": rows, "labels": labels}


def _without(g, cuts):
    removed = {(u, v) for u, v in cuts}
    return Graph(g.node_count, [e for e in g.edges() if (e[0], e[1]) not in removed])


def girvan_newman_result(g, target, out, what):
    part, cuts = out
    n = g.node_count
    pairs = [(u, v) for u, v, _ in cuts]
    require(len(set(pairs)) == len(pairs), f"{what}: an edge was cut twice")
    require(all(g.has_edge(u, v) and u <= v for u, v in pairs), f"{what}: a cut is not an edge")
    components = connected_components(_without(g, pairs))
    require(part.canonicalize() == components,
            f"{what}: partition is not the components left by the returned cuts")
    require(components.num_communities >= target or len(pairs) == g.edge_count,
            f"{what}: {components.num_communities} components, target {target}")
    if pairs:
        before = connected_components(_without(g, pairs[:-1])).num_communities
        require(before < target, f"{what}: the last cut was not needed to reach the target")
    return {"labels": _labels(part, n, what), "cuts": [[u, v, repr(s)] for u, v, s in cuts]}


def betweenness_work(g, cuts):
    """BFS steps the divisive scheme needs for this cut sequence.

    One BFS step is one node or adjacency entry visited from one root.
    Scoring a component of c nodes and e edges costs c * (c + 2e) steps;
    the first scoring covers every component, and each removal rescoring
    the component(s) that held the cut edge.  The count depends only on
    the graph and the returned cuts, so dividing wall time by it gives a
    per-step cost that does not swing with how many removals a seed needs.
    """
    adj = [set(g.neighbors(i)) - {i} for i in range(g.node_count)]

    def component(start):
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen

    def cost(nodes):
        degree_sum = sum(len(adj[u]) for u in nodes)
        return len(nodes) * (len(nodes) + degree_sum)

    work = 0
    seen = set()
    for start in range(g.node_count):
        if start not in seen:
            nodes = component(start)
            seen |= nodes
            work += cost(nodes)
    for u, v, _ in cuts:
        adj[u].discard(v)
        adj[v].discard(u)
        side = component(u)
        work += cost(side) if v in side else cost(side) + cost(component(v))
    return work


def cli_run_result(g, argv, out_path, status, stdout, what):
    require(status == 0, f"{what}: exit status {status}")
    with open(out_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    labels = payload["labels"]
    require(len(labels) == g.node_count, f"{what}: {len(labels)} labels for {g.node_count} nodes")
    _same_q(payload["modularity"], modularity(g, labels), what)
    require(payload["num_communities"] == len(set(labels)), f"{what}: community count mismatch")
    require(f"communities: {payload['num_communities']}" in stdout, f"{what}: summary line missing")
    content = {"result": payload}
    root = out_path[: -len(".json")]
    algorithm = argv[argv.index("--algorithm") + 1]
    if algorithm in ("agglomerative", "fastgreedy"):
        with open(root + ".dendrogram.json", encoding="utf-8") as handle:
            records = json.load(handle)
        require(len(records) == g.node_count - 1, f"{what}: dendrogram has {len(records)} records")
        content["dendrogram"] = [[r["left"], r["right"], r["merged"], r["step"]] for r in records]
    if algorithm == "fastgreedy":
        with open(root + ".trace.json", encoding="utf-8") as handle:
            trace = json.load(handle)
        require(len(trace) == g.node_count - 1, f"{what}: trace has {len(trace)} rows")
        peak = max(row[1] for row in trace)
        require(peak >= payload["modularity"] - _Q_TOL, f"{what}: trace peak below reported Q")
        content["trace"] = [[row[0], repr(row[1]), row[2]] for row in trace]
    if algorithm.startswith("girvan-newman"):
        with open(root + ".cuts.json", encoding="utf-8") as handle:
            cuts = json.load(handle)
        target = int(argv[argv.index("--target-communities") + 1])
        girvan_newman_result(g, target, (Partition(labels), [tuple(c) for c in cuts]), what)
        content["cuts"] = cuts
    return content


def cli_bench_result(out_path, status, variants, runs, what):
    require(status == 0, f"{what}: exit status {status}")
    with open(out_path, encoding="utf-8") as handle:
        report = json.load(handle)
    records = report["records"]
    require([r["variant"] for r in records] == variants, f"{what}: variants {[r['variant'] for r in records]}")
    content = []
    for r in records:
        qs = r["q_values"]
        require(r["runs"] == runs and len(qs) == runs, f"{what}: {r['variant']} has {len(qs)} runs")
        require(r["max"] == max(qs) and r["min"] == min(qs), f"{what}: {r['variant']} extremes wrong")
        require(r["min"] - _Q_TOL <= r["mean"] <= r["max"] + _Q_TOL, f"{what}: mean outside range")
        require(r["mean_runtime_ms"] > 0, f"{what}: non-positive runtime")
        content.append([r["variant"], [repr(q) for q in qs]])
    return content
