"""Span tracing for the traced benchmark run.

The tracer replaces public commdetect names *where the calling module
looks them up* (for example `commdetect.louvain.local_move_pass`, which
`_passes_until_stable` resolves at call time) with thin wrappers, and
puts every original back in `restore()`.

Three kinds of hook exist:

* span hooks record (name, start, end, parent) in memory; self time is
  a span's duration minus what its children cover;
* timer hooks sit on calls made hundreds of thousands of times per cycle
  (`linkage_distance`, `euclidean_distance`).  They keep a call count and
  a running time total, and add their time to the enclosing span's
  covered time, but record no span, so memory stays flat;
* count-only hooks (`GlobalHeap.push`) run a counting callback and take
  no time stamps at all.

A hook whose name the program no longer has is listed in `absent` and
every metric that depends on it is reported as absent.
"""

import time
from importlib import import_module

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, timer-covered seconds]
        self.counts = {}
        self.timer_s = {}
        self.absent = set()
        self._stack = []  # indices of open spans
        self._restore = []

    # -- recording -------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent, 0.0])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = _clock()

    def span(self, name):
        return _SpanContext(self, name)

    def innermost(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def reset(self):
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        self.spans = []
        self.counts = {}
        self.timer_s = {}

    # -- hooks -----------------------------------------------------------

    def wrap(self, owner, attr, name, timer=False, count_only=None, label=None,
             before=None, after=None):
        """Replace owner.attr by a traced wrapper.

        By default the wrapper records a span.  `timer=True` makes it a
        timer hook; `count_only(args, kwargs)` makes it an untimed hook
        that only runs that callback.  `label(args, kwargs)` refines the
        span name per call; `before` runs ahead of the call and its result
        is passed with the call's return value to `after`.  Both run
        outside the timed interval.
        """
        original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.absent.add(hook_name(owner, attr))
            return
        tracer = self
        if count_only:
            def wrapper(*args, **kwargs):
                count_only(args, kwargs)
                return original(*args, **kwargs)
        elif timer:
            def wrapper(*args, **kwargs):
                start = _clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = _clock() - start
                    tracer.counts[name] = tracer.counts.get(name, 0) + 1
                    tracer.timer_s[name] = tracer.timer_s.get(name, 0.0) + elapsed
                    if tracer._stack:
                        tracer.spans[tracer._stack[-1]][4] += elapsed
        else:
            def wrapper(*args, **kwargs):
                token = before(args, kwargs) if before else None
                tracer.open(label(args, kwargs) if label else name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close()
                if after:
                    after(token, result)
                return result
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- derived ---------------------------------------------------------

    def totals(self):
        """Inclusive and self seconds per span name."""
        child_s = [span[4] for span in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        inclusive = {}
        self_s = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_s):
            inclusive[name] = inclusive.get(name, 0.0) + end - start
            self_s[name] = self_s.get(name, 0.0) + end - start - covered
        return inclusive, self_s

    def child_total(self, parent_names, child_names):
        """Seconds spent in `child_names` spans opened directly under `parent_names`."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name in child_names and parent >= 0 and self.spans[parent][0] in parent_names:
                total += end - start
        return total


def hook_name(owner, attr):
    """Dotted name of owner.attr, e.g. commdetect.fastgreedy.GlobalHeap.push."""
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__name__}.{attr}"
    return f"{owner.__name__}.{attr}"


class _SpanContext:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.open(self.name)

    def __exit__(self, *exc):
        self.tracer.close()
        return False


# ---------------------------------------------------------------------------
# commdetect hooks

_PUSH = "commdetect.fastgreedy.GlobalHeap.push"
_POP_BEST = "commdetect.fastgreedy.GlobalHeap.pop_best"


def install(tracer):
    """Wrap commdetect's public names at every lookup site the workloads reach.

    Modules are fetched with import_module because the package re-exports
    functions under their submodules' names.
    """
    agg_mod = import_module("commdetect.agglomerative")
    cli_mod = import_module("commdetect.cli")
    fg_mod = import_module("commdetect.fastgreedy")
    gn_mod = import_module("commdetect.girvan_newman")
    graph_mod = import_module("commdetect.graph")
    lv_mod = import_module("commdetect.louvain")

    # graph
    tracer.wrap(graph_mod, "random_graph", "graph.random_graph")
    tracer.wrap(cli_mod, "load_edge_list", "graph.load_edge_list")
    tracer.wrap(lv_mod, "modularity", "graph.modularity",
                after=lambda _, __: tracer.count("graph.modularity_calls"))
    tracer.wrap(gn_mod, "connected_components", "graph.connected_components")

    # louvain
    def louvain_label(args, kwargs):
        variant = args[1] if len(args) > 1 else kwargs.get("variant")
        return "louvain.louvain.Exp" if str(getattr(variant, "value", variant)) == "Exp" else "louvain.louvain"

    def louvain_after(_, result):
        tracer.count("louvain.levels")
        tracer.count("louvain.passes", result[2])

    for owner in (lv_mod, cli_mod):
        tracer.wrap(owner, "louvain", "louvain.louvain", label=louvain_label, after=louvain_after)

    def pass_before(args, kwargs):
        return list(args[0].assignment)

    def pass_after(before, result):
        state, _ = result
        tracer.count("louvain.node_visits", len(before))
        tracer.count("louvain.moves", sum(1 for a, b in zip(before, state.assignment) if a != b))

    tracer.wrap(lv_mod, "local_move_pass", "louvain.local_move_pass", before=pass_before, after=pass_after)
    tracer.wrap(lv_mod, "aggregate", "louvain.aggregate",
                after=lambda _, __: tracer.count("louvain.levels"))
    tracer.wrap(lv_mod, "CommunityState", "louvain.community_state")
    tracer.wrap(cli_mod, "run_stats", "cli.run_stats")

    # fastgreedy
    heap_cls = getattr(fg_mod, "GlobalHeap", None)
    if heap_cls is None:
        tracer.absent.update({_PUSH, _POP_BEST})
    else:
        def count_push(_, __):
            tracer.count("fastgreedy.pushes")
            if tracer.innermost() == "fastgreedy.pop_best":
                tracer.count("fastgreedy.tie_repushes")

        tracer.wrap(heap_cls, "push", "fastgreedy.push", count_only=count_push)
        tracer.wrap(heap_cls, "pop_best", "fastgreedy.pop_best")

    heaps = []

    def init_after(_, result):
        heaps.append(result[1])

    def fastgreedy_after(_, __):
        while heaps:
            tracer.count("fastgreedy.final_heap_len", len(heaps.pop()))

    tracer.wrap(fg_mod, "init_fastgreedy", "fastgreedy.init", after=init_after)
    tracer.wrap(fg_mod, "join", "fastgreedy.join", after=lambda _, __: tracer.count("fastgreedy.joins"))
    for owner in (fg_mod, cli_mod):
        tracer.wrap(owner, "fastgreedy", "fastgreedy.fastgreedy", after=fastgreedy_after)

    # girvan_newman
    tracer.wrap(gn_mod, "edge_betweenness", "girvan_newman.edge_betweenness")
    for owner in (gn_mod, cli_mod):
        tracer.wrap(owner, "girvan_newman", "girvan_newman.girvan_newman",
                    after=lambda _, result: tracer.count("girvan_newman.removals", len(result[1])))
        tracer.wrap(owner, "girvan_newman_static", "girvan_newman.girvan_newman_static")

    # agglomerative
    tracer.wrap(agg_mod, "neighbor_matrix", "agglomerative.neighbor_matrix")
    tracer.wrap(agg_mod, "euclidean_distance", "agglomerative.distance", timer=True)
    tracer.wrap(agg_mod, "linkage_distance", "agglomerative.linkage", timer=True)
    for owner in (agg_mod, cli_mod):
        tracer.wrap(owner, "agglomerate", "agglomerative.agglomerate",
                    after=lambda _, result: tracer.count("agglomerative.merges", len(result.merges)))
        tracer.wrap(owner, "cut", "agglomerative.cut")

    # cli
    tracer.wrap(cli_mod, "load_dataset", "cli.load_dataset")


# Spans that count as "the algorithm" when opened directly under a CLI call.
_CLI_ALGORITHMS = {
    "louvain.louvain", "louvain.louvain.Exp", "fastgreedy.fastgreedy",
    "agglomerative.agglomerate", "agglomerative.cut",
    "girvan_newman.girvan_newman", "girvan_newman.girvan_newman_static",
}
CLI_SPAN = "cli.main"

# metric name -> hooks it needs; a metric whose hook is absent is not reported.
_NEEDS = {
    "graph.load_edge_list_s": ("commdetect.cli.load_edge_list",),
    "graph.modularity_calls": ("commdetect.louvain.modularity",),
    "graph.modularity_s": ("commdetect.louvain.modularity",),
    "graph.connected_components_s": ("commdetect.girvan_newman.connected_components",),
    "louvain.node_visits": ("commdetect.louvain.local_move_pass",),
    "louvain.moves": ("commdetect.louvain.local_move_pass",),
    "louvain.moves_per_visit": ("commdetect.louvain.local_move_pass",),
    "louvain.local_move_pass_s": ("commdetect.louvain.local_move_pass",),
    "louvain.levels": ("commdetect.louvain.aggregate",),
    "louvain.aggregate_s": ("commdetect.louvain.aggregate",),
    "louvain.community_state_s": ("commdetect.louvain.CommunityState",),
    "fastgreedy.joins": ("commdetect.fastgreedy.join",),
    "fastgreedy.init_s": ("commdetect.fastgreedy.init_fastgreedy",),
    "fastgreedy.heap_pushes_per_join": (_PUSH, "commdetect.fastgreedy.join"),
    "fastgreedy.heap_pops_per_join": (_PUSH, "commdetect.fastgreedy.join",
                                      "commdetect.fastgreedy.init_fastgreedy"),
    "fastgreedy.tie_repushes_per_join": (_PUSH, _POP_BEST, "commdetect.fastgreedy.join"),
    "fastgreedy.pop_best_s": (_POP_BEST,),
    "fastgreedy.join_s": ("commdetect.fastgreedy.join",),
    "girvan_newman.edge_betweenness_s": ("commdetect.girvan_newman.edge_betweenness",),
    "girvan_newman.rescore_s": ("commdetect.girvan_newman.edge_betweenness",),
    "girvan_newman.rescore_ms_per_removal": ("commdetect.girvan_newman.edge_betweenness",),
    "agglomerative.neighbor_matrix_s": ("commdetect.agglomerative.neighbor_matrix",),
    "agglomerative.distance_evals": ("commdetect.agglomerative.euclidean_distance",),
    "agglomerative.linkage_evals_per_merge": ("commdetect.agglomerative.linkage_distance",),
    "agglomerative.linkage_s": ("commdetect.agglomerative.linkage_distance",),
    "agglomerative.select_self_s": ("commdetect.agglomerative.linkage_distance",
                                    "commdetect.agglomerative.neighbor_matrix"),
    "cli.load_dataset_s": ("commdetect.cli.load_dataset",),
    "cli.self_s": ("commdetect.cli.load_dataset", "commdetect.cli.run_stats"),
    "cli.run_stats_s": ("commdetect.cli.run_stats",),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, bytes_written):
    """Per-layer values for one traced cycle, keyed by BENCHMARK.json name."""
    inclusive, self_s = tracer.totals()
    c = tracer.counts.get
    t = inclusive.get
    joins = c("fastgreedy.joins", 0)
    pushes = c("fastgreedy.pushes", 0)
    merges = c("agglomerative.merges", 0)
    removals = c("girvan_newman.removals", 0)
    visits = c("louvain.node_visits", 0)
    rescore_s = self_s.get("girvan_newman.girvan_newman", 0.0)
    values = {
        "graph.random_graph_s": t("graph.random_graph", 0.0),
        "graph.load_edge_list_s": t("graph.load_edge_list", 0.0),
        "graph.modularity_calls": c("graph.modularity_calls", 0),
        "graph.modularity_s": t("graph.modularity", 0.0),
        "graph.connected_components_s": t("graph.connected_components", 0.0),
        "louvain.levels": c("louvain.levels", 0),
        "louvain.passes": c("louvain.passes", 0),
        "louvain.node_visits": visits,
        "louvain.moves": c("louvain.moves", 0),
        "louvain.moves_per_visit": _ratio(c("louvain.moves", 0), visits),
        "louvain.local_move_pass_s": self_s.get("louvain.local_move_pass", 0.0),
        "louvain.aggregate_s": t("louvain.aggregate", 0.0),
        "louvain.community_state_s": t("louvain.community_state", 0.0),
        "louvain.exp_self_s": self_s.get("louvain.louvain.Exp", 0.0),
        "fastgreedy.joins": joins,
        "fastgreedy.init_s": t("fastgreedy.init", 0.0),
        "fastgreedy.heap_pushes_per_join": _ratio(pushes, joins),
        "fastgreedy.heap_pops_per_join": _ratio(pushes - c("fastgreedy.final_heap_len", 0), joins),
        "fastgreedy.tie_repushes_per_join": _ratio(c("fastgreedy.tie_repushes", 0), joins),
        "fastgreedy.pop_best_s": t("fastgreedy.pop_best", 0.0),
        "fastgreedy.join_s": t("fastgreedy.join", 0.0),
        "girvan_newman.removals": removals,
        "girvan_newman.edge_betweenness_s": t("girvan_newman.edge_betweenness", 0.0),
        "girvan_newman.rescore_s": rescore_s,
        "girvan_newman.rescore_ms_per_removal": _ratio(rescore_s * 1000.0, removals),
        "agglomerative.neighbor_matrix_s": t("agglomerative.neighbor_matrix", 0.0),
        "agglomerative.distance_evals": c("agglomerative.distance", 0),
        "agglomerative.linkage_evals_per_merge": _ratio(c("agglomerative.linkage", 0), merges),
        "agglomerative.linkage_s": tracer.timer_s.get("agglomerative.linkage", 0.0),
        "agglomerative.select_self_s": self_s.get("agglomerative.agglomerate", 0.0),
        "agglomerative.cut_s": t("agglomerative.cut", 0.0),
        "cli.load_dataset_s": t("cli.load_dataset", 0.0),
        "cli.algorithm_s": tracer.child_total({CLI_SPAN}, _CLI_ALGORITHMS),
        "cli.self_s": self_s.get(CLI_SPAN, 0.0),
        "cli.bytes_written": bytes_written,
        "cli.run_stats_s": t("cli.run_stats", 0.0),
    }
    missing = {name for name, hooks in _NEEDS.items() if tracer.absent.intersection(hooks)}
    return {name: value for name, value in values.items() if name not in missing}, sorted(missing)
