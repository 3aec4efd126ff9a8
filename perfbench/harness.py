"""Measurement loop, result assembly and output of the benchmark.

Imported by run.py once ./src is on the import path.
"""


import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import calibration
import tracing
import workloads
from checks import CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
SPANS_DIR = os.path.join(ROOT, ".perfbench-out")

_clock = time.perf_counter


def digest(content):
    text = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile_90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


class Run:
    """Executes and checks ops; collects timings, digests and failures."""

    def __init__(self, reference):
        self.reference = reference
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.frozen = None

    def call(self, op, tracer=None):
        """Run one op; returns (seconds, output) or None when it failed."""
        self.attempted += 1
        # Start every call with the same collector state; collections the
        # call itself triggers stay inside its time.
        gc.collect()
        try:
            with tracer.span(op.span) if tracer else contextlib.nullcontext():
                start = _clock()
                out = op.call()
                elapsed = _clock() - start
            key = digest(op.check(out))
        except Exception as exc:  # every failure is counted, the run goes on
            self._fail(f"{op.key}: {type(exc).__name__}: {exc}",
                       traceback.format_exc() if not isinstance(exc, CheckFailed) else None)
            return None
        expected = self.digests.setdefault(op.key, key)
        if expected != key:
            self._fail(f"{op.key}: output differs from an earlier call of the same configuration")
            return None
        if self.reference.get(op.key, key) != key:
            self._fail(f"{op.key}: output differs from the recorded reference")
            return None
        return elapsed, out

    def _fail(self, message, detail=None):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)
            print(f"perfbench: FAILED {message}", file=sys.stderr)
            if detail:
                print(detail, file=sys.stderr)

    def freeze_digest(self):
        """Fix the run digest to the configurations seen so far.

        Called after the minimum number of cycles, so the digest does not
        depend on how many cycles a faster or slower program fits in.
        """
        self.frozen = digest(sorted(self.digests.items()))


def _files_size(paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def run_cycle(run, ops, samples, tracer=None, calibrator=None):
    """Run one cycle's ops, adding each call metric's samples.

    With a calibrator, each call's time is rescaled to reference seconds
    by the loop times taken just before and after it.  Samples are
    (rescaled, raw) pairs.  Returns the raw and the rescaled seconds spent
    inside the calls (checks excluded) and the bytes the calls left in
    their output files.
    """
    grouped = {}
    written = 0
    busy = scaled_busy = 0.0
    for index, op in enumerate(ops):
        if calibrator:
            calibrator.maybe_measure()
            first = len(calibrator.samples) - 1
        result = run.call(op, tracer)
        written += _files_size(op.files)
        if result is None:
            continue
        raw, out = result
        scaled = raw
        if calibrator:
            calibrator.maybe_measure()
            scaled *= calibrator.factor(first)
        busy += raw
        scaled_busy += scaled
        if op.metric is None:
            continue
        if op.work is not None:
            work = op.work(out)
            scaled /= work
            raw /= work
        group = (op.metric, index if op.sample is None else op.sample)
        scaled_sum, raw_sum = grouped.get(group, (0.0, 0.0))
        grouped[group] = (scaled_sum + scaled, raw_sum + raw)
    for (metric, _), pair in grouped.items():
        samples.setdefault(metric, []).append(pair)
    return busy, scaled_busy, written


def _timed_setups(workload, seed, workdir, calibrator):
    setup_s = []
    for _ in range(workload.setup_reps):
        calibrator.measure()
        first = len(calibrator.samples) - 1
        start = _clock()
        inputs = workload.setup(seed, workdir)
        elapsed = _clock() - start
        calibrator.measure()
        setup_s.append(elapsed * calibrator.factor(first))
    return inputs, setup_s


def _traced_setup(workload, seed, workdir):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        inputs = workload.setup(seed, workdir)
    finally:
        tracer.restore()
    return inputs, tracer


def call_stats(workload, samples):
    """Per-call medians (or p90) of the workload's call metrics, rescaled and raw."""
    stats = {}
    for m in workload.metrics:
        pairs = samples.get(m.source, [])
        if pairs:
            stat = statistics.median if m.stat == "median" else percentile_90
            stats[m.name] = {"n": len(pairs), "value": stat([s for s, _ in pairs]) * m.scale,
                             "raw": stat([r for _, r in pairs]) * m.scale}
    return stats


def measure(workload, seed, seconds, trace, workdir, reference):
    run = Run(reference)
    calibrator = calibration.Calibrator()
    if trace:
        inputs, setup_tracer = _traced_setup(workload, seed, workdir)
    else:
        inputs, setup_s = _timed_setups(workload, seed, workdir, calibrator)

    for op in workload.warmup(inputs):
        run.call(op)

    samples = {}
    cycle_s = []
    layer_samples = {}
    overheads = []
    tracers = []
    absent = []
    # A traced run times each cycle twice; its per-layer medians need fewer.
    min_cycles = min(workload.min_cycles, 3) if trace else workload.min_cycles
    deadline = _clock() + seconds
    j = 0
    while j < min_cycles or _clock() < deadline:
        busy, scaled_busy, _ = run_cycle(run, workload.cycle(inputs, j), samples,
                                         calibrator=calibrator)
        cycle_s.append(scaled_busy)
        if trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                traced, _, written = run_cycle(run, workload.cycle(inputs, j), {}, tracer)
            finally:
                tracer.restore()
            values, absent = tracing.layer_metrics(tracer, written)
            for name, value in values.items():
                layer_samples.setdefault(name, []).append(value)
            overheads.append((traced - busy, busy))
            tracers.append(tracer)
        j += 1
        if j == min_cycles:
            run.freeze_digest()

    calls = call_stats(workload, samples)
    report = {"cycles": j, "run": run, "calls": calls,
              "calibration_s": statistics.median(calibrator.samples)}
    if not trace:
        report["metrics"] = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "cycle_s": {"value": statistics.median(cycle_s), "unit": "s"},
        }
        return report
    values = {name: statistics.median(v) for name, v in layer_samples.items()}
    values["graph.random_graph_s"] = (values.get("graph.random_graph_s", 0.0)
                                      + tracing.layer_metrics(setup_tracer, 0)[0]["graph.random_graph_s"])
    # Per-call medians from the untraced cycles; 0 for calls of other workloads.
    for m in workloads.call_metrics():
        values[m.name] = calls[m.name]["value"] if m.name in calls else 0.0
    values["trace.overhead_s"] = statistics.median(o for o, _ in overheads)
    values["trace.overhead_share"] = statistics.median(o / b for o, b in overheads)
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    report["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    report["absent"] = absent
    report["spans"] = (setup_tracer, tracers)
    return report


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def environment():
    def git_commit():
        if not os.path.exists(os.path.join(ROOT, ".git")):
            return None
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() or None if out.returncode == 0 else None

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": os.getloadavg() if hasattr(os, "getloadavg") else None,
        "commit": git_commit(),
    }


def _write_spans(workload, seed, report):
    os.makedirs(SPANS_DIR, exist_ok=True)
    setup_tracer, tracers = report["spans"]
    path = os.path.join(SPANS_DIR, f"spans-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "timer_covered_s"],
                   "setup": setup_tracer.spans,
                   "cycles": [t.spans for t in tracers],
                   "timers": [t.timer_s for t in tracers],
                   "counts": [t.counts for t in tracers]}, handle)
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description="commdetect benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.smoke)
    ref_key = f"{args.workload}/seed={args.seed}"
    references = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as handle:
            references = json.load(handle)
    reference = {} if args.smoke or args.record_reference else references.get(ref_key, {})

    env = environment()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        report = measure(workload, args.seed, args.seconds, args.trace, workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg() if hasattr(os, "getloadavg") else None
    run = report["run"]

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"digest {args.workload} seed={args.seed} smoke={int(args.smoke)} {run.frozen}"
          + ("" if reference else " (no recorded reference for this seed)"))
    print(f"cycles {report['cycles']}, per-call medians (n, rescaled value, raw value) "
          + json.dumps(report["calls"], sort_keys=True))
    print(f"calibration loop median {report['calibration_s']:.6f} s, "
          f"reference {calibration.REFERENCE_S} s")
    if args.trace:
        print("spans " + _write_spans(args.workload, args.seed, report))
        print("absent " + json.dumps(report["absent"]))
    if args.record_reference and not args.smoke and run.failed == 0:
        references[ref_key] = dict(sorted(run.digests.items()))
        with open(REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(dict(sorted(references.items())), handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": report["metrics"],
    }))
    return 0
