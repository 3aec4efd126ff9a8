"""Tests of the benchmark itself, on its --smoke inputs.

Run from the repository root:  python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from importlib import import_module

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith(f"digest {workload} seed=3 ") for line in proc.stdout.splitlines())


def _smoke_run(name, reference=None, tmp_path=None):
    workload = workloads.WORKLOADS[name](smoke=True)
    return harness.measure(workload, 1, 0, 0, str(tmp_path), reference or {})["run"]


def test_tampered_q_counts_as_failure(monkeypatch, tmp_path):
    lv_mod = import_module("commdetect.louvain")
    real = lv_mod.louvain

    def tampered(g, variant, seed=0):
        part, q, passes = real(g, variant, seed)
        return part, q + 1e-6, passes

    monkeypatch.setattr(lv_mod, "louvain", tampered)
    run = _smoke_run("modopt-sparse2k", tmp_path=tmp_path)
    assert run.failed > 0 and run.attempted > run.failed
    assert any("differs from recomputed" in e for e in run.errors)


def test_tampered_cli_output_counts_as_failure(monkeypatch, tmp_path):
    cli_mod = import_module("commdetect.cli")
    real = cli_mod._dump

    def tampered(payload):
        if isinstance(payload, dict) and "labels" in payload:
            payload = dict(payload, labels=list(reversed(payload["labels"])))
        return real(payload)

    monkeypatch.setattr(cli_mod, "_dump", tampered)
    run = _smoke_run("cli-small", tmp_path=tmp_path)
    assert run.failed > 0


def test_reference_mismatch_counts_as_failure(tmp_path):
    run = _smoke_run("hier-cubic100", {"girvan_newman": "0" * 64}, tmp_path)
    assert run.failed > 0
    assert all("girvan_newman" in e for e in run.errors)


def test_tracer_restores_every_name_and_reports_missing_hooks(monkeypatch):
    fg_mod = import_module("commdetect.fastgreedy")
    lv_mod = import_module("commdetect.louvain")
    before = (lv_mod.local_move_pass, lv_mod.CommunityState, fg_mod.GlobalHeap.push)
    monkeypatch.delattr(fg_mod, "GlobalHeap")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert lv_mod.local_move_pass is not before[0]
    tracer.restore()
    monkeypatch.undo()
    assert (lv_mod.local_move_pass, lv_mod.CommunityState, fg_mod.GlobalHeap.push) == before
    values, absent = tracing.layer_metrics(tracer, 0)
    assert "fastgreedy.pop_best_s" in absent and "fastgreedy.pop_best_s" not in values
    assert "fastgreedy.join_s" in values


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [["parent", 0.0, 10.0, -1, 1.0], ["child", 2.0, 5.0, 0, 0.0]]
    inclusive, self_s = tracer.totals()
    assert inclusive == {"parent": 10.0, "child": 3.0}
    assert self_s == {"parent": 6.0, "child": 3.0}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "cli-small", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
