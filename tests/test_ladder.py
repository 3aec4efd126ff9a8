"""tools/ladder.py: it times two source trees pair by pair, by default
this checkout against itself."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import ladder  # noqa: E402

CELL = "fastgreedy - - random:500,"


def test_against_the_same_tree_pairs_equal_digests(tmp_path, monkeypatch):
    monkeypatch.setattr(ladder, "PAIRS", 2)
    out = tmp_path / "bench.json"
    assert ladder.main(["--against", str(ROOT), "--only", CELL, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pairs"] == 2
    [cell] = report["cells"]
    assert cell["cell"] == "fastgreedy - - random:500,0.016,1" and cell["in_manifest"]
    assert cell["parent"]["digest"] == cell["change"]["digest"]
    assert len(cell["ratios"]) == 2 and 0 <= cell["change_wins"] <= 2
    assert cell["joins"] == 499
    assert cell["r"] == 20


def test_a_side_reports_the_fastest_of_its_r_calls(monkeypatch, capsys):
    [index] = [k for k, (key, *_) in enumerate(ladder.CELLS) if key.startswith(CELL)]
    key, n, p, run, _ = ladder.CELLS[index]
    calls = []

    def counted(g):
        calls.append(g)
        return run(g)

    cells = list(ladder.CELLS)
    cells[index] = key, n, p, counted, 3
    monkeypatch.setattr(ladder, "CELLS", cells)
    # The three calls take 0.5, 0.2 and 0.4 s by this clock.
    ticks = iter([0.0, 0.5, 1.0, 1.2, 2.0, 2.4])
    monkeypatch.setattr(ladder, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    ladder.child(index)
    side = json.loads(capsys.readouterr().out)
    assert len(calls) == 3 and side["s"] == pytest.approx(0.2)
    recorded = dict(line.split("\t") for line in ladder.MANIFEST.read_text().splitlines())
    assert side["digest"] == recorded[key] and side["stats"]["joins"] == 499


def test_only_may_be_repeated(tmp_path, monkeypatch):
    monkeypatch.setattr(ladder, "PAIRS", 1)
    out = tmp_path / "bench.json"
    assert ladder.main(["--only", CELL, "--only", "louvain Exp 0 random:500,", "--out", str(out)]) == 0
    cells = json.loads(out.read_text())["cells"]
    assert [cell["cell"] for cell in cells] == ["louvain Exp 0 random:500,0.016,1", "fastgreedy - - random:500,0.016,1"]
    assert [cell["r"] for cell in cells] == [50, 20]


def test_without_against_the_checkout_runs_against_itself(tmp_path, monkeypatch):
    monkeypatch.setattr(ladder, "PAIRS", 2)
    out = tmp_path / "bench.json"
    assert ladder.main(["--only", CELL, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pairs"] == 2 and "calibration" not in report
    [cell] = report["cells"]
    assert cell["parent"]["digest"] == cell["change"]["digest"]


def test_against_a_tree_with_other_outputs_exits_1(tmp_path, monkeypatch):
    monkeypatch.setattr(ladder, "PAIRS", 1)
    # A parent whose fastgreedy gives another dendrogram: its digest differs.
    fake = tmp_path / "parent"
    package = fake / "src" / "commdetect"
    package.mkdir(parents=True)
    for source in (ROOT / "src" / "commdetect").glob("*.py"):
        (package / source.name).write_text(source.read_text())
    fastgreedy = package / "fastgreedy.py"
    fastgreedy.write_text(fastgreedy.read_text().replace("best_q = q\n", "best_q = q + 1.0\n", 1))
    out = tmp_path / "bench.json"
    assert ladder.main(["--against", str(fake), "--only", CELL, "--out", str(out)]) == 1
    [cell] = json.loads(out.read_text())["cells"]
    assert cell["parent"]["digest"] != cell["change"]["digest"]


@pytest.mark.parametrize("argv", [["--only", "no such cell"], ["--against", "no/such/dir"],
                                  ["--only", CELL, "--only", "no such cell"]])
def test_bad_arguments_are_refused(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        ladder.main([*argv, "--out", str(tmp_path / "bench.json")])
    assert exc.value.code == 2
