"""tools/ladder.py: it times two source trees pair by pair, by default
this checkout against itself."""

import json
import sys
from pathlib import Path

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


@pytest.mark.parametrize("argv", [["--only", "no such cell"], ["--against", "no/such/dir"]])
def test_bad_arguments_are_refused(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        ladder.main([*argv, "--out", str(tmp_path / "bench.json")])
    assert exc.value.code == 2
