"""End-to-end tests of the command-line interface."""

import csv
import json
import re
import time

import pytest

from commdetect import cli
from commdetect.cli import main

import identity


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def test_run_louvain_karate(tmp_path, capsys):
    out = tmp_path / "part.json"
    code = run_cli(
        "run", "--algorithm", "louvain", "--dataset", "karate",
        "--variant", "normal", "--seed", "7", "--out", str(out),
    )
    assert code == 0
    payload = read_json(out)
    assert payload.keys() == {"labels", "num_communities", "modularity"}
    assert len(payload["labels"]) == 34
    assert payload["num_communities"] == len(set(payload["labels"]))
    assert -0.5 < payload["modularity"] <= 1.0
    printed = capsys.readouterr().out
    assert f"communities: {payload['num_communities']}" in printed
    assert "q: " in printed


def test_run_is_byte_reproducible(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        assert run_cli(
            "run", "--algorithm", "louvain", "--dataset", "karate",
            "--variant", "normal", "--seed", "3", "--out", str(out),
        ) == 0
    assert first.read_bytes() == second.read_bytes()


def test_run_agglomerative_writes_dendrogram(tmp_path):
    out = tmp_path / "agg.json"
    code = run_cli(
        "run", "--algorithm", "agglomerative", "--dataset", "karate",
        "--linkage", "complete", "--self-neighboring",
        "--hsl-mode", "relative", "--hsl-value", "0.3", "--out", str(out),
    )
    assert code == 0
    records = read_json(tmp_path / "agg.dendrogram.json")
    assert len(records) == 33
    assert records[0].keys() == {"left", "right", "merged", "distance", "step"}
    part = read_json(out)
    assert len(part["labels"]) == 34

    # without self-neighboring the rel=0.3 cut has at least as many clusters
    plain_out = tmp_path / "plain.json"
    assert run_cli(
        "run", "--algorithm", "agglomerative", "--dataset", "karate",
        "--linkage", "complete",
        "--hsl-mode", "relative", "--hsl-value", "0.3", "--out", str(plain_out),
    ) == 0
    assert part["num_communities"] <= read_json(plain_out)["num_communities"]


def test_run_girvan_newman_writes_cuts(tmp_path):
    out = tmp_path / "gn.json"
    code = run_cli(
        "run", "--algorithm", "girvan-newman", "--dataset", "karate",
        "--target-communities", "8", "--out", str(out),
    )
    assert code == 0
    assert read_json(out)["num_communities"] == 8
    cuts = read_json(tmp_path / "gn.cuts.json")
    assert all(len(row) == 3 for row in cuts)
    u, v, score = cuts[0]
    assert isinstance(u, int) and isinstance(v, int) and score > 0


def test_run_fastgreedy_writes_trace(tmp_path):
    out = tmp_path / "fg.json"
    code = run_cli(
        "run", "--algorithm", "fastgreedy", "--dataset", "karate",
        "--out", str(out),
    )
    assert code == 0
    trace = read_json(tmp_path / "fg.trace.json")
    assert len(trace) == 33
    assert trace[0][0] == 1 and trace[-1][0] == 33
    assert trace[-1][2] == 1
    assert read_json(out)["num_communities"] == 3
    assert len(read_json(tmp_path / "fg.dendrogram.json")) == 33


def test_run_rejects_foreign_and_missing_parameters(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = run_cli(
        "run", "--algorithm", "louvain", "--dataset", "karate",
        "--variant", "normal", "--linkage", "single", "--out", str(out),
    )
    assert code == 1
    assert "--linkage is not a parameter of louvain" in capsys.readouterr().err
    assert not out.exists()

    code = run_cli(
        "run", "--algorithm", "agglomerative", "--dataset", "karate",
        "--hsl-mode", "relative", "--hsl-value", "0.3", "--out", str(out),
    )
    assert code == 1
    assert "requires --linkage" in capsys.readouterr().err
    assert not out.exists()

    code = run_cli(
        "run", "--algorithm", "girvan-newman", "--dataset", "karate",
        "--out", str(out),
    )
    assert code == 1
    assert "requires --target-communities" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_run_rejects_non_finite_absolute_cut(tmp_path, capsys, value):
    out = tmp_path / "x.json"
    assert run_cli(
        "run", "--algorithm", "agglomerative", "--dataset", "karate",
        "--linkage", "average", "--hsl-mode", "absolute", "--hsl-value", value,
        "--out", str(out),
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: absolute cut value") and f"got {value}" in err
    assert not out.exists()


def test_run_rejects_nan_relative_cut(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run_cli(
        "run", "--algorithm", "agglomerative", "--dataset", "karate",
        "--linkage", "average", "--hsl-mode", "relative", "--hsl-value", "nan",
        "--out", str(out),
    ) == 1
    assert capsys.readouterr().err == "error: relative cut value must lie in [0, 1], got nan\n"
    assert not out.exists()


def test_run_rejects_bad_datasets(tmp_path, capsys):
    out = tmp_path / "x.json"
    for dataset in ("random:8", "random:a,b,c", "nope", "edgelist:/missing/f.txt"):
        assert run_cli(
            "run", "--algorithm", "fastgreedy", "--dataset", dataset,
            "--out", str(out),
        ) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


def test_random_dataset_refuses_digit_separators_and_non_ascii_digits(tmp_path, capsys):
    # int() and float() accept '_' separators and non-ASCII digits; load_edge_list refuses both.
    out = tmp_path / "x.json"
    for dataset in ("random:1_0,0.5,1", "random:\u0661\u0660,0.5,1", "random:10,0.5,1_0", "random:10,0.\u0665,1"):
        with pytest.raises(cli.CliError, match=re.escape(f"random dataset {dataset!r}: n, p and seed must be ASCII")):
            cli.load_dataset(dataset)
        assert run_cli("run", "--algorithm", "fastgreedy", "--dataset", dataset, "--out", str(out)) == 1
        assert f"{dataset!r}" in capsys.readouterr().err
        assert not out.exists()


def test_run_rejects_oversized_random_dataset(tmp_path, capsys):
    out = tmp_path / "x.json"
    start = time.perf_counter()
    assert run_cli(
        "run", "--algorithm", "louvain", "--dataset", "random:100000,0.0001,1",
        "--variant", "Exp", "--out", str(out),
    ) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "'random:100000,0.0001,1'" in err and "4999950000 node pairs" in err
    assert not out.exists()


def test_run_reports_an_algorithm_error_and_writes_nothing(tmp_path, capsys):
    # The graph loads, but modularity optimization refuses it, and
    # run_command turns that ValueError into the command's error.
    out = tmp_path / "x.json"
    assert run_cli(
        "run", "--algorithm", "louvain", "--variant", "normal",
        "--dataset", "random:5,0,1", "--out", str(out),
    ) == 1
    assert capsys.readouterr().err == "error: modularity optimization needs at least one edge\n"
    assert not out.exists()


def test_run_rejects_edge_list_ids_past_the_limit(tmp_path, capsys):
    # The id is refused while the file is read, so the error names its
    # line rather than the weight that girvan-newman would refuse only
    # once a graph of 10**7 nodes had been built.
    listing = tmp_path / "far.edgelist"
    listing.write_text(f"0 1\n1 {10**7} 2\n", encoding="utf-8")
    out = tmp_path / "x.json"
    assert run_cli(
        "run", "--algorithm", "girvan-newman", "--target-communities", "2",
        "--dataset", f"edgelist:{listing}", "--out", str(out),
    ) == 1
    assert "line 2: node ids must lie in 0..9999999" in capsys.readouterr().err
    assert not out.exists()


def test_random_dataset_size_limit_boundary(monkeypatch):
    # 10000 nodes is 49 995 000 pairs, just inside the 5e7 limit
    monkeypatch.setattr(cli, "random_graph", lambda n, p, seed: (n, p, seed))
    assert cli.load_dataset("random:10000,0.001,1") == (10000, 0.001, 1)
    assert cli.load_dataset("random:8000,0.001,2") == (8000, 0.001, 2)
    with pytest.raises(cli.CliError, match="random:10001,0.001,1"):
        cli.load_dataset("random:10001,0.001,1")
    # 2000 nodes at p = 0.5 expect 999 500 edges, just inside the 1e6 limit
    assert cli.load_dataset("random:2000,0.5,1") == (2000, 0.5, 1)


def test_random_dataset_refuses_too_many_expected_edges(monkeypatch):
    # a p above 1 is named as such, not as an edge count
    with pytest.raises(cli.CliError, match=re.escape("edge probability must be a number in [0, 1], got 2.0")):
        cli.load_dataset("random:2000,2,1")

    # 49 995 000 pairs pass the pair limit, but at p = 1 each is an edge
    def build(n, p, seed):
        raise AssertionError("random_graph was called")

    monkeypatch.setattr(cli, "random_graph", build)
    for dataset, expected in (("random:10000,1,1", 49995000), ("random:2000,0.5006,1", 1000699)):
        with pytest.raises(cli.CliError, match=re.escape(
                f"random dataset {dataset!r} expects {expected} edges; the limit is 1000000")):
            cli.load_dataset(dataset)


def test_run_random_and_edgelist_datasets(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(
        "run", "--algorithm", "louvain", "--dataset", "random:12,0.5,3",
        "--variant", "Exp", "--out", str(out),
    ) == 0
    assert len(read_json(out)["labels"]) == 12

    listing = tmp_path / "tiny.edgelist"
    listing.write_text("0 1\n1 2\n2 0\n", encoding="utf-8")
    assert run_cli(
        "run", "--algorithm", "fastgreedy", "--dataset", f"edgelist:{listing}",
        "--out", str(out),
    ) == 0
    assert len(read_json(out)["labels"]) == 3


def test_hop_count_algorithms_reject_weighted_datasets(tmp_path, capsys):
    # 4-cycle with weights 100/0.01: hop-count algorithms would cut the
    # heavy edge (0, 1) first, so they refuse the graph instead.
    listing = tmp_path / "weighted.edgelist"
    listing.write_text("0 1 100\n1 2 0.01\n2 3 100\n3 0 0.01\n", encoding="utf-8")
    dataset = f"edgelist:{listing}"
    out = tmp_path / "w.json"
    params = {
        "agglomerative": ["--linkage", "average", "--hsl-mode", "relative", "--hsl-value", "0.5"],
        "girvan-newman": ["--target-communities", "2"],
        "girvan-newman-static": ["--target-communities", "2"],
    }
    for algorithm, extra in params.items():
        for command in ("run", "bench"):
            assert run_cli(
                command, "--algorithm", algorithm, "--dataset", dataset, *extra,
                "--out", str(out),
            ) == 1
            err = capsys.readouterr().err
            assert algorithm in err and "edge (0, 1) has weight 100.0" in err
            assert not out.exists()
    for algorithm in ("louvain", "fastgreedy"):
        extra = ["--variant", "Exp"] if algorithm == "louvain" else []
        assert run_cli(
            "run", "--algorithm", algorithm, "--dataset", dataset, *extra, "--out", str(out),
        ) == 0

    listing.write_text("0 1 1\n1 2 1.0\n2 3\n3 0\n", encoding="utf-8")
    assert run_cli(
        "run", "--algorithm", "girvan-newman", "--dataset", dataset,
        "--target-communities", "2", "--out", str(out),
    ) == 0


def test_failed_write_leaves_no_partial_files(tmp_path, capsys):
    out = tmp_path / "part.json"
    # the derived dendrogram path is blocked by a directory, so the write
    # fails after the partition file went out; nothing may remain
    (tmp_path / "part.dendrogram.json").mkdir()
    code = run_cli(
        "run", "--algorithm", "agglomerative", "--dataset", "karate",
        "--linkage", "single", "--hsl-mode", "relative", "--hsl-value", "0.5",
        "--out", str(out),
    )
    assert code == 1
    assert "cannot write output" in capsys.readouterr().err
    assert not out.exists()


def test_bench_louvain_all_variants(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = run_cli(
        "bench", "--dataset", "karate", "--runs", "2", "--out", str(out),
    )
    assert code == 0
    report = read_json(out)
    assert report.keys() == {"environment", "records"}
    assert [r["variant"] for r in report["records"]] == [
        "normal", "total", "noMerge", "totalNoMerge", "Exp",
    ]
    for record in report["records"]:
        assert record.keys() == {
            "variant", "runs", "q_values", "max", "min", "mean",
            "mean_runtime_ms", "min_runtime_ms", "median_runtime_ms",
        }
        assert record["runs"] == 2
        assert len(record["q_values"]) == 2
        assert record["max"] >= record["mean"] >= record["min"]
    exp = report["records"][-1]
    assert exp["max"] == exp["min"]
    table = capsys.readouterr().out
    for column in ("Version", "Max. Score", "Min Score", "Avg. runtime (ms)"):
        assert column in table


def test_bench_variant_subset_and_validation(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert run_cli(
        "bench", "--dataset", "karate", "--variant", "normal,Exp",
        "--runs", "2", "--out", str(out),
    ) == 0
    assert [r["variant"] for r in read_json(out)["records"]] == ["normal", "Exp"]

    assert run_cli(
        "bench", "--dataset", "karate", "--variant", "bogus",
        "--runs", "1", "--out", str(out),
    ) == 1
    assert "unknown variant" in capsys.readouterr().err

    assert run_cli(
        "bench", "--dataset", "karate", "--target-communities", "3",
        "--runs", "1", "--out", str(out),
    ) == 1
    assert "not a parameter of louvain" in capsys.readouterr().err

    assert run_cli(
        "bench", "--dataset", "karate", "--runs", "0", "--out", str(out),
    ) == 1
    assert "--runs" in capsys.readouterr().err


def test_bench_library_call_checks_its_variants_as_the_command_does(karate):
    # The library function runs no variant twice and names what it refuses.
    with pytest.raises(cli.CliError, match="variant 'normal' is repeated"):
        cli.bench(karate, "louvain", ["normal", "normal"], 1, 0)
    with pytest.raises(cli.CliError, match="unknown variant 'bogus'"):
        cli.bench(karate, "louvain", ["normal", "bogus"], 1, 0)
    with pytest.raises(cli.CliError, match="--variant is not a parameter of fastgreedy"):
        cli.bench(karate, "fastgreedy", ["normal"], 1, 0)
    with pytest.raises(cli.CliError, match=re.escape("unknown algorithm 'nope'")):
        cli.bench(karate, "nope", ["x"], 1, 0)


def test_bench_other_algorithms(tmp_path):
    out = tmp_path / "bench.json"
    assert run_cli(
        "bench", "--algorithm", "girvan-newman", "--dataset", "karate",
        "--target-communities", "4", "--runs", "2", "--out", str(out),
    ) == 0
    record = read_json(out)["records"][0]
    assert record["variant"] == "girvan-newman"
    assert record["q_values"][0] == record["q_values"][1]

    assert run_cli(
        "bench", "--algorithm", "agglomerative", "--dataset", "karate",
        "--linkage", "average", "--hsl-mode", "relative", "--hsl-value", "0.4",
        "--runs", "1", "--out", str(out),
    ) == 0
    assert run_cli(
        "bench", "--algorithm", "fastgreedy", "--dataset", "karate",
        "--runs", "2", "--out", str(out),
    ) == 0

    assert run_cli(
        "bench", "--algorithm", "fastgreedy", "--dataset", "karate",
        "--variant", "normal", "--runs", "1", "--out", str(out),
    ) == 1


# The parameters every algorithm needs, and the flags each one accepts.
_REQUIRED_ARGS = {
    "agglomerative": ["--linkage", "average", "--hsl-mode", "relative", "--hsl-value", "0.3"],
    "girvan-newman": ["--target-communities", "8"],
    "girvan-newman-static": ["--target-communities", "8"],
    "louvain": ["--variant", "normal"],
    "fastgreedy": [],
}
_ACCEPTED = {
    "agglomerative": {"--linkage", "--self-neighboring", "--hsl-mode", "--hsl-value"},
    "girvan-newman": {"--target-communities"},
    "girvan-newman-static": {"--target-communities"},
    "louvain": {"--variant", "--seed"},
    "fastgreedy": set(),
}
_FLAG_ARGS = {
    "--linkage": ["--linkage", "single"],
    "--self-neighboring": ["--self-neighboring"],
    "--hsl-mode": ["--hsl-mode", "absolute"],
    "--hsl-value": ["--hsl-value", "2"],
    "--target-communities": ["--target-communities", "3"],
    "--variant": ["--variant", "Exp"],
    "--seed": ["--seed", "4"],
}


# The goldens check their records in the identity manifest (identity.py):
# stdout and every output file of each command on karate, bench reports
# without runtimes, and of fastgreedy on a graph of 20 components.
def test_cli_outputs_golden_on_karate():
    identity.check("commands", "karate")


def test_fastgreedy_outputs_golden_on_a_disconnected_graph():
    identity.check("commands", "random:60,0.02,1")


def test_parameters_are_checked_before_the_dataset_is_built(tmp_path, monkeypatch, capsys):
    def no_dataset(spec):
        raise AssertionError(f"dataset {spec!r} built before the parameters were checked")

    monkeypatch.setattr(cli, "load_dataset", no_dataset)
    out = tmp_path / "x.json"
    cases = [
        (["run", "--algorithm", "louvain", "--variant", "bogus"], "unknown variant 'bogus'"),
        (["bench", "--variant", "normal,bogus"], "unknown variant 'bogus'"),
        (["bench", "--variant", "normal,total,normal"], "variant 'normal' is repeated in --variant"),
        (["run", "--algorithm", "louvain", "--variant", "Exp", "--linkage", "single"],
         "--linkage is not a parameter of louvain"),
        (["bench", "--target-communities", "3"], "--target-communities is not a parameter of louvain"),
        (["run", "--algorithm", "fastgreedy", "--seed", "1"], "--seed is not a parameter of fastgreedy"),
        (["bench", "--algorithm", "fastgreedy", "--variant", "normal"],
         "--variant is not a parameter of fastgreedy"),
        (["bench", "--algorithm", "girvan-newman"], "girvan-newman requires --target-communities"),
        (["run", "--algorithm", "agglomerative", "--linkage", "single",
          "--hsl-mode", "relative", "--hsl-value", "1.5"], "relative cut value must lie in [0, 1]"),
    ]
    for argv, message in cases:
        assert run_cli(*argv, "--dataset", "random:10000,0.001,1", "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("algorithm", sorted(_ACCEPTED))
def test_every_algorithm_rejects_the_flags_it_does_not_accept(algorithm, tmp_path, capsys):
    out = tmp_path / "x.json"
    for command in ("run", "bench"):
        for flag, args in _FLAG_ARGS.items():
            # bench's --seed is the base seed of every algorithm's runs
            if flag in _ACCEPTED[algorithm] or (command, flag) == ("bench", "--seed"):
                continue
            assert run_cli(
                command, "--algorithm", algorithm, "--dataset", "karate",
                *_REQUIRED_ARGS[algorithm], *args, "--out", str(out),
            ) == 1, (command, flag)
            assert f"{flag} is not a parameter of {algorithm}" in capsys.readouterr().err
            assert not out.exists()


def test_algorithms_are_called_through_the_cli_module_globals(tmp_path, monkeypatch):
    # perfbench wraps these names on commdetect.cli to time and count the
    # algorithm calls of `run` and `bench`
    calls = []
    for name in ("agglomerate", "cut", "girvan_newman", "girvan_newman_static", "louvain", "fastgreedy"):
        def spy(*args, _name=name, _real=getattr(cli, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(cli, name, spy)
    for algorithm, extra in _REQUIRED_ARGS.items():
        for command in ("run", "bench"):
            assert run_cli(
                command, "--algorithm", algorithm, "--dataset", "karate", *extra,
                "--out", str(tmp_path / "x.json"),
            ) == 0
    assert calls == [
        "agglomerate", "cut", "agglomerate", "cut",
        "girvan_newman", "girvan_newman", "girvan_newman_static", "girvan_newman_static",
        "louvain", "louvain", "fastgreedy", "fastgreedy",
    ]


def test_edgeless_graphs(tmp_path, capsys):
    out = tmp_path / "x.json"
    for algorithm, extra in _REQUIRED_ARGS.items():
        if algorithm.startswith("girvan-newman"):
            extra = ["--target-communities", "3"]  # at most the 5 nodes
        assert run_cli(
            "bench", "--algorithm", algorithm, "--dataset", "random:5,0,1",
            *extra, "--out", str(out),
        ) == 1, algorithm
        err = capsys.readouterr().err
        assert err.startswith("error:") and "edge" in err
        assert not out.exists()

    # `run` writes the partition of a divisive or agglomerative run with no Q
    assert run_cli(
        "run", "--algorithm", "girvan-newman", "--dataset", "random:5,0,1",
        "--target-communities", "3", "--out", str(out),
    ) == 0
    assert read_json(out) == {"labels": [0, 1, 2, 3, 4], "num_communities": 5, "modularity": None}


def test_plot_data_from_report(tmp_path):
    report = tmp_path / "report.json"
    out = tmp_path / "plot.csv"
    assert run_cli(
        "bench", "--dataset", "karate", "--variant", "normal,Exp",
        "--runs", "3", "--out", str(report),
    ) == 0
    assert run_cli("plot-data", str(report), "--out", str(out)) == 0
    rows = read_csv(out)
    assert rows[0] == ["variant", "run_index", "q"]
    assert len(rows) == 1 + 6
    assert {row[0] for row in rows[1:]} == {"normal", "Exp"}
    assert [row[1] for row in rows[1:4]] == ["0", "1", "2"]


def test_plot_data_from_trace_and_empty_report(tmp_path):
    trace_out = tmp_path / "fg.json"
    assert run_cli(
        "run", "--algorithm", "fastgreedy", "--dataset", "karate",
        "--out", str(trace_out),
    ) == 0
    out = tmp_path / "trace.csv"
    assert run_cli(
        "plot-data", str(tmp_path / "fg.trace.json"), "--out", str(out),
    ) == 0
    rows = read_csv(out)
    assert rows[0] == ["step", "q", "num_communities"]
    assert len(rows) == 1 + 33

    empty = tmp_path / "empty.json"
    empty.write_text('{"records": []}', encoding="utf-8")
    assert run_cli("plot-data", str(empty), "--out", str(out)) == 0
    assert out.read_bytes() == b"variant,run_index,q\r\n"


def test_plot_data_rejects_bad_input(tmp_path, capsys):
    out = tmp_path / "plot.csv"
    assert run_cli("plot-data", str(tmp_path / "missing.json"), "--out", str(out)) == 1
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    for data in (b"{not json", b"\xff\xfe"):
        bad.write_bytes(data)
        assert run_cli("plot-data", str(bad), "--out", str(out)) == 1
        assert "not valid JSON" in capsys.readouterr().err

    neither = tmp_path / "neither.json"
    neither.write_text('{"x": 1}', encoding="utf-8")
    assert run_cli("plot-data", str(neither), "--out", str(out)) == 1
    assert "neither" in capsys.readouterr().err

    malformed = tmp_path / "malformed.json"
    for text, message in (
        ("[1, 2, 3]", "bad trace row 1"),
        ("[[1, 0.5, 33], [2, 0.6]]", "bad trace row [2, 0.6]"),
        ('{"records": [{"variant": "x"}]}', "bad report record {'variant': 'x'}"),
        ('{"records": [{"q_values": [0.5]}]}', "bad report record {'q_values': [0.5]}"),
        ('{"records": 3}', "neither a bench report nor a trace"),
    ):
        malformed.write_text(text, encoding="utf-8")
        assert run_cli("plot-data", str(malformed), "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_argparse_level_errors_exit_nonzero(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--algorithm", "sorting", "--dataset", "karate",
              "--out", str(tmp_path / "x.json")])
    with pytest.raises(SystemExit):
        main(["run", "--algorithm", "louvain", "--dataset", "karate"])
    with pytest.raises(SystemExit):
        main([])
