"""CLI at tiny size: the documented path synth -> run -> evaluate -> ingest,
exit codes, and the subcommands that must reproduce a run's outputs."""

import json
import os

import numpy as np
import pytest

from tmcf.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from tmcf.dataset import load_tm_series
from tmcf.pipeline import RunConfig, compare

TRAIN_FLAGS = ["--epochs", "2", "--profile", "desk"]


def synth_trace(tmp_path) -> str:
    synth_dir = str(tmp_path / "synth")
    assert main([
        "synth", "--nodes", "4", "--steps", "400", "--seed", "5",
        "--group", "8:24:1.0:0.1:sine", "--group", "8:7:1.0:0.1:square",
        "--out-dir", synth_dir,
    ]) == EXIT_OK
    return os.path.join(synth_dir, "trace.csv")


def run_k2(trace, run_dir, *flags):
    argv = ["run", "--trace", trace, "--out-dir", run_dir, "--k", "2", *flags]
    assert main(argv + TRAIN_FLAGS) == EXIT_OK


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_synth_run_evaluate_ingest(tmp_path):
    synth_dir = str(tmp_path / "synth")
    run_dir = str(tmp_path / "run")
    eval_dir = str(tmp_path / "eval")
    trace = os.path.join(synth_dir, "trace.csv")

    assert main([
        "synth", "--nodes", "4", "--steps", "400", "--seed", "5",
        "--group", "8:24:1.0:0.1:sine", "--group", "8:7:1.0:0.1:square",
        "--out-dir", synth_dir,
    ]) == EXIT_OK

    assert main(["run", "--trace", trace, "--out-dir", run_dir, "--k", "2"] + TRAIN_FLAGS) == EXIT_OK
    for artifact in ("eval_report.json", "partition.json", "models"):
        assert os.path.exists(os.path.join(run_dir, artifact)), artifact

    assert main([
        "evaluate", "--trace", trace,
        "--partition", os.path.join(run_dir, "partition.json"),
        "--models", os.path.join(run_dir, "models"),
        "--out-dir", eval_dir,
    ] + TRAIN_FLAGS) == EXIT_OK
    with open(os.path.join(run_dir, "eval_report.json"), encoding="utf-8") as fh:
        run_report = json.load(fh)
    with open(os.path.join(eval_dir, "eval_report.json"), encoding="utf-8") as fh:
        eval_report = json.load(fh)
    assert eval_report["rmse_normalized"] == run_report["rmse_normalized"]

    canonical = str(tmp_path / "canonical.csv")
    assert main([
        "ingest", "--input", trace, "--format", "canonical", "--out", canonical,
    ]) == EXIT_OK
    assert np.array_equal(load_tm_series(canonical).values, load_tm_series(trace).values)


def test_cluster_reproduces_run_dendrogram(tmp_path):
    run_dir = str(tmp_path / "run")
    cluster_dir = str(tmp_path / "cluster")
    assert main([
        "run", "--trace", synth_trace(tmp_path), "--out-dir", run_dir,
        "--k", "2", "--linkage", "average",
    ] + TRAIN_FLAGS) == EXIT_OK

    assert main([
        "cluster", "--method", "hac", "--dissimilarity", os.path.join(run_dir, "dissimilarity.csv"),
        "--linkage", "average", "--k", "2", "--out-dir", cluster_dir,
    ]) == EXIT_OK
    for name in ("dendrogram.csv", "partition.json"):
        want = read(os.path.join(run_dir, name))
        got = read(os.path.join(cluster_dir, name))
        if name == "partition.json":
            # the run tags its partition with the representation, the CLI with "hac"
            want, got = json.loads(want)["labels"], json.loads(got)["labels"]
        assert got == want, name


def test_train_then_evaluate_reproduces_run(tmp_path):
    trace = synth_trace(tmp_path)
    run_dir = str(tmp_path / "run")
    models_dir = str(tmp_path / "models")
    eval_dir = str(tmp_path / "eval")
    partition = os.path.join(run_dir, "partition.json")
    run_k2(trace, run_dir)
    assert main([
        "train", "--trace", trace, "--partition", partition, "--out-dir", models_dir,
    ] + TRAIN_FLAGS) == EXIT_OK
    assert main([
        "evaluate", "--trace", trace, "--partition", partition, "--models", models_dir,
        "--out-dir", eval_dir,
    ] + TRAIN_FLAGS) == EXIT_OK
    assert os.path.exists(os.path.join(models_dir, "train_report.json"))
    run_report = json.loads(read(os.path.join(run_dir, "eval_report.json")))
    eval_report = json.loads(read(os.path.join(eval_dir, "eval_report.json")))
    assert eval_report["rmse_normalized"] == run_report["rmse_normalized"]
    assert read(os.path.join(eval_dir, "per_flow_rmse.csv")) == read(
        os.path.join(run_dir, "per_flow_rmse.csv"))


def test_represent_writes_the_run_matrices(tmp_path):
    trace = synth_trace(tmp_path)
    run_dir = str(tmp_path / "run")
    rep_dir = str(tmp_path / "represent")
    run_k2(trace, run_dir, "--representation", "acf")
    assert main([
        "represent", "--trace", trace, "--representation", "acf", "--out-dir", rep_dir,
    ]) == EXIT_OK
    for name in ("features.csv", "dissimilarity.csv"):
        assert read(os.path.join(rep_dir, name)) == read(os.path.join(run_dir, name)), name


def test_compare_tables_and_per_flow_errors(tmp_path):
    trace = synth_trace(tmp_path)
    out_dir = str(tmp_path / "compare")
    run_dir = str(tmp_path / "run")
    argv = ["compare", "--trace", trace, "--k", "2", "--out-dir", out_dir]
    assert main(argv + TRAIN_FLAGS) == EXIT_OK
    row_counts = {
        "pairwise_agreement.csv": 6, "error_correlation.csv": 6, "cluster_size_stats.csv": 4,
    }
    for name, rows in row_counts.items():
        assert len(read(os.path.join(out_dir, name)).splitlines()) == 1 + rows, name

    cfg = RunConfig(trace=trace, k=2, epochs=2, profile="desk", out_dir=run_dir)
    result = compare(cfg, str(tmp_path / "compare_api"))
    run_k2(trace, run_dir)
    run_report = json.loads(read(os.path.join(run_dir, "eval_report.json")))
    assert result["per_flow_rmse"]["histogram"] == run_report["per_flow_rmse"]


@pytest.mark.parametrize("command,k_flags", [
    ("run", ["--k", "99"]),
    ("sweep", ["--k-grid", "1,2,99"]),
    ("compare", ["--k", "99"]),
])
def test_out_of_range_k_is_a_config_error(tmp_path, command, k_flags):
    argv = [command, "--trace", synth_trace(tmp_path), "--out-dir", str(tmp_path / "out")]
    assert main(argv + k_flags + TRAIN_FLAGS) == EXIT_CONFIG


def test_evaluate_on_truncated_model_is_a_data_error(tmp_path):
    trace = synth_trace(tmp_path)
    run_dir = str(tmp_path / "run")
    run_k2(trace, run_dir)
    model = os.path.join(run_dir, "models", "cluster_1.bin")
    with open(model, "r+b") as fh:
        fh.truncate(6)
    assert main([
        "evaluate", "--trace", trace, "--partition", os.path.join(run_dir, "partition.json"),
        "--models", os.path.join(run_dir, "models"), "--out-dir", str(tmp_path / "eval"),
    ] + TRAIN_FLAGS) == EXIT_DATA


def test_represent_config_error_exits_2(tmp_path, capsys):
    # jsd needs histograms: the same mistake exits 2 on every subcommand
    assert main([
        "represent", "--trace", synth_trace(tmp_path), "--representation", "acf",
        "--metric", "jsd", "--out-dir", str(tmp_path / "represent"),
    ]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command,flags", [
    ("run", ["--k", "2"]),
    ("sweep", ["--k-grid", "1,2,3", "--repetitions", "1"]),
    ("compare", ["--k", "2"]),
])
def test_config_warnings_go_to_stderr(tmp_path, capsys, command, flags):
    trace = synth_trace(tmp_path)
    capsys.readouterr()
    argv = [command, "--trace", trace, "--out-dir", str(tmp_path / "out"), *flags,
            "--profile", "desk", "--hidden-size", "80", "--epochs", "1"]
    assert main(argv) == EXIT_OK
    assert "desk profile with hidden_size=80 override will be slow" in capsys.readouterr().err
