"""Regression test for the documented CLI path: synth -> run -> evaluate -> ingest."""

import json
import os

import numpy as np

from tmcf.cli import EXIT_OK, main
from tmcf.dataset import load_tm_series

TRAIN_FLAGS = ["--epochs", "2", "--profile", "desk"]


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
    synth_dir = str(tmp_path / "synth")
    run_dir = str(tmp_path / "run")
    cluster_dir = str(tmp_path / "cluster")
    assert main([
        "synth", "--nodes", "4", "--steps", "400", "--seed", "5",
        "--group", "8:24:1.0:0.1:sine", "--group", "8:7:1.0:0.1:square",
        "--out-dir", synth_dir,
    ]) == EXIT_OK
    assert main([
        "run", "--trace", os.path.join(synth_dir, "trace.csv"), "--out-dir", run_dir,
        "--k", "2", "--linkage", "average",
    ] + TRAIN_FLAGS) == EXIT_OK

    assert main([
        "cluster", "--method", "hac", "--dissimilarity", os.path.join(run_dir, "dissimilarity.csv"),
        "--linkage", "average", "--k", "2", "--out-dir", cluster_dir,
    ]) == EXIT_OK
    for name in ("dendrogram.csv", "partition.json"):
        with open(os.path.join(run_dir, name), "rb") as fh:
            want = fh.read()
        with open(os.path.join(cluster_dir, name), "rb") as fh:
            got = fh.read()
        if name == "partition.json":
            # the run tags its partition with the representation, the CLI with "hac"
            want, got = json.loads(want)["labels"], json.loads(got)["labels"]
        assert got == want, name
