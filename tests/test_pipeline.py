"""run_pipeline and sweep at tiny size: the run directory records the trace's
hash, not a copy, a resume reuses stages only while the trace's contents
match, and a sweep scores each K as the run at that K does."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from tmcf import pipeline
from tmcf.dataset import TmSeries, load_tm_series, write_canonical_csv
from tmcf.pipeline import RunConfig, run_pipeline, sweep, trace_sha256
from tmcf.synth import GroupSpec, SynthSpec, generate


@pytest.fixture
def trace(tmp_path):
    spec = SynthSpec(
        n_nodes=4, n_steps=400, seed=5,
        groups=[GroupSpec(8, 24, 1.0, 0.1, "sine"), GroupSpec(8, 7, 1.0, 0.1, "square")],
    )
    tm, _ = generate(spec)
    path = str(tmp_path / "trace.csv")
    write_canonical_csv(tm, path)
    return path


def config(trace, out_dir):
    return RunConfig(trace=trace, k=2, epochs=2, profile="desk", out_dir=str(out_dir))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def manifest(run_dir):
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def permute_flows_in_place(path, perm):
    tm = load_tm_series(path)
    flat = tm.values.reshape(tm.n_steps, tm.n_flows)[:, perm]
    write_canonical_csv(
        TmSeries(tm.n_nodes, tm.interval_seconds, flat.reshape(tm.values.shape), tm.timestamps),
        path,
    )


def test_fresh_run_records_trace_hash_not_copy(trace, tmp_path):
    run_dir = run_pipeline(config(trace, tmp_path / "run"))
    assert not os.path.exists(os.path.join(run_dir, "trace.csv"))
    ingest = manifest(run_dir)["stages"]["ingest"]
    assert ingest["trace_sha256"] == trace_sha256(load_tm_series(trace))
    assert ingest["artifacts"] == ["scale.json"]
    assert not os.path.exists(os.path.join(run_dir, "flows_norm.npz"))


def test_resume_on_same_trace_reuses_cluster_and_train(trace, tmp_path, monkeypatch):
    cfg = config(trace, tmp_path / "run")
    run_dir = run_pipeline(cfg)
    partition = os.path.join(run_dir, "partition.json")
    mtime = os.stat(partition).st_mtime_ns
    report = read(os.path.join(run_dir, "eval_report.json"))

    def must_not_run(*args, **kwargs):
        raise AssertionError("stage recomputed on resume")

    monkeypatch.setattr(pipeline, "_partition_for", must_not_run)
    monkeypatch.setattr(pipeline, "train_partitioned", must_not_run)
    run_pipeline(cfg, resume=True)
    assert os.stat(partition).st_mtime_ns == mtime
    assert read(os.path.join(run_dir, "eval_report.json")) == report


def test_resume_after_trace_content_change_recomputes(trace, tmp_path):
    cfg = config(trace, tmp_path / "run")
    run_dir = run_pipeline(cfg)
    stale = read(os.path.join(run_dir, "partition.json"))
    old_hash = manifest(run_dir)["stages"]["ingest"]["trace_sha256"]

    # interleave the two planted groups; the path stays the same
    permute_flows_in_place(trace, np.arange(16).reshape(2, 8).T.ravel())
    run_pipeline(cfg, resume=True)
    fresh_dir = run_pipeline(config(trace, tmp_path / "fresh"))

    resumed = read(os.path.join(run_dir, "partition.json"))
    assert resumed == read(os.path.join(fresh_dir, "partition.json"))
    assert resumed != stale
    assert manifest(run_dir)["stages"]["ingest"]["trace_sha256"] != old_hash


def test_sweep_scores_each_k_as_the_run_does(trace, tmp_path):
    # epochs=2 must reach the sweep's models too, not only the run's
    cfg = config(trace, tmp_path / "run")
    curve, _ = sweep(replace(cfg, k=None, k_grid=[1, 2, 4], repetitions=1))
    with open(os.path.join(run_pipeline(cfg), "eval_report.json"), encoding="utf-8") as fh:
        run_rmse = json.load(fh)["rmse_normalized"]
    assert curve.k_values == [1, 2, 4]
    assert curve.mean_rmse[1] == run_rmse


def test_resume_after_a_crashed_fresh_run_of_another_config(trace, tmp_path, monkeypatch):
    # a fresh run drops the old manifest before it writes anything, so the
    # resume cannot match A's hashes against B's partition.json
    cfg_a = config(trace, tmp_path / "run")
    run_dir = run_pipeline(cfg_a)
    cfg_b = replace(cfg_a, k=3)

    def crash(*args, **kwargs):
        raise RuntimeError("crash in training")

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "train_partitioned", crash)
        with pytest.raises(RuntimeError, match="crash in training"):
            run_pipeline(cfg_b)
    assert json.loads(read(os.path.join(run_dir, "partition.json")))["k"] == 3

    run_pipeline(cfg_a, resume=True)
    assert json.loads(read(os.path.join(run_dir, "partition.json")))["k"] == 2
    report = json.loads(read(os.path.join(run_dir, "eval_report.json")))
    assert report["config"]["k"] == 2
    assert report["partition"]["k"] == 2


def test_resume_keeps_the_fresh_run_stage_entries(trace, tmp_path):
    cfg = config(trace, tmp_path / "run")
    run_dir = run_pipeline(cfg)
    fresh = manifest(run_dir)["stages"]
    run_pipeline(cfg, resume=True)
    resumed = manifest(run_dir)["stages"]
    for name in ("cluster", "train"):
        assert resumed[name] == {**fresh[name], "reused": True}, name
    for name in ("ingest", "evaluate"):
        assert "reused" not in resumed[name], name
    assert not any("reused" in entry for entry in fresh.values())
