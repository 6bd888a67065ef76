"""run_pipeline and sweep at tiny size: the run directory records the trace's
hash, not a copy, and only its manifest differs between two runs of the same
bytes, whatever their paths; a resume recomputes exactly the stages whose
settings or input contents changed and finishes a crashed run, a resume with
nothing changed does no work, and a sweep scores each K as the run at that K
does."""

import hashlib
import json
import os
import shutil
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from tmcf import pipeline, predict
from tmcf.cluster import Partition
from tmcf.dataset import (FlowSet, ScaleParams, TmSeries, load_tm_series, split,
                          write_canonical_csv)
from tmcf.pipeline import (RunConfig, compare, file_sha256, run_pipeline, sweep,
                           trace_file_sha256)
from tmcf.represent import ReprMatrix, pairwise_dissimilarity
from tmcf.synth import GroupSpec, SynthSpec, generate

from forking import assert_no_children, count_forks, fork_any_work, usable_cpus


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


def crash(*args, **kwargs):
    raise RuntimeError("crash")


# what a manifest records about one run's process rather than its outputs
RUN_MEASURES = ("wall_time_seconds", "peak_rss_mib", "children_peak_rss_mib")


def without_wall_times(obj):
    if isinstance(obj, dict):
        return {key: without_wall_times(value) for key, value in obj.items()
                if key not in (*RUN_MEASURES, "reused")}
    if isinstance(obj, list):
        return [without_wall_times(value) for value in obj]
    return obj


def outputs(run_dir):
    """{path: content} of every file in a run directory: its bytes or, for the
    manifest, the one file that holds wall times, its JSON without them and
    reuse marks."""
    out = {}
    for root, _, files in os.walk(run_dir):
        for name in files:
            path = os.path.join(root, name)
            out[os.path.relpath(path, run_dir)] = (
                without_wall_times(json.loads(read(path)))
                if name == "manifest.json" else read(path)
            )
    return out


def permute_flows_in_place(path, perm):
    tm = load_tm_series(path)
    flat = tm.values.reshape(tm.n_steps, tm.n_flows)[:, perm]
    write_canonical_csv(
        TmSeries(tm.n_nodes, tm.interval_seconds, flat.reshape(tm.values.shape), tm.timestamps),
        path,
    )


def test_each_stage_records_the_peak_rss_so_far(trace, tmp_path):
    stages = manifest(run_pipeline(config(trace, tmp_path / "run")))["stages"]
    peaks = [stages[name]["peak_rss_mib"] for name in ("ingest", "cluster", "train", "evaluate")]
    assert peaks == sorted(peaks) and peaks[0] > 0
    # training forked no child here, but earlier tests may have
    assert all(entry["children_peak_rss_mib"] >= 0 for entry in stages.values())


def traced_peak(fn, *args):
    """(fn(*args), the peak of the memory that tracemalloc traces during the call)"""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prepare_allocates_one_flow_matrix_beside_the_trace(monkeypatch):
    """Given the parsed trace, prepare's flows are a view of it and normalize
    writes the one (M, T) matrix, and the raw values of the scored steps are
    copied once. So the call peaks at that matrix plus those steps' bytes
    plus 256 KiB (numpy's iteration buffers, which read the transposed
    flows, and the flows' statistics), and no array it returns shares
    memory with the trace."""
    tm = TmSeries(12, 300, np.random.default_rng(0).random((2000, 12, 12)) * 1e6)
    monkeypatch.setattr(pipeline, "load_tm_series", lambda *args, **kwargs: tm)
    cfg = RunConfig(trace="parsed")
    (flows_norm, truth_bytes, scale, ranges), peak = traced_peak(pipeline.prepare, cfg)
    scored = tm.values[ranges.test[0] + cfg.window_length - 1 : ranges.test[1]]
    assert flows_norm.values.flags.c_contiguous
    assert flows_norm.values.nbytes == tm.values.nbytes
    assert truth_bytes.tobytes() == scored.tobytes()
    assert peak <= tm.values.nbytes + scored.nbytes + 256 * 1024
    for array in (flows_norm.values, truth_bytes, scale.per_flow_min, scale.per_flow_max):
        assert not np.shares_memory(array, tm.values)


def test_prepare_releases_the_parsed_trace(monkeypatch):
    parsed = []

    def load(*args, **kwargs):
        tm = TmSeries(4, 300, np.random.default_rng(0).random((400, 4, 4)))
        parsed.append(weakref.ref(tm.values))
        return tm

    monkeypatch.setattr(pipeline, "load_tm_series", load)
    prepared = pipeline.prepare(RunConfig(trace="parsed"))
    assert prepared[0].n_nodes == 4
    assert parsed[0]() is None


def test_score_holds_the_predictions_and_one_working_array():
    """score's traced peak is pred_norm and one more (samples, M) array plus
    1 MiB. While it predicts, that place holds one cluster's rows and the
    forward passes' scratch. While it scores, it holds the squared errors,
    which both RMSE passes share, and the physical RMSE's 64-KiB row
    chunks: the predictions in bytes are never made whole."""
    rng = np.random.default_rng(0)
    n_nodes, n_steps, k = 12, 10000, 4
    m = n_nodes * n_nodes
    flows_norm = FlowSet(n_nodes, 300, rng.random((m, n_steps)))
    cfg = RunConfig(trace="unused", k=k, profile="desk")
    ranges = split(n_steps, cfg.train_frac, cfg.val_frac, cfg.window_length)
    samples = ranges.test[1] - ranges.test[0] - cfg.window_length + 1
    truth_bytes = rng.random((samples, m)) * 1e6
    scale = ScaleParams(np.zeros(m), np.full(m, 1e6))
    part = Partition(np.arange(m) % k + 1, k)
    models = {label: predict.init_model(cfg.gru_config(m // k)) for label in range(1, k + 1)}
    (report, pred_norm), peak = traced_peak(pipeline.score, cfg, flows_norm, truth_bytes, scale,
                                            ranges, part, models)
    assert pred_norm.shape == (samples, m)
    assert np.isfinite(report.rmse_physical_mbps)
    assert peak <= 2 * pred_norm.nbytes + 1024 * 1024


def test_cluster_features_adds_no_matrix_beside_the_dissimilarities(monkeypatch):
    """The dissimilarity matrix lives in an anonymous mapping, which
    tracemalloc does not see; mirroring it, checking it and agglomerating it
    in place trace less than half of another M x M matrix."""
    usable_cpus(monkeypatch, 1)
    feats = ReprMatrix(np.random.default_rng(0).random((600, 8)), "acf")
    dendro, peak = traced_peak(pipeline.cluster_features, feats, None, None)
    assert dendro.n_leaves == 600
    assert peak < 600 * 600 * 8 / 2


def test_fresh_run_records_trace_hash_not_copy(trace, tmp_path):
    run_dir = run_pipeline(config(trace, tmp_path / "run"))
    assert not os.path.exists(os.path.join(run_dir, "trace.csv"))
    ingest = manifest(run_dir)["stages"]["ingest"]
    assert ingest["trace_sha256"] == trace_file_sha256(trace, "canonical")
    assert list(ingest["artifacts"]) == ["scale.json"]
    # no copy of the trace, the normalized flows or the dissimilarity matrix,
    # which features.csv and features_meta.json determine
    assert sorted(outputs(run_dir)) == [
        "dendrogram.csv", "eval_report.json", "features.csv", "features_meta.json",
        "manifest.json", "models/cluster_1.bin", "models/cluster_2.bin", "partition.json",
        "predictions.npz", "scale.json", "train_report.json",
    ]
    # the truths and the predictions in bytes follow from pred_norm, the trace
    # and scale.json
    with np.load(os.path.join(run_dir, "predictions.npz")) as predictions:
        assert predictions.files == ["pred_norm"]


BLOCK = pipeline._HASH_BLOCK


@pytest.mark.parametrize("size", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_file_sha256_is_the_sha256_of_the_bytes(tmp_path, size):
    # every block of every file goes through one buffer: what an earlier block
    # or file left in it must not reach the digest
    full = tmp_path / "full"
    full.write_bytes(b"\xff" * BLOCK)
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    path = tmp_path / "blob"
    path.write_bytes(data)
    for name in (full, path):
        assert file_sha256(str(name)) == hashlib.sha256(read(name)).hexdigest()


@pytest.mark.parametrize("representation", pipeline.METHODS)
def test_two_fresh_runs_differ_only_in_the_manifest(trace, tmp_path, representation):
    cfg = replace(config(trace, tmp_path / "run"), representation=representation)
    first = outputs(run_pipeline(cfg))
    # outputs compares every file but the manifest byte for byte
    assert outputs(run_pipeline(cfg)) == first


def test_resume_on_same_trace_reuses_cluster_and_train(trace, tmp_path, monkeypatch):
    cfg = config(trace, tmp_path / "run")
    run_dir = run_pipeline(cfg)
    partition = os.path.join(run_dir, "partition.json")
    mtime = os.stat(partition).st_mtime_ns
    report = read(os.path.join(run_dir, "eval_report.json"))

    def must_not_run(*args, **kwargs):
        raise AssertionError("stage recomputed on resume")

    monkeypatch.setattr(pipeline, "build_dendrogram", must_not_run)
    monkeypatch.setattr(pipeline, "train_partitioned", must_not_run)
    run_pipeline(cfg, resume=True)
    assert os.stat(partition).st_mtime_ns == mtime
    assert read(os.path.join(run_dir, "eval_report.json")) == report


def test_resume_on_the_same_bytes_at_another_path_reuses_every_stage(
        trace, tmp_path, monkeypatch):
    os.makedirs(tmp_path / "a")
    os.makedirs(tmp_path / "b")
    first, second = str(tmp_path / "a" / "trace.csv"), str(tmp_path / "b" / "trace.csv")
    shutil.copyfile(trace, first)
    shutil.copyfile(trace, second)
    cfg = config(first, tmp_path / "run")
    run_dir = run_pipeline(cfg)
    before = bytes_and_mtimes(run_dir)
    monkeypatch.setattr(pipeline, "load_tm_series", crash)
    assert run_pipeline(replace(cfg, trace=second), resume=True) == run_dir
    # no file records the path, so nothing is parsed or written
    assert bytes_and_mtimes(run_dir) == before


@pytest.mark.parametrize("representation", pipeline.METHODS)
def test_the_same_bytes_at_two_paths_write_identical_run_directories(trace, tmp_path,
                                                                    representation):
    copy = str(tmp_path / "copy.csv")
    shutil.copyfile(trace, copy)
    cfg = replace(config(trace, tmp_path / "a"), representation=representation)
    first = outputs(run_pipeline(cfg))
    second = outputs(run_pipeline(replace(cfg, trace=copy, out_dir=str(tmp_path / "b"))))
    # every file but the manifest, which alone records the config, byte for byte
    assert first.pop("manifest.json")["config"]["trace"] == trace
    assert second.pop("manifest.json")["config"]["trace"] == copy
    assert second == first


# a value other than config()'s for every RunConfig field, valid for a run
CHANGED = {
    "trace": "copy.csv", "representation": "acf", "format": "geant",
    "interval_seconds": 300, "missing": "zero", "metric": "euclidean",
    "linkage": "average", "k": 3, "k_grid": [1, 2, 4], "repetitions": 2, "bins": 20,
    "lags": [1, 2], "fs": 2.0, "normalize_power": False, "segment_length": 64,
    "window_length": 8, "train_frac": 0.7, "val_frac": 0.15, "profile": "paper",
    "hidden_size": 8, "epochs": 1, "seed": 1, "out_dir": "copy", "units": "packets",
}


@pytest.mark.parametrize("field", [f.name for f in fields(RunConfig)])
def test_resume_after_changing_one_setting_recomputes_the_stages_that_read_it(
        trace, tmp_path, monkeypatch, field):
    # hidden_size set, so that the paper profile trains as fast
    cfg = replace(config(trace, tmp_path / "run"), hidden_size=4)
    run_dir = run_pipeline(cfg)
    old = manifest(run_dir)["stages"]
    value = CHANGED[field]
    if field == "trace":  # the same bytes at another path
        value = str(tmp_path / value)
        shutil.copyfile(trace, value)
    if field == "out_dir":  # a copy of the run directory
        value = str(tmp_path / value)
        shutil.copytree(run_dir, value)
    if field == "format":  # the canonical trace, whichever format is named
        load = pipeline.load_tm_series
        monkeypatch.setattr(pipeline, "load_tm_series", lambda path, format, **kw: load(path, **kw))
    changed = replace(cfg, **{field: value})
    stages = list(pipeline._STAGE_KEYS)
    readers = [name for name, keys in pipeline._STAGE_KEYS.items() if field in keys]
    recomputed = stages[stages.index(readers[0]):] if readers else []
    if not recomputed:
        before = bytes_and_mtimes(changed.out_dir)
        monkeypatch.setattr(pipeline, "load_tm_series", crash)
    run_pipeline(changed, resume=True)
    if not recomputed:
        assert bytes_and_mtimes(changed.out_dir) == before
        return
    new = manifest(run_dir)["stages"]
    assert [name for name in stages if new[name]["hash"] != old[name]["hash"]] == recomputed
    assert [name for name in stages[1:] if not new[name].get("reused")] == [
        name for name in recomputed if name != "ingest"]


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


@pytest.mark.parametrize("representation", ["histogram", "acf", "psd"])
def test_every_layer_forked_writes_the_serial_run_directory(trace, tmp_path, monkeypatch,
                                                            representation):
    cfg = replace(config(trace, tmp_path / "run"), representation=representation)
    usable_cpus(monkeypatch, 1)
    serial = outputs(run_pipeline(cfg))
    shutil.rmtree(cfg.out_dir)
    fork_any_work(monkeypatch)
    usable_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    forked = outputs(run_pipeline(cfg))
    # a child for the parse, features (not histograms) and dissimilarities,
    # and two for training
    assert len(forks) == (4 if representation == "histogram" else 5)
    assert_no_children()
    assert forked == serial


def test_every_fork_comes_from_a_process_with_no_thread_of_tmcf(trace, tmp_path, monkeypatch):
    # Python >= 3.12 warns when a process with more than one thread forks.
    # The OS threads here are the interpreter's and OpenBLAS's pool, which
    # OpenBLAS stops at each fork and starts again only for a product large
    # enough to use threads, which this run has none of
    usable_cpus(monkeypatch, 2)
    fork_any_work(monkeypatch)
    before = len(os.listdir("/proc/self/task"))
    forks = count_forks(monkeypatch)
    run_pipeline(config(trace, tmp_path / "run"))
    assert len(forks) == 4
    assert [python for python, _ in forks.threads] == [1] * 4
    assert all(threads <= before for _, threads in forks.threads)
    assert_no_children()


@pytest.mark.parametrize("crashes", [False, True], ids=["returns", "raises"])
def test_run_sweep_and_compare_leave_no_child_process(trace, tmp_path, monkeypatch, crashes):
    # two usable CPUs, and work of any size forks, so that every layer that
    # can fork does so on any host
    usable_cpus(monkeypatch, 2)
    fork_any_work(monkeypatch)
    if crashes:
        monkeypatch.setattr(predict, "_train_group", crash)
    cfg = config(trace, tmp_path / "run")
    calls = [lambda: run_pipeline(cfg),
             lambda: sweep(replace(cfg, k=None, k_grid=[1, 2, 4], repetitions=1)),
             lambda: compare(cfg, str(tmp_path / "compare"))]
    for call in calls:
        if crashes:
            with pytest.raises(RuntimeError, match="crash"):
                call()
        else:
            call()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_resume_after_a_crashed_fresh_run_of_another_config(trace, tmp_path, monkeypatch):
    # no fresh run deletes the old manifest; content verification protects the
    # resume: a stage is reused only when its hash and every artifact's sha256
    # match the manifest on disk, so A's hashes never meet B's partition.json
    cfg_a = config(trace, tmp_path / "run")
    run_dir = run_pipeline(cfg_a)
    cfg_b = replace(cfg_a, k=3)
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "train_partitioned", crash)
        with pytest.raises(RuntimeError, match="crash"):
            run_pipeline(cfg_b)
    assert json.loads(read(os.path.join(run_dir, "partition.json")))["k"] == 3

    run_pipeline(cfg_a, resume=True)
    assert json.loads(read(os.path.join(run_dir, "partition.json")))["k"] == 2
    report = json.loads(read(os.path.join(run_dir, "eval_report.json")))
    assert report["partition"]["cluster_stats"]["k"] == 2
    assert manifest(run_dir)["config"]["k"] == 2


def test_resume_keeps_the_fresh_run_stage_entries(trace, tmp_path):
    cfg = config(trace, tmp_path / "run")
    run_dir = run_pipeline(cfg)
    fresh = manifest(run_dir)["stages"]
    # a full hit writes nothing; without eval_report.json the resume re-parses
    os.remove(os.path.join(run_dir, "eval_report.json"))
    run_pipeline(cfg, resume=True)
    resumed = manifest(run_dir)["stages"]
    for name in ("cluster", "train"):
        assert resumed[name] == {**fresh[name], "reused": True}, name
    for name in ("ingest", "evaluate"):
        assert "reused" not in resumed[name], name
    assert not any("reused" in entry for entry in fresh.values())


@pytest.mark.parametrize("step,finished", [
    ("build_dendrogram", ["ingest"]),
    ("train_partitioned", ["ingest", "cluster"]),
    ("predict_flows", ["ingest", "cluster", "train"]),
])
def test_resume_after_a_crash_in_each_stage_finishes_the_run(trace, tmp_path, monkeypatch,
                                                             step, finished):
    cfg = config(trace, tmp_path / "run")
    run_dir = run_pipeline(cfg)
    uninterrupted = outputs(run_dir)
    shutil.rmtree(run_dir)
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, step, crash)
        with pytest.raises(RuntimeError, match="crash"):
            run_pipeline(cfg)
    # the manifest written after each stage shows how far the run got
    assert sorted(manifest(run_dir)["stages"]) == sorted(finished)

    run_pipeline(cfg, resume=True)
    assert outputs(run_dir) == uninterrupted
    stages = manifest(run_dir)["stages"]
    assert [name for name in stages if stages[name].get("reused")] == sorted(finished[1:])


def edit_partition(run_dir):
    path = os.path.join(run_dir, "partition.json")
    part = json.loads(read(path))
    part["labels"] = [3 - label for label in part["labels"]]  # still a valid k=2 partition
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(part, fh)


def truncate_model(run_dir):
    path = os.path.join(run_dir, "models", "cluster_1.bin")
    data = read(path)
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])


def delete_report(run_dir):
    os.remove(os.path.join(run_dir, "eval_report.json"))


def list_a_name_with_a_nul_byte(run_dir):
    # open() raises ValueError, not OSError, on such a name
    doc = manifest(run_dir)
    doc["stages"]["train"]["artifacts"]["a\u0000b"] = "0" * 64
    with open(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("tamper,recomputed", [
    (edit_partition, ["cluster", "train", "evaluate"]),
    (truncate_model, ["train", "evaluate"]),
    (delete_report, ["evaluate"]),
    (list_a_name_with_a_nul_byte, ["train", "evaluate"]),
])
def test_resume_recomputes_from_the_stage_whose_artifact_changed(trace, tmp_path, tamper,
                                                                 recomputed):
    cfg = config(trace, tmp_path / "run")
    run_dir = run_pipeline(cfg)
    fresh = outputs(run_dir)
    tamper(run_dir)
    run_pipeline(cfg, resume=True)
    assert outputs(run_dir) == fresh
    stages = manifest(run_dir)["stages"]
    assert [name for name in ("cluster", "train", "evaluate")
            if not stages[name].get("reused")] == recomputed


@pytest.mark.parametrize("content", ["[]", '{"stages": []}', '{"stages": {"cluster": "x"}}'])
def test_resume_over_a_malformed_manifest_recomputes_every_stage(trace, tmp_path, content):
    cfg = config(trace, tmp_path / "run")
    run_dir = run_pipeline(cfg)
    fresh = outputs(run_dir)
    with open(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(content)
    run_pipeline(cfg, resume=True)
    assert outputs(run_dir) == fresh
    assert not any("reused" in entry for entry in manifest(run_dir)["stages"].values())


def bytes_and_mtimes(run_dir):
    """{path: (bytes or None for a directory, st_mtime_ns)} under run_dir."""
    out = {}
    for root, dirs, files in os.walk(run_dir):
        for name in dirs:
            path = os.path.join(root, name)
            out[path] = (None, os.stat(path).st_mtime_ns)
        for name in files:
            path = os.path.join(root, name)
            out[path] = (read(path), os.stat(path).st_mtime_ns)
    out[run_dir] = (None, os.stat(run_dir).st_mtime_ns)
    return out


def store_matrix_and_bytes(run_dir):
    """Rewrite a histogram run directory in the earlier format, which also
    stored dissimilarity.npy and a pred_bytes array in predictions.npz (its
    content does not matter here), each recorded in the manifest."""
    features = np.loadtxt(os.path.join(run_dir, "features.csv"), delimiter=",", ndmin=2)
    np.save(os.path.join(run_dir, "dissimilarity.npy"),
            pairwise_dissimilarity(ReprMatrix(features, "histogram")).d)
    predictions = os.path.join(run_dir, "predictions.npz")
    with np.load(predictions) as arrays:
        pred_norm = arrays["pred_norm"]
    np.savez(predictions, pred_norm=pred_norm, pred_bytes=np.zeros((1, 4, 4)))
    data = manifest(run_dir)
    for stage, name in (("cluster", "dissimilarity.npy"), ("evaluate", "predictions.npz")):
        data["stages"][stage]["artifacts"][name] = file_sha256(os.path.join(run_dir, name))
    pipeline.dump_json(data, os.path.join(run_dir, "manifest.json"))


@pytest.mark.parametrize("earlier_format", [False, True], ids=["current", "earlier-format"])
def test_resume_with_nothing_changed_parses_predicts_and_writes_nothing(trace, tmp_path,
                                                                        monkeypatch,
                                                                        earlier_format):
    cfg = config(trace, tmp_path / "run")
    run_dir = run_pipeline(cfg)
    if earlier_format:
        store_matrix_and_bytes(run_dir)
    before = bytes_and_mtimes(run_dir)
    for name in ("load_tm_series", "predict_flows", "load_model"):
        monkeypatch.setattr(pipeline, name, crash)
    assert run_pipeline(cfg, resume=True) == run_dir
    assert bytes_and_mtimes(run_dir) == before


def write_the_config_echo(run_dir, cfg):
    """Rewrite a run directory as the earlier format wrote it: eval_report.json
    also held the config, the partition's method, k and seed and the NMI
    normalization, train_report.json the profile, and the manifest a
    config_hash that keyed evaluate on the whole config."""
    paths = {name: os.path.join(run_dir, name)
             for name in ("eval_report.json", "train_report.json", "partition.json")}
    report, train, part = (json.loads(read(path)) for path in paths.values())
    report["config"] = cfg.to_dict()
    report["partition"].update({key: part.get(key) for key in ("method", "k", "seed")})
    report["metadata"]["nmi_normalization"] = "arithmetic_mean_of_entropies"
    train["profile"] = cfg.profile
    pipeline.dump_json(report, paths["eval_report.json"])
    pipeline.dump_json(train, paths["train_report.json"])
    data = manifest(run_dir)
    data["config_hash"] = pipeline.config_hash(cfg.to_dict())
    stages = data["stages"]
    stages["evaluate"]["hash"] = pipeline.config_hash(
        {"stage": "evaluate", "upstream": stages["train"]["hash"],
         "config_hash": data["config_hash"]})
    for stage, name in (("train", "train_report.json"), ("evaluate", "eval_report.json")):
        stages[stage]["artifacts"][name] = file_sha256(paths[name])
    pipeline.dump_json(data, os.path.join(run_dir, "manifest.json"))


def test_resume_over_the_config_echo_recomputes_only_evaluate(trace, tmp_path, monkeypatch):
    cfg = config(trace, tmp_path / "run")
    run_dir = run_pipeline(cfg)
    fresh = outputs(run_dir)
    write_the_config_echo(run_dir, cfg)
    earlier = manifest(run_dir)["stages"]
    train_report = read(os.path.join(run_dir, "train_report.json"))
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "build_dendrogram", crash)
        patch.setattr(pipeline, "train_partitioned", crash)
        run_pipeline(cfg, resume=True)
    stages = manifest(run_dir)["stages"]
    assert stages["ingest"]["hash"] == earlier["ingest"]["hash"]
    for name in ("cluster", "train"):
        assert stages[name] == {**earlier[name], "reused": True}, name
    assert stages["evaluate"]["hash"] != earlier["evaluate"]["hash"]
    assert "config_hash" not in manifest(run_dir)
    # the reused train stage keeps the earlier report, profile included
    assert read(os.path.join(run_dir, "train_report.json")) == train_report
    resumed = outputs(run_dir)
    assert resumed["eval_report.json"] == fresh["eval_report.json"]
    before = bytes_and_mtimes(run_dir)
    monkeypatch.setattr(pipeline, "load_tm_series", crash)
    run_pipeline(cfg, resume=True)
    assert bytes_and_mtimes(run_dir) == before


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
def test_a_run_removes_what_an_earlier_run_listed_for_the_stages_it_recomputes(
        trace, tmp_path, resume):
    # a naive run over an earlier-format histogram directory: the dendrogram,
    # the features and dissimilarity.npy of the cluster entry have no stage now
    cfg = replace(config(trace, tmp_path / "run"), representation="naive")
    run_dir = run_pipeline(replace(cfg, representation="histogram"))
    store_matrix_and_bytes(run_dir)
    run_pipeline(cfg, resume=resume)
    fresh_dir = run_pipeline(replace(cfg, out_dir=str(tmp_path / "fresh")))
    assert sorted(outputs(run_dir)) == sorted(outputs(fresh_dir))
    with np.load(os.path.join(run_dir, "predictions.npz")) as predictions:
        assert predictions.files == ["pred_norm"]


def test_a_run_removes_no_file_outside_its_directory(trace, tmp_path):
    cfg = config(trace, tmp_path / "run")
    run_dir = run_pipeline(cfg)
    outside = tmp_path / "outside"
    outside.write_text("kept")
    os.symlink(outside, os.path.join(run_dir, "link"))
    data = manifest(run_dir)
    data["stages"]["cluster"]["artifacts"].update(
        {"../outside": "0", str(outside): "0", "link": "0"})
    pipeline.dump_json(data, os.path.join(run_dir, "manifest.json"))
    run_pipeline(cfg)
    assert outside.read_text() == "kept"
    assert os.path.islink(os.path.join(run_dir, "link"))


def test_a_run_over_an_unreadable_manifest_removes_nothing(trace, tmp_path):
    cfg = config(trace, tmp_path / "run")
    run_dir = run_pipeline(cfg)
    with open(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write("{")
    run_pipeline(replace(cfg, representation="naive"), resume=True)
    assert os.path.exists(os.path.join(run_dir, "dendrogram.csv"))


def test_resume_with_other_units_rewrites_the_report(trace, tmp_path):
    cfg = config(trace, tmp_path / "run")
    run_dir = run_pipeline(cfg)
    run_pipeline(replace(cfg, units="packets"), resume=True)
    report = json.loads(read(os.path.join(run_dir, "eval_report.json")))
    assert report["metadata"]["units"] == manifest(run_dir)["config"]["units"] == "packets"
    assert report["rmse_physical_mbps"] != report["rmse_physical_mbps"]  # nan: not bytes
    stages = manifest(run_dir)["stages"]
    assert stages["cluster"]["reused"] and stages["train"]["reused"]


def write_abilene_dir(path):
    """Two whitespace matrix files of a 12-node trace with two planted groups."""
    spec = SynthSpec(
        n_nodes=12, n_steps=300, seed=3,
        groups=[GroupSpec(72, 24, 1.0, 0.1, "sine"), GroupSpec(72, 7, 1.0, 0.1, "square")],
    )
    flat = generate(spec)[0].values.reshape(300, 144)
    os.makedirs(path)
    np.savetxt(os.path.join(path, "a.txt"), flat[:150])
    np.savetxt(os.path.join(path, "b.txt"), flat[150:])


def test_paper_profile_warning_sums_the_files_of_an_abilene_directory(tmp_path, monkeypatch):
    trace_dir = str(tmp_path / "abilene")
    write_abilene_dir(trace_dir)
    files_bytes = sum(os.path.getsize(os.path.join(trace_dir, f)) for f in os.listdir(trace_dir))
    # the warning fires above 8 bytes per budgeted observation; the directory's
    # own size stays below that, its files' total does not
    monkeypatch.setattr(pipeline, "_PAPER_PROFILE_BUDGET", files_bytes // 16)
    assert os.path.getsize(trace_dir) <= 8 * pipeline._PAPER_PROFILE_BUDGET
    cfg = RunConfig(trace=trace_dir, format="abilene", profile="paper")
    _, warnings = pipeline.validate_config(cfg)
    assert any("paper profile on a large trace" in w for w in warnings)


def scale_last_row(path):
    rows = np.loadtxt(path, ndmin=2)
    rows[-1] *= 2.0
    np.savetxt(path, rows)


@pytest.mark.parametrize("change", [
    lambda d: scale_last_row(os.path.join(d, "b.txt")),
    # the loader reads the files in name order, so this reorders the steps
    lambda d: os.rename(os.path.join(d, "a.txt"), os.path.join(d, "c.txt")),
], ids=["edit", "rename"])
def test_changing_one_file_of_an_abilene_directory_invalidates_the_run(tmp_path, change):
    trace_dir = str(tmp_path / "abilene")
    write_abilene_dir(trace_dir)
    cfg = replace(config(trace_dir, tmp_path / "run"), format="abilene")
    run_dir = run_pipeline(cfg)
    old = manifest(run_dir)["stages"]
    change(trace_dir)
    run_pipeline(cfg, resume=True)
    new = manifest(run_dir)["stages"]
    assert new["ingest"]["hash"] != old["ingest"]["hash"]
    assert new["ingest"]["trace_sha256"] == trace_file_sha256(trace_dir, "abilene")
    assert not any("reused" in entry for entry in new.values())
