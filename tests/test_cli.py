"""CLI at tiny size: the documented path synth -> run -> evaluate -> ingest,
exit codes, and the subcommands that must reproduce a run's outputs."""

import json
import os
import struct

import numpy as np
import pytest

from tmcf import pipeline
from tmcf.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, _parse_grid, main
from tmcf.dataset import load_tm_series
from tmcf.errors import ConfigError
from tmcf.pipeline import CHOICES, RunConfig, compare
from tmcf.represent import ReprMatrix, pairwise_dissimilarity

from test_cluster import DEFECTS, defective_matrix

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


@pytest.mark.parametrize("representation,linkage", [("histogram", "complete"), ("acf", "average")])
def test_cluster_reproduces_run_dendrogram(tmp_path, representation, linkage):
    # the run picks the representation's linkage; so does cluster --features
    trace = synth_trace(tmp_path)
    run_dir, rep_dir = str(tmp_path / "run"), str(tmp_path / "represent")
    flags = ["--representation", representation]
    run_k2(trace, run_dir, *flags)
    assert main(["represent", "--trace", trace, *flags, "--out-dir", rep_dir]) == EXIT_OK
    # the matrix the run clustered, recomputed from its features, as a .npy from outside tmcf
    matrix = str(tmp_path / "dissimilarity.npy")
    features = np.loadtxt(os.path.join(run_dir, "features.csv"), delimiter=",", ndmin=2)
    np.save(matrix, pairwise_dissimilarity(ReprMatrix(features, representation)).d)

    for i, source in enumerate([["--features", run_dir], ["--features", rep_dir],
                                ["--dissimilarity", matrix, "--linkage", linkage]]):
        cluster_dir = str(tmp_path / f"cluster{i}")
        assert main(["cluster", "--method", "hac", *source, "--k", "2",
                     "--out-dir", cluster_dir]) == EXIT_OK
        for name in ("dendrogram.csv", "partition.json"):
            want = read(os.path.join(run_dir, name))
            got = read(os.path.join(cluster_dir, name))
            if name == "partition.json" and source[0] == "--dissimilarity":
                # an outside matrix has no representation: the CLI tags it "hac"
                assert json.loads(got)["method"] == "hac"
                want, got = json.loads(want)["labels"], json.loads(got)["labels"]
            assert got == want, (source, name)


def test_cluster_naive_reproduces_run_partition(tmp_path):
    trace = synth_trace(tmp_path)
    run_dir, cluster_dir = str(tmp_path / "run"), str(tmp_path / "cluster")
    run_k2(trace, run_dir, "--representation", "naive", "--seed", "7")
    assert main(["cluster", "--method", "naive", "--flows", "16", "--seed", "7", "--k", "2",
                 "--out-dir", cluster_dir]) == EXIT_OK
    assert os.listdir(cluster_dir) == ["partition.json"]
    assert read(os.path.join(cluster_dir, "partition.json")) == read(
        os.path.join(run_dir, "partition.json"))


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
    # the reports hold no path, so the steps write the run's bytes
    for out_dir, name in ((models_dir, "train_report.json"), (eval_dir, "eval_report.json")):
        assert read(os.path.join(out_dir, name)) == read(os.path.join(run_dir, name)), name


def test_represent_writes_the_run_matrices(tmp_path):
    trace = synth_trace(tmp_path)
    run_dir = str(tmp_path / "run")
    rep_dir = str(tmp_path / "represent")
    run_k2(trace, run_dir, "--representation", "acf")
    assert main([
        "represent", "--trace", trace, "--representation", "acf", "--out-dir", rep_dir,
    ]) == EXIT_OK
    # the dissimilarity matrix is recomputed from these two by tmcf cluster --features
    assert sorted(os.listdir(rep_dir)) == ["features.csv", "features_meta.json"]
    for name in ("features.csv", "features_meta.json"):
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


def test_compare_on_an_unreadable_trace_exits_3_without_an_out_dir(tmp_path, capsys):
    trace = synth_trace(tmp_path)
    lines = read(trace).decode("utf-8").splitlines(keepends=True)
    lines[2] = lines[2].rsplit(",", 1)[0] + ",x\n"
    with open(trace, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    out_dir = tmp_path / "compare"
    argv = ["compare", "--trace", trace, "--k", "2", "--out-dir", str(out_dir)]
    assert main(argv + TRAIN_FLAGS) == EXIT_DATA
    assert "line 3" in capsys.readouterr().err
    assert not out_dir.exists()


THREE_POINTS = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])


@pytest.mark.parametrize("command,flags", [
    ("run", ["--k", "99", *TRAIN_FLAGS]),
    ("sweep", ["--k-grid", "1,2,99", *TRAIN_FLAGS]),
    ("compare", ["--k", "99", *TRAIN_FLAGS]),
    ("cluster", ["--method", "hac", "--linkage", "average", "--k", "4"]),
    ("cluster", ["--method", "naive", "--flows", "3", "--seed", "0", "--k", "0"]),
], ids=["run", "sweep", "compare", "cluster-hac", "cluster-naive"])
def test_out_of_range_k_is_a_config_error(tmp_path, monkeypatch, command, flags):
    if command == "cluster":
        source = ["--dissimilarity", str(tmp_path / "dissimilarity.npy")]
        np.save(source[1], THREE_POINTS)
    else:
        source = ["--trace", synth_trace(tmp_path)]
    # K is checked against the parsed trace before any dendrogram or directory
    monkeypatch.setattr(pipeline, "build_dendrogram", no_dendrogram)
    assert main([command, *source, "--out-dir", str(tmp_path / "out"), *flags]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def no_dendrogram(*args, **kwargs):
    raise AssertionError("a dendrogram was built")


def files(root) -> dict:
    """{relative path: bytes} of every file under root."""
    return {os.path.relpath(os.path.join(d, name), root): read(os.path.join(d, name))
            for d, _, names in os.walk(root) for name in names}


@pytest.mark.parametrize("case", ["k_too_large", "unreadable_trace"])
def test_a_resume_that_cannot_run_leaves_the_run_directory_as_it_was(tmp_path, capsys, case):
    trace = synth_trace(tmp_path)
    run_dir = str(tmp_path / "run")
    argv = ["run", "--trace", trace, "--out-dir", run_dir, "--resume", *TRAIN_FLAGS]
    assert main([*argv, "--k", "3"]) == EXIT_OK
    before = files(run_dir)
    assert "models/cluster_3.bin" in before and "predictions.npz" in before
    if case == "k_too_large":
        argv += ["--k", "99"]
    else:
        lines = read(trace).decode("utf-8").splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + ",oops\n"
        with open(trace, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        argv += ["--k", "3"]
    capsys.readouterr()
    assert main(argv) == (EXIT_CONFIG if case == "k_too_large" else EXIT_DATA)
    assert ("k must lie in [1, 16]" if case == "k_too_large" else "line 3") \
        in capsys.readouterr().err
    assert files(run_dir) == before


def test_a_run_without_k_creates_nothing(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", "--trace", synth_trace(tmp_path), "--out-dir", str(run_dir)]) \
        == EXIT_CONFIG
    assert "k must lie in" in capsys.readouterr().err
    assert not run_dir.exists()


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


def test_evaluate_on_a_model_whose_header_outsizes_its_file_is_a_data_error(tmp_path, capsys):
    # a header of hidden size 10^6 with consistent shapes and its 8 MB wz
    # block, but none of the 8 TB uz block
    trace = synth_trace(tmp_path)
    run_dir = str(tmp_path / "run")
    run_k2(trace, run_dir)
    h = 10 ** 6
    shapes = {"wz": [h, 1], "uz": [h, h], "bz": [h], "wr": [h, 1], "ur": [h, h], "br": [h],
              "wn": [h, 1], "un": [h, h], "bn": [h], "wo": [1, h], "bo": [1]}
    header = json.dumps({"format_version": 1, "input_size": 1, "hidden_size": h,
                         "output_size": 1, "seed": 0, "profile": "desk", "dtype": "float64",
                         "param_order": list(shapes), "shapes": shapes}).encode()
    with open(os.path.join(run_dir, "models", "cluster_1.bin"), "wb") as fh:
        fh.write(b"TMCF" + struct.pack("<II", 1, len(header)) + header + bytes(8 * h))
    assert main([
        "evaluate", "--trace", trace, "--partition", os.path.join(run_dir, "partition.json"),
        "--models", os.path.join(run_dir, "models"), "--out-dir", str(tmp_path / "eval"),
    ] + TRAIN_FLAGS) == EXIT_DATA
    assert "parameter blocks take" in capsys.readouterr().err


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


def test_cluster_hac_needs_linkage_only_for_an_outside_matrix(tmp_path, capsys):
    matrix = str(tmp_path / "dissimilarity.npy")
    np.save(matrix, THREE_POINTS)
    assert main([
        "cluster", "--method", "hac", "--dissimilarity", matrix,
        "--k", "2", "--out-dir", str(tmp_path / "cluster"),
    ]) == EXIT_CONFIG
    assert "--linkage" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "cluster")
    # features carry their representation, and with it the linkage tmcf run uses
    features = tmp_path / "features"
    features.mkdir()
    np.savetxt(features / "features.csv", THREE_POINTS, delimiter=",")
    (features / "features_meta.json").write_text(
        json.dumps({"representation": "acf", "metric": "euclidean"}))
    assert main([
        "cluster", "--method", "hac", "--features", str(features),
        "--k", "2", "--out-dir", str(tmp_path / "cluster"),
    ]) == EXIT_OK
    assert json.loads(read(tmp_path / "cluster" / "partition.json"))["method"] == "acf"


@pytest.mark.parametrize("name,content", [
    ("missing.npy", None),
    ("missing.csv", None),
    ("malformed.csv", "0,1\n1,zero\n"),
    ("asymmetric.npy", np.array([[0.0, 1.0], [2.0, 0.0]])),
    ("nan.npy", np.array([[0.0, np.nan], [np.nan, 0.0]])),
    ("diagonal.npy", np.array([[1.0, 1.0], [1.0, 0.0]])),
])
def test_cluster_on_an_unreadable_matrix_is_a_data_error(tmp_path, capsys, name, content):
    path = tmp_path / name
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        np.save(path, content)
    assert main([
        "cluster", "--method", "hac", "--dissimilarity", str(path), "--linkage", "average",
        "--k", "2", "--out-dir", str(tmp_path / "cluster"),
    ]) == EXIT_DATA
    assert str(path) in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "cluster")


def test_cluster_on_an_empty_matrix_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "empty.npy"
    np.save(path, np.zeros((0, 0)))
    assert main([
        "cluster", "--method", "hac", "--dissimilarity", str(path), "--linkage", "average",
        "--k", "2", "--out-dir", str(tmp_path / "cluster"),
    ]) == EXIT_DATA
    assert f"{path}: need at least 2 items to cluster" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "cluster")


@pytest.mark.parametrize("defect", DEFECTS)
def test_cluster_rejects_a_defect_past_the_first_block(tmp_path, capsys, defect):
    path = tmp_path / "matrix.npy"
    np.save(path, defective_matrix(defect))
    assert main([
        "cluster", "--method", "hac", "--dissimilarity", str(path), "--linkage", "average",
        "--k", "2", "--out-dir", str(tmp_path / "cluster"),
    ]) == EXIT_DATA
    assert DEFECTS[defect] in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "cluster")


def write_config(tmp_path, **keys) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(keys))
    return str(path)


def test_validate_accepts_a_valid_config(tmp_path, capsys):
    config = write_config(tmp_path, trace=synth_trace(tmp_path), k=2, profile="desk")
    capsys.readouterr()
    assert main(["validate", "--config", config]) == EXIT_OK
    out = capsys.readouterr().out
    assert "config ok" in out and "error" not in out and "warning" not in out


def test_validate_prints_every_error(tmp_path, capsys):
    config = write_config(tmp_path, trace=str(tmp_path / "absent.csv"), k=0, bins=0)
    assert main(["validate", "--config", config]) == EXIT_CONFIG
    errors = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("error: ")]
    assert len(errors) == 3
    for text in ("trace path does not exist", "k must be >= 1", "bins must be >= 1"):
        assert any(text in line for line in errors), text


@pytest.mark.parametrize("keys,flags,warning", [
    ({"units": "packets"}, [], "physical RMSE assumes bytes per interval"),
    ({"profile": "desk"}, ["--hidden-size", "80"], "hidden_size=80 override will be slow"),
])
def test_validate_prints_warnings_and_passes(tmp_path, capsys, keys, flags, warning):
    config = write_config(tmp_path, trace=synth_trace(tmp_path), **keys)
    capsys.readouterr()
    assert main(["validate", "--config", config, *flags]) == EXIT_OK
    out = capsys.readouterr().out
    assert "warning: " in out and warning in out and "config ok" in out


def test_config_file_without_trace_takes_the_trace_flag(tmp_path, capsys):
    trace = synth_trace(tmp_path)
    complete = write_config(tmp_path, trace=trace, k=2)
    capsys.readouterr()
    assert main(["validate", "--config", complete]) == EXIT_OK
    expected = capsys.readouterr()
    without_trace = write_config(tmp_path, k=2)
    assert main(["validate", "--config", without_trace, "--trace", trace]) == EXIT_OK
    assert capsys.readouterr() == expected
    assert main(["run", "--config", without_trace, "--out-dir", str(tmp_path / "run")]) \
        == EXIT_CONFIG
    assert "a trace path is required" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["run", "--k", "2"], ["represent"],
                                  ["train", "--partition", "p.json"]])
def test_a_directory_in_a_one_file_format_is_a_data_error(tmp_path, capsys, argv):
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    argv = [*argv, "--trace", str(trace_dir), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_DATA
    assert "one file, not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["3", "[1]", '"k"'])
def test_config_file_that_is_not_an_object_exits_2(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_text(content)
    assert main(["validate", "--config", str(path), "--trace", synth_trace(tmp_path)]) \
        == EXIT_CONFIG
    assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("both", [False, True], ids=["neither", "both"])
def test_cluster_hac_takes_exactly_one_matrix_source(tmp_path, capsys, both):
    matrix = str(tmp_path / "dissimilarity.npy")
    np.save(matrix, THREE_POINTS)
    sources = ["--features", str(tmp_path), "--dissimilarity", matrix] if both else []
    assert main([
        "cluster", "--method", "hac", *sources, "--linkage", "average", "--k", "2",
        "--out-dir", str(tmp_path / "cluster"),
    ]) == EXIT_CONFIG
    assert "exactly one of --features, --dissimilarity" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "cluster")


def test_cluster_on_features_without_meta_is_a_data_error(tmp_path, capsys):
    features = tmp_path / "features"
    features.mkdir()
    (features / "features.csv").write_text("0,1\n1,0\n0.5,0.5\n")
    assert main([
        "cluster", "--method", "hac", "--features", str(features), "--linkage", "average",
        "--k", "2", "--out-dir", str(tmp_path / "cluster"),
    ]) == EXIT_DATA
    assert "features_meta.json" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "cluster")


def blank_one_cell(trace: str) -> str:
    """A copy of trace whose second row has an empty last cell."""
    lines = read(trace).decode("utf-8").splitlines(keepends=True)
    lines[2] = lines[2].rsplit(",", 1)[0] + ",\n"
    path = trace.replace("trace.csv", "gappy.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return path


def test_config_backed_steps_reproduce_a_run(tmp_path):
    # psd settings that only a config file or the shared run-config flags carry
    trace = blank_one_cell(synth_trace(tmp_path))
    run_dir, rep_dir, flag_dir = (str(tmp_path / d) for d in ("run", "rep", "flags"))
    cluster_dir, models_dir, eval_dir = (str(tmp_path / d) for d in ("cl", "models", "eval"))
    config = write_config(tmp_path, trace=trace, representation="psd", missing="zero",
                          segment_length=128, normalize_power=False, k=2, epochs=2,
                          profile="desk")
    assert main(["run", "--config", config, "--out-dir", run_dir]) == EXIT_OK
    assert main(["represent", "--config", config, "--out-dir", rep_dir]) == EXIT_OK
    flag_config = str(tmp_path / "flags.json")
    with open(flag_config, "w", encoding="utf-8") as fh:
        json.dump({"trace": trace, "representation": "psd", "segment_length": 128}, fh)
    assert main(["represent", "--config", flag_config, "--missing", "zero", "--raw-power",
                 "--out-dir", flag_dir]) == EXIT_OK
    for name in ("features.csv", "features_meta.json"):
        assert read(os.path.join(rep_dir, name)) == read(os.path.join(run_dir, name)), name
        assert read(os.path.join(flag_dir, name)) == read(os.path.join(run_dir, name)), name

    assert main(["cluster", "--features", rep_dir, "--k", "2",
                 "--out-dir", cluster_dir]) == EXIT_OK
    partition = os.path.join(cluster_dir, "partition.json")
    assert main(["train", "--config", config, "--partition", partition,
                 "--out-dir", models_dir]) == EXIT_OK
    assert main(["evaluate", "--config", config, "--partition", partition,
                 "--models", models_dir, "--out-dir", eval_dir]) == EXIT_OK
    name = "eval_report.json"
    assert read(os.path.join(eval_dir, name)) == read(os.path.join(run_dir, name))


def without_times_and_out_dir(manifest: dict) -> dict:
    for entry in manifest["stages"].values():
        for key in ("wall_time_seconds", "peak_rss_mib", "children_peak_rss_mib"):
            del entry[key]
    del manifest["config"]["out_dir"]
    return manifest


@pytest.mark.parametrize("flags,keys", [
    (["--segment-length", "128"], {"segment_length": 128}),
    (["--units", "packets"], {"units": "packets"}),
], ids=["segment_length", "units"])
def test_a_run_setting_by_flag_writes_what_the_config_key_writes(tmp_path, flags, keys):
    trace = synth_trace(tmp_path)
    by_flag, by_key = str(tmp_path / "flag"), str(tmp_path / "key")
    base = ["run", "--trace", trace, "--representation", "psd", "--k", "2", *TRAIN_FLAGS]
    assert main([*base, *flags, "--out-dir", by_flag]) == EXIT_OK
    assert main([*base, "--config", write_config(tmp_path, **keys), "--out-dir", by_key]) \
        == EXIT_OK
    flag_files, key_files = files(by_flag), files(by_key)
    manifests = [json.loads(f.pop("manifest.json")) for f in (flag_files, key_files)]
    assert flag_files == key_files
    assert without_times_and_out_dir(manifests[0]) == without_times_and_out_dir(manifests[1])
    assert all(manifests[0]["config"][key] == value for key, value in keys.items())


@pytest.mark.parametrize("flags,error", [
    (["--k-grid", "1,2"], "error: k_grid must hold at least 3 distinct integers"),
    (["--repetitions", "0"], "error: repetitions must be >= 1"),
], ids=["k_grid", "repetitions"])
def test_validate_checks_the_sweep_flags(capsys, flags, error):
    assert main(["validate", *flags]) == EXIT_CONFIG
    assert error in capsys.readouterr().out


@pytest.mark.parametrize("flags,error", [
    (["--format", "geant", "--interval-seconds", "300"], "fixed by format 'geant'"),
    (["--format", "geant", "--missing", "zero"], "format 'geant' rejects empty cells"),
    (["--format", "canonical"], "trace path does not exist"),
], ids=["geant_interval", "geant_missing", "missing_input"])
def test_ingest_checks_its_settings_as_run_does(tmp_path, capsys, flags, error):
    trace = synth_trace(tmp_path) if "geant" in flags else str(tmp_path / "absent.csv")
    out = tmp_path / "canonical.csv"
    capsys.readouterr()
    assert main(["ingest", "--input", trace, *flags, "--out", str(out)]) == EXIT_CONFIG
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_represent_naive_points_to_cluster(tmp_path, capsys):
    assert main([
        "represent", "--trace", synth_trace(tmp_path), "--representation", "naive",
        "--out-dir", str(tmp_path / "represent"),
    ]) == EXIT_CONFIG
    assert "tmcf cluster --method naive" in capsys.readouterr().err


def valid_partition(tmp_path) -> str:
    path = tmp_path / "partition.json"
    path.write_text(json.dumps({"labels": [1] * 8 + [2] * 8, "k": 2}))
    return str(path)


@pytest.mark.parametrize("case", ["missing", "malformed", "without_k", "missing_models",
                                  1.5, "1", True, "float_k"])
def test_unreadable_partition_or_models_is_a_data_error(tmp_path, capsys, case):
    trace = synth_trace(tmp_path)
    partition = str(tmp_path / "partition.json")
    models = str(tmp_path / "models")
    named = partition
    if case == "malformed":
        (tmp_path / "partition.json").write_text('{"k": 2, "labels": [1, 2')
    elif case == "without_k":
        (tmp_path / "partition.json").write_text(json.dumps({"labels": [1] * 16}))
    elif case == "float_k":
        (tmp_path / "partition.json").write_text(
            json.dumps({"labels": [1] * 8 + [2] * 8, "k": 2.0}))
    elif case in (1.5, "1", True):
        # a label that numpy would read as 1 is still no JSON integer
        (tmp_path / "partition.json").write_text(
            json.dumps({"labels": [case] + [1] * 7 + [2] * 8, "k": 2}))
    elif case == "missing_models":
        partition, named = valid_partition(tmp_path), models
    capsys.readouterr()
    assert main([
        "evaluate", "--trace", trace, "--partition", partition, "--models", models,
        "--out-dir", str(tmp_path / "eval"),
    ] + TRAIN_FLAGS) == EXIT_DATA
    assert named in capsys.readouterr().err
    if case != "missing_models":
        assert main([
            "train", "--trace", trace, "--partition", partition,
            "--out-dir", str(tmp_path / "train"),
        ] + TRAIN_FLAGS) == EXIT_DATA
        assert named in capsys.readouterr().err


@pytest.mark.parametrize("keys,mistyped", [
    ({"k": "2"}, ["k"]),
    ({"train_frac": "0.8"}, ["train_frac"]),
    ({"representation": "acf", "lags": "1,2"}, ["lags"]),
    ({"representation": "acf", "lags": "12"}, ["lags"]),
    ({"normalize_power": "no"}, ["normalize_power"]),
    ({"k": True}, ["k"]),
    ({"k_grid": [1, "2"]}, ["k_grid"]),
    ({"seed": None}, ["seed"]),
    # an int fits a float field; every mistyped key is named
    ({"fs": 2, "k": "2", "train_frac": "0.8"}, ["k", "train_frac"]),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, keys, mistyped, command):
    config = write_config(tmp_path, trace=synth_trace(tmp_path), **{"k": 2, **keys})
    capsys.readouterr()
    argv = [command, "--config", config, "--out-dir", str(tmp_path / "out")]
    assert main(argv + TRAIN_FLAGS) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "wrong type" in err
    assert [key for key in keys if f"{key}=" in err] == mistyped


@pytest.mark.parametrize("flags,keys", [
    (["--val-frac", "0"], {}),
    (["--hidden-size", "0"], {}),
    (["--epochs", "0"], {}),
    (["--interval-seconds", "0"], {}),
    (["--representation", "psd", "--fs", "0"], {}),
    (["--representation", "acf", "--lags", "-1", "2"], {}),
    ([], {"representation": "psd", "segment_length": 0}),
    ([], {"k_grid": [2, 2, 1]}),
    # the abilene and geant loaders would ignore these
    (["--format", "geant", "--interval-seconds", "300"], {}),
    (["--format", "abilene", "--interval-seconds", "300"], {}),
    (["--format", "geant", "--missing", "zero"], {}),
], ids=["val_frac", "hidden_size", "epochs", "interval_seconds", "fs", "lags",
        "segment_length", "k_grid", "geant_interval", "abilene_interval", "geant_missing"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_config_that_cannot_run_does_not_validate(tmp_path, capsys, command, flags, keys):
    # each would fail the run only after the parse, so validate rejects it
    config = write_config(tmp_path, trace=synth_trace(tmp_path), k=2, **keys)
    run_dir = tmp_path / "run"
    capsys.readouterr()
    assert main([command, "--config", config, "--out-dir", str(run_dir), *flags]) == EXIT_CONFIG
    assert "config ok" not in capsys.readouterr().out
    assert not run_dir.exists()


def no_parse(*args, **kwargs):
    raise AssertionError("the trace was parsed")


@pytest.mark.parametrize("grid", ["1,2", "2,2,2"])
def test_a_sweep_of_fewer_than_3_distinct_k_exits_2_before_the_parse(tmp_path, capsys,
                                                                      monkeypatch, grid):
    # the knee search needs 3 points; this was found only after every model trained
    trace = synth_trace(tmp_path)
    monkeypatch.setattr(pipeline, "load_tm_series", no_parse)
    out_dir = tmp_path / "sweep"
    capsys.readouterr()
    argv = ["sweep", "--trace", trace, "--k-grid", grid, "--out-dir", str(out_dir)]
    assert main(argv + TRAIN_FLAGS) == EXIT_CONFIG
    assert "k_grid must hold at least 3 distinct integers" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("field", ["representation", "format", "missing", "metric",
                                   "linkage", "profile"])
def test_validate_checks_every_choice(tmp_path, capsys, field):
    config = write_config(tmp_path, trace=synth_trace(tmp_path), **{field: "bogus"})
    capsys.readouterr()
    assert main(["validate", "--config", config]) == EXIT_CONFIG
    errors = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith(f"error: {field} must be one of")]
    assert len(errors) == 1
    assert "'bogus'" in errors[0]
    for value in CHOICES[field]:
        assert repr(value) in errors[0], value


@pytest.mark.parametrize("spec,grid", [
    ("1,11,21", [1, 11, 21]),
    ("2:4", [2, 3, 4]),
    ("1:5:2", [1, 3, 5]),
    ("1:6:2", [1, 3, 5]),
])
def test_parse_grid(spec, grid):
    assert _parse_grid(spec) == grid


@pytest.mark.parametrize("spec", ["5:1:-1", "1:5:0", "1:2:3:4", "1,two"])
def test_parse_grid_rejects_bad_specs(spec):
    with pytest.raises(ConfigError, match="bad k grid"):
        _parse_grid(spec)
