"""Traced replica of one benchmark iteration.

Replays the stage sequence of `tmcf.run_pipeline` (a fresh run, then a
resume on the same directory) through the package's public functions, with
one span around each call. The replica writes the same artifacts as the
pipeline, so the run-directory writes are timed as well. Its RMSE and
partition must equal the real fresh run's exactly, which shows that the
per-layer times describe the program that the end-to-end metrics measured.
"""

from __future__ import annotations

import math
import os
import shutil

import numpy as np

from tmcf import (
    FlowSet,
    Partition,
    ari,
    build_features,
    cut,
    extract_flows,
    fit_scale_params,
    hac,
    load_model,
    load_tm_series,
    make_windows,
    normalize,
    per_flow_rmse,
    pairwise_dissimilarity,
    predict_tm,
    save_model,
    split,
    train_partitioned,
    write_canonical_csv,
)
from tmcf.cluster import DEFAULT_LINKAGE
from tmcf.pipeline import (
    _write_dendrogram_csv,
    _write_matrix_csv,
    build_eval_report,
    dump_json,
    load_json,
)

# Per-layer time metric -> the span names whose self time it sums.
LAYER_TIMES = {
    "dataset.load_s": ("dataset.load_tm_series",),
    "dataset.prepare_s": (
        "dataset.split", "dataset.extract_flows", "dataset.fit_scale_params", "dataset.normalize",
    ),
    "represent.features_s": ("represent.build_features",),
    "represent.dissimilarity_s": ("represent.pairwise_dissimilarity",),
    "cluster.hac_s": ("cluster.hac",),
    "cluster.cut_s": ("cluster.cut",),
    "predict.train_s": ("predict.train_partitioned",),
    "predict.predict_s": ("predict.predict_tm",),
    "predict.save_s": ("predict.save_model",),
    "predict.load_s": ("predict.load_model",),
    "evaluate.score_s": (
        "evaluate.truth_windows", "evaluate.build_eval_report", "evaluate.per_flow_rmse",
        "evaluate.ari",
    ),
}
ARTIFACT_PREFIX = "pipeline.artifact:"


# run_pipeline writes this file inline; the same format as a function.
def _write_per_flow_csv(errors: np.ndarray, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("flow,rmse_normalized\n")
        for i, v in enumerate(errors):
            fh.write(f"{i},{float(v)!r}\n")


class Replica:
    """One traced fresh-then-resume pass; counts are kept as it goes."""

    def __init__(self, cfg, planted: Partition, spans, run_dir: str):
        self.cfg = cfg
        self.planted = planted
        self.spans = spans
        self.run_dir = run_dir
        self.counts = {"dataset.cells": 0}

    def write(self, name: str, fn, *args, **kwargs) -> None:
        """One run-directory artifact write, timed as the pipeline layer."""
        self.spans.call(ARTIFACT_PREFIX + name, fn, *args, **kwargs)

    def path(self, name: str) -> str:
        return os.path.join(self.run_dir, name)

    def ingest(self):
        cfg, call = self.cfg, self.spans.call
        with self.spans.span("stage.ingest"):
            tm = call("dataset.load_tm_series", load_tm_series, cfg.trace, format=cfg.format,
                      interval_seconds=cfg.interval_seconds, missing=cfg.missing)
            self.counts["dataset.cells"] += tm.n_steps * tm.n_flows
            ranges = call("dataset.split", split, tm.n_steps, cfg.train_frac, cfg.val_frac,
                          cfg.window_length)
            flows = call("dataset.extract_flows", extract_flows, tm)
            scale = call("dataset.fit_scale_params", fit_scale_params, flows, (0, ranges.val[1]))
            flows_norm = call("dataset.normalize", normalize, flows, scale)
            self.write("trace.csv", write_canonical_csv, tm, self.path("trace.csv"))
            self.write("scale.json", dump_json, {
                "n_nodes": tm.n_nodes,
                "n_steps": tm.n_steps,
                "interval_seconds": tm.interval_seconds,
                "splits": ranges.as_dict(),
                "normalize": "per_flow",
                "scale_min": [float(v) for v in scale.per_flow_min],
                "scale_max": [float(v) for v in scale.per_flow_max],
            }, self.path("scale.json"))
            self.write("flows_norm.npz", np.savez_compressed, self.path("flows_norm.npz"),
                       flows=flows_norm.values)
        return tm, flows_norm, scale, ranges

    def cluster(self, tm, flows_norm, ranges) -> Partition:
        cfg, call = self.cfg, self.spans.call
        with self.spans.span("stage.cluster"):
            train_block = FlowSet(tm.n_nodes, tm.interval_seconds,
                                  flows_norm.values[:, : ranges.val[1]])
            feats = call("represent.build_features", build_features, train_block,
                         cfg.representation, bins=cfg.bins, lags=cfg.lags, fs=cfg.fs,
                         normalize_power=cfg.normalize_power,
                         segment_length=cfg.segment_length)
            diss = call("represent.pairwise_dissimilarity", pairwise_dissimilarity, feats,
                        cfg.metric)
            linkage = cfg.linkage or DEFAULT_LINKAGE[cfg.representation]
            dendro = call("cluster.hac", hac, diss.d, linkage)
            part = call("cluster.cut", cut, dendro, cfg.k)
            part.method = cfg.representation
            m = diss.d.shape[0]
            self.counts["represent.pairs"] = m * (m - 1) // 2
            self.counts["cluster.merges"] = len(dendro.merges)
            self.write("partition.json", dump_json, part.to_dict(), self.path("partition.json"))
            self.write("dendrogram.csv", _write_dendrogram_csv, dendro, self.path("dendrogram.csv"))
            self.write("dissimilarity.csv", _write_matrix_csv, diss.d,
                       self.path("dissimilarity.csv"))
            self.write("features.csv", _write_matrix_csv, feats.features,
                       self.path("features.csv"))
            self.write("features_meta.json", dump_json, feats.meta,
                       self.path("features_meta.json"))
        return part

    def train(self, part: Partition, flows_norm, ranges) -> dict:
        cfg = self.cfg
        with self.spans.span("stage.train"):
            gru_cfg = cfg.gru_config(input_size=1)
            results = self.spans.call("predict.train_partitioned", train_partitioned, part,
                                      flows_norm.values, gru_cfg, ranges.train, ranges.val,
                                      cfg.window_length)
            os.makedirs(self.path("models"), exist_ok=True)
            models, reports = {}, {}
            for label, (model, report) in sorted(results.items()):
                self.spans.call("predict.save_model", save_model, model,
                                self.path(f"models/cluster_{label}.bin"))
                models[label] = model
                reports[str(label)] = report.to_dict()
            self.write("train_report.json", dump_json,
                       {"profile": cfg.profile, "per_cluster": reports},
                       self.path("train_report.json"))
        n_windows = (ranges.train[1] - ranges.train[0]) - cfg.window_length + 1
        batches = math.ceil(n_windows / gru_cfg.batch_size)
        epochs = [r["epochs_run"] for r in reports.values()]
        self.counts["predict.models"] = len(results)
        self.counts["predict.epochs"] = sum(epochs)
        self.counts["predict.adam_steps"] = batches * sum(epochs)
        self.useful_epoch_ratio = sum(r["best_epoch"] + 1 for r in reports.values()) / sum(epochs)
        return models

    def reload(self):
        with self.spans.span("stage.cluster"):
            part = Partition.from_dict(self.spans.call(
                ARTIFACT_PREFIX + "partition.json(read)", load_json, self.path("partition.json")))
        with self.spans.span("stage.train"):
            models = {
                label: self.spans.call("predict.load_model", load_model,
                                       self.path(f"models/cluster_{label}.bin"))
                for label in range(1, part.k + 1)
            }
        return part, models

    def evaluate(self, tm, flows_norm, scale, ranges, part, models):
        cfg, call = self.cfg, self.spans.call
        with self.spans.span("stage.evaluate"):
            pred_norm, tm_pred = call("predict.predict_tm", predict_tm, models, part,
                                      flows_norm.values, ranges.test, cfg.window_length, scale,
                                      tm.n_nodes, tm.interval_seconds)
            truth_norm = call("evaluate.truth_windows", make_windows,
                              flows_norm.values[:, ranges.test[0]: ranges.test[1]].T,
                              cfg.window_length).targets
            truth_bytes = tm.values[ranges.test[0] + cfg.window_length - 1: ranges.test[1]]
            self.write("predictions.npz", np.savez_compressed, self.path("predictions.npz"),
                       pred_norm=pred_norm, pred_bytes=tm_pred.values, truth_norm=truth_norm,
                       truth_bytes=truth_bytes)
            report = call("evaluate.build_eval_report", build_eval_report, cfg, part,
                          truth_norm, pred_norm, truth_bytes, tm_pred.values,
                          tm.interval_seconds, train_block_len=ranges.val[1])
            self.write("eval_report.json", dump_json, report.to_dict(),
                       self.path("eval_report.json"))
            errors = call("evaluate.per_flow_rmse", per_flow_rmse, truth_norm, pred_norm)
            self.write("per_flow_rmse.csv", _write_per_flow_csv, errors,
                       self.path("per_flow_rmse.csv"))
            call("evaluate.ari", ari, part, self.planted)
            self.write("manifest.json", dump_json, {"config": cfg.to_dict()},
                       self.path("manifest.json"))
        return report.rmse_normalized

    def fresh(self):
        with self.spans.span("run.fresh"):
            tm, flows_norm, scale, ranges = self.ingest()
            part = self.cluster(tm, flows_norm, ranges)
            models = self.train(part, flows_norm, ranges)
            rmse = self.evaluate(tm, flows_norm, scale, ranges, part, models)
        return part, rmse

    def resume(self):
        with self.spans.span("run.resume"):
            tm, flows_norm, scale, ranges = self.ingest()
            part, models = self.reload()
            rmse = self.evaluate(tm, flows_norm, scale, ranges, part, models)
        return part, rmse


def traced_iteration(cfg, planted: Partition, spans, run_dir: str) -> tuple[dict, list[str]]:
    """Run the replica after the real iterations; returns (per-layer metrics,
    problems). cfg.out_dir still holds the real run's outputs to compare with."""
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    replica = Replica(cfg, planted, spans, run_dir)
    with spans.span("iteration"):
        part, rmse = replica.fresh()
        resumed_part, resumed_rmse = replica.resume()

    problems = []
    real_report = load_json(os.path.join(cfg.out_dir, "eval_report.json"))
    real_part = load_json(os.path.join(cfg.out_dir, "partition.json"))
    if rmse != real_report["rmse_normalized"]:
        problems.append(f"replica rmse {rmse!r} != run rmse {real_report['rmse_normalized']!r}")
    if part.labels.tolist() != real_part["labels"]:
        problems.append("replica partition differs from the run's")
    if resumed_rmse != rmse or resumed_part.labels.tolist() != part.labels.tolist():
        problems.append("replica resume differs from the replica's fresh pass")
    problems += _check_counts(replica.counts, cfg.out_dir)

    self_times = spans.self_times()
    layers = {name: sum(self_times.get(s, 0.0) for s in names)
              for name, names in LAYER_TIMES.items()}
    layers["pipeline.artifacts_s"] = sum(
        t for name, t in self_times.items() if name.startswith(ARTIFACT_PREFIX))
    layers["dataset.load_cells_per_s"] = replica.counts["dataset.cells"] / layers["dataset.load_s"]
    layers["predict.train_us_per_step"] = (
        1e6 * layers["predict.train_s"] / replica.counts["predict.adam_steps"])
    layers["predict.useful_epoch_ratio"] = replica.useful_epoch_ratio
    layers.update(replica.counts)
    return layers, problems


def _check_counts(counts: dict, real_dir: str) -> list[str]:
    """The replica's counts against what the real run wrote."""
    problems = []
    scale = load_json(os.path.join(real_dir, "scale.json"))
    expected_cells = 2 * scale["n_steps"] * scale["n_nodes"] ** 2
    if counts["dataset.cells"] != expected_cells:
        problems.append(f"dataset.cells {counts['dataset.cells']} != {expected_cells}")
    with open(os.path.join(real_dir, "dendrogram.csv"), encoding="utf-8") as fh:
        merges = sum(1 for _ in fh) - 1
    if counts["cluster.merges"] != merges:
        problems.append(f"cluster.merges {counts['cluster.merges']} != {merges}")
    per_cluster = load_json(os.path.join(real_dir, "train_report.json"))["per_cluster"]
    epochs = sum(r["epochs_run"] for r in per_cluster.values())
    if counts["predict.models"] != len(per_cluster) or counts["predict.epochs"] != epochs:
        problems.append("replica trained other models or epochs than the run")
    return problems
