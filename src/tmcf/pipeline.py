"""The pipeline core and reproducible run directories.

Every entry point (run_pipeline, sweep, compare and the CLI's represent,
train and evaluate) calls the same steps, so all compute the same numbers
from the same prepared trace: prepare (load, split, extract, fit scale,
normalize), represent, train_models, score and write_report.

A run directory holds, by stage:

- ingest: scale.json
- cluster: partition.json; with HAC also dendrogram.csv, dissimilarity.npy
  (read back by `tmcf cluster --dissimilarity`), features.csv and
  features_meta.json
- train: models/cluster_<id>.bin and train_report.json
- evaluate: predictions.npz (uncompressed), eval_report.json and
  per_flow_rmse.csv

plus manifest.json (config echo, seeds, versions, stage wall times, stage
hashes). It keeps no copy of the trace or of the normalized flows: the
manifest's ingest entry records trace_sha256, a hash of the loaded trace's
values and interval. Re-running with the same config and seeds reproduces
byte-identical metric outputs. A fresh run first removes any previous
manifest, so a resume never pairs it with a crashed run's artifacts. With
resume=True, stages whose hash is unchanged are loaded from the run
directory instead of recomputed, and keep the manifest entry of the run
that computed them, marked "reused". The ingest hash covers the trace hash
and each later stage hash chains on the one before, so a resume after the
trace's contents change recomputes every stage.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import time
from dataclasses import asdict, astuple, dataclass, replace
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np
import scipy

from . import __version__
from . import cluster as cluster_mod
from . import represent as represent_mod
from .cluster import Partition
from .dataset import (
    MISSING_POLICIES,
    TRACE_FORMATS,
    FlowSet,
    TmSeries,
    extract_flows,
    fit_scale_params,
    load_tm_series,
    make_windows,
    normalize,
    split,
)
from .errors import ConfigError, DataError
from .evaluate import (
    EvalReport,
    SweepCurve,
    cluster_stats,
    error_correlation,
    kneedle,
    nmi,
    per_flow_rmse,
    rmse,
    rmse_physical,
)
from .evaluate import ari as ari_score
from .predict import PROFILES, GruConfig, load_model, predict_tm, save_model, train_partitioned

METHODS = (*represent_mod.REPRESENTATIONS, "naive")

# RunConfig field -> its allowed values, each set declared by the module that
# implements it; validate_config and the CLI's choices read them here
CHOICES = {
    "representation": METHODS,
    "format": TRACE_FORMATS,
    "missing": MISSING_POLICIES,
    "metric": represent_mod.METRICS,
    "linkage": cluster_mod.LINKAGES,
    "profile": tuple(PROFILES),
}

# traces above this many flow-observations trigger a paper-profile warning
_PAPER_PROFILE_BUDGET = 2_000_000


@dataclass
class RunConfig:
    """Everything a pipeline run depends on; JSON-serializable."""

    trace: str
    representation: str = "histogram"
    format: str = "canonical"
    interval_seconds: int | None = None
    missing: str = "reject"
    metric: str | None = None
    linkage: str | None = None
    k: int | None = None
    k_grid: list[int] | None = None
    repetitions: int = 5
    bins: int = represent_mod.DEFAULT_BINS
    lags: list[int] | None = None
    fs: float | None = None
    normalize_power: bool = True
    segment_length: int | None = None
    window_length: int = 11
    train_frac: float = 0.8
    val_frac: float = 0.1
    profile: str = "desk"
    hidden_size: int | None = None
    epochs: int | None = None
    seed: int | None = 0
    out_dir: str = "runs/run"
    units: str = "bytes_per_interval"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        hints = get_type_hints(cls)
        unknown = set(d) - set(hints)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        mistyped = [f"{key}={value!r} (expected {cls.__dataclass_fields__[key].type})"
                    for key, value in d.items() if not _fits(value, hints[key])]
        if mistyped:
            raise ConfigError(f"config values of the wrong type: {', '.join(mistyped)}")
        return cls(**d)

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def gru_config(self, input_size: int) -> GruConfig:
        overrides = {}
        if self.hidden_size is not None:
            overrides["hidden_size"] = self.hidden_size
        if self.epochs is not None:
            overrides["epochs"] = self.epochs
        return GruConfig.for_profile(
            self.profile, input_size=input_size, seed=self.seed or 0, **overrides
        )


def _fits(value, hint) -> bool:
    """Whether a value fits a RunConfig annotation: an int fits a float, a
    bool fits only a bool, and a list fits if every item does."""
    if get_origin(hint) in (Union, UnionType):
        return any(_fits(value, h) for h in get_args(hint))
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, get_args(hint)[0]) for v in value)
    if hint is float:
        return type(value) in (int, float)
    return type(value) is hint


def validate_config(config: RunConfig, trace_required: bool = True) -> tuple[list[str], list[str]]:
    """Collect configuration errors and warnings without raising."""
    warnings: list[str] = []
    errors = [
        f"{name} must be one of {choices}, got {value!r}"
        for name, choices in CHOICES.items()
        if (value := getattr(config, name)) not in choices
        # None, the default of metric and linkage, means the representation's own
        and not (value is None and RunConfig.__dataclass_fields__[name].default is None)
    ]
    if trace_required and not os.path.exists(config.trace):
        errors.append(f"trace path does not exist: {config.trace}")
    if config.metric == "jsd" and config.representation != "histogram":
        errors.append(
            f"metric 'jsd' is only compatible with the histogram representation, "
            f"not {config.representation!r}"
        )
    if config.representation == "naive":
        if config.seed is None:
            errors.append("the naive representation requires an explicit seed")
        if config.linkage is not None or config.metric is not None:
            warnings.append("linkage/metric are ignored by the naive representation")
    if config.k is not None and config.k < 1:
        errors.append(f"k must be >= 1, got {config.k}")
    if config.k_grid is not None and (
        not config.k_grid or any(k < 1 for k in config.k_grid)
    ):
        errors.append("k_grid must be a nonempty list of integers >= 1")
    if config.repetitions < 1:
        errors.append(f"repetitions must be >= 1, got {config.repetitions}")
    if not 0.0 < config.train_frac < 1.0:
        errors.append(f"train_frac must be in (0, 1), got {config.train_frac}")
    if not 0.0 <= config.val_frac < 1.0:
        errors.append(f"val_frac must be in [0, 1), got {config.val_frac}")
    if config.window_length < 2:
        errors.append(f"window_length must be >= 2, got {config.window_length}")
    if config.bins < 1:
        errors.append(f"bins must be >= 1, got {config.bins}")
    if config.profile == "desk" and (config.hidden_size or 0) > 64:
        warnings.append(
            f"desk profile with hidden_size={config.hidden_size} override will be slow; "
            "use profile=paper if full-scale settings are intended"
        )
    if config.profile == "paper" and trace_required and os.path.exists(config.trace):
        size = os.path.getsize(config.trace)
        if size > 8 * _PAPER_PROFILE_BUDGET:
            warnings.append(
                "paper profile on a large trace: expect hours of training "
                "(hidden 200, 100 epochs per cluster)"
            )
    if config.units != "bytes_per_interval":
        warnings.append(
            f"trace units {config.units!r}: physical RMSE assumes bytes per interval "
            "and will be skipped"
        )
    return errors, warnings


def require_valid(config: RunConfig, trace_required: bool = True) -> list[str]:
    errors, warnings = validate_config(config, trace_required)
    if errors:
        raise ConfigError("; ".join(errors))
    return warnings


# ---------------------------------------------------------------------------
# Manifest and artifact helpers
# ---------------------------------------------------------------------------


def dump_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_partition(path: str) -> Partition:
    """A partition.json; a missing or malformed file raises DataError."""
    try:
        return Partition.from_dict(load_json(path))
    except (OSError, ValueError, KeyError, TypeError, DataError) as exc:
        raise DataError(f"cannot read partition {path}: {exc!r}") from None


def config_hash(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


class Manifest:
    """Stage ledger of one run directory."""

    def __init__(self, run_dir: str, config: RunConfig):
        self.path = os.path.join(run_dir, "manifest.json")
        self.data = {
            "config": config.to_dict(),
            "config_hash": config_hash(config.to_dict()),
            "versions": {
                "tmcf": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": platform.python_version(),
            },
            "stages": {},
        }

    def load_previous(self) -> dict:
        try:
            return load_json(self.path).get("stages", {})
        except (json.JSONDecodeError, OSError):
            return {}

    def record(self, stage: str, stage_hash: str, wall_time: float, artifacts: list[str],
               **extra):
        self.data["stages"][stage] = {
            "hash": stage_hash,
            "wall_time_seconds": wall_time,
            "artifacts": artifacts,
            **extra,
        }

    def reuse(self, stage: str, previous: dict) -> None:
        """Carry a reused stage's entry over: what the run that computed it
        recorded (time and artifacts included), marked as reused."""
        self.data["stages"][stage] = {**previous, "reused": True}

    def write(self) -> None:
        dump_json(self.data, self.path)


def _write_matrix_csv(matrix: np.ndarray, path: str) -> None:
    np.savetxt(path, matrix, delimiter=",", fmt="%.17g")


def _write_csv(path: str, header: str, rows) -> None:
    """One comma-separated line per row; floats in their shortest repr."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _write_dendrogram_csv(dendro: cluster_mod.Dendrogram, path: str) -> None:
    _write_csv(path, "merge_index,cluster_a,cluster_b,height,new_size",
               ((i, *merge) for i, merge in enumerate(dendro.merges)))


def write_features(feats: represent_mod.ReprMatrix, diss: represent_mod.DissimilarityMatrix,
                   out_dir: str) -> list[str]:
    """features.csv, dissimilarity.npy and features_meta.json (the
    representation, the metric and the features' meta); returns their names."""
    np.save(os.path.join(out_dir, "dissimilarity.npy"), diss.d)
    _write_matrix_csv(feats.features, os.path.join(out_dir, "features.csv"))
    dump_json({"representation": feats.kind, "metric": diss.metric, **feats.meta},
              os.path.join(out_dir, "features_meta.json"))
    return ["dissimilarity.npy", "features.csv", "features_meta.json"]


def write_partition(part: Partition, dendro: cluster_mod.Dendrogram | None,
                    out_dir: str) -> list[str]:
    """partition.json and, given a dendrogram, dendrogram.csv; returns the
    names written."""
    dump_json(part.to_dict(), os.path.join(out_dir, "partition.json"))
    if dendro is None:
        return ["partition.json"]
    _write_dendrogram_csv(dendro, os.path.join(out_dir, "dendrogram.csv"))
    return ["partition.json", "dendrogram.csv"]


def write_report(report: EvalReport, out_dir: str) -> None:
    """eval_report.json and per_flow_rmse.csv (one row per flow)."""
    dump_json(report.to_dict(), os.path.join(out_dir, "eval_report.json"))
    _write_csv(os.path.join(out_dir, "per_flow_rmse.csv"), "flow,rmse_normalized",
               enumerate(report.per_flow_rmse))


def write_sweep_csv(curve: SweepCurve, path: str) -> None:
    _write_csv(path, "k,mean_rmse,rmse_std,mean_runtime_s", zip(
        curve.k_values, curve.mean_rmse, curve.rmse_std, curve.mean_runtime_seconds))


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def trace_sha256(tm: TmSeries) -> str:
    """Content hash of a loaded trace: its shape, values and interval."""
    h = hashlib.sha256(repr(tm.values.shape).encode("utf-8"))
    h.update(tm.values.tobytes())
    h.update(str(tm.interval_seconds).encode("utf-8"))
    return h.hexdigest()


def prepare(config: RunConfig):
    """Load, split, extract and normalize; returns (tm, flows_norm, scale, ranges).
    Scale parameters are fit on the training and validation regions only."""
    tm = load_tm_series(
        config.trace,
        format=config.format,
        interval_seconds=config.interval_seconds,
        missing=config.missing,
    )
    ranges = split(tm.n_steps, config.train_frac, config.val_frac, config.window_length)
    flows = extract_flows(tm)
    scale = fit_scale_params(flows, (0, ranges.val[1]))
    flows_norm = normalize(flows, scale)
    return tm, flows_norm, scale, ranges


def represent(config: RunConfig, tm: TmSeries, flows_norm: FlowSet, ranges):
    """Features and dissimilarities of the training block; returns (feats, diss)."""
    train_block = flows_norm.values[:, : ranges.val[1]]
    feats = represent_mod.build_features(
        FlowSet(tm.n_nodes, tm.interval_seconds, train_block),
        config.representation,
        bins=config.bins,
        lags=config.lags,
        fs=config.fs,
        normalize_power=config.normalize_power,
        segment_length=config.segment_length,
    )
    return feats, represent_mod.pairwise_dissimilarity(feats, config.metric)


def _check_k(k, m: int) -> None:
    if k is None or not 1 <= k <= m:
        raise ConfigError(f"k must lie in [1, {m}], got {k}")


def build_dendrogram(config: RunConfig, tm: TmSeries, flows_norm: FlowSet, ranges):
    """Represent the training block and build its HAC dendrogram; returns
    (dendro, feats, diss), all None for the naive baseline."""
    if config.representation == "naive":
        return None, None, None
    feats, diss = represent(config, tm, flows_norm, ranges)
    linkage = config.linkage or cluster_mod.DEFAULT_LINKAGE[config.representation]
    return cluster_mod.hac(diss.d, linkage), feats, diss


def make_partition(config: RunConfig, dendro, n_flows: int) -> Partition:
    """The dendrogram cut into config.k clusters or, without a dendrogram,
    the naive baseline drawn with config.seed."""
    _check_k(config.k, n_flows)
    if dendro is None:
        return cluster_mod.naive_partition(n_flows, config.k, seed=config.seed)
    part = cluster_mod.cut(dendro, config.k)
    part.method = config.representation
    return part


def train_models(config: RunConfig, flows_norm: FlowSet, ranges, part: Partition,
                 model_dir: str | None = None, report_path: str | None = None) -> dict:
    """Train one forecaster per cluster; returns {cluster id: model}. Given
    model_dir, saves the models there and the loss curves to report_path
    (default: train_report.json in model_dir)."""
    results = train_partitioned(
        part, flows_norm.values, config.gru_config(input_size=1),
        ranges.train, ranges.val, config.window_length,
    )
    if model_dir is not None:
        os.makedirs(model_dir, exist_ok=True)
        reports = {}
        for label, (model, report) in sorted(results.items()):
            save_model(model, os.path.join(model_dir, f"cluster_{label}.bin"))
            reports[str(label)] = report.to_dict()
        dump_json({"profile": config.profile, "per_cluster": reports},
                  report_path or os.path.join(model_dir, "train_report.json"))
    return {label: model for label, (model, _) in results.items()}


def load_models(model_dir: str, part: Partition) -> dict:
    """{cluster id: model} from model_dir; a missing model file raises DataError."""
    models = {}
    for label in range(1, part.k + 1):
        path = os.path.join(model_dir, f"cluster_{label}.bin")
        try:
            models[label] = load_model(path)
        except OSError as exc:
            raise DataError(f"cannot read model {path}: {exc!r}") from None
    return models


def score(config: RunConfig, tm: TmSeries, flows_norm: FlowSet, scale, ranges,
          part: Partition, models: dict) -> tuple[EvalReport, dict]:
    """Predict the test region and score it; returns the report and the
    arrays of predictions.npz (predictions and truths, normalized and bytes)."""
    pred_norm, tm_pred = predict_tm(
        models, part, flows_norm.values, ranges.test, config.window_length,
        scale, tm.n_nodes, tm.interval_seconds,
    )
    truth_norm = make_windows(
        flows_norm.values[:, ranges.test[0] : ranges.test[1]].T, config.window_length
    ).targets
    truth_bytes = tm.values[ranges.test[0] + config.window_length - 1 : ranges.test[1]]
    report = build_eval_report(config, part, truth_norm, pred_norm, truth_bytes,
                               tm_pred.values, tm.interval_seconds,
                               train_block_len=ranges.val[1])
    return report, dict(pred_norm=pred_norm, pred_bytes=tm_pred.values,
                        truth_norm=truth_norm, truth_bytes=truth_bytes)


def run_pipeline(config: RunConfig, resume: bool = False) -> str:
    """Execute the full pipeline; returns the run directory path."""
    warnings = require_valid(config)
    run_dir = config.out_dir
    model_dir = os.path.join(run_dir, "models")
    os.makedirs(model_dir, exist_ok=True)
    manifest = Manifest(run_dir, config)
    if resume:
        previous = manifest.load_previous()
    else:
        previous = {}
        with contextlib.suppress(FileNotFoundError):
            os.remove(manifest.path)
    cfg = config.to_dict()

    def stage(name: str, keys: list[str], upstream: str, artifacts: list[str]):
        payload = {"stage": name, "upstream": upstream}
        payload.update({k: cfg[k] for k in keys})
        h = config_hash(payload)
        prev = previous.get(name)
        reusable = (
            resume
            and prev is not None
            and prev.get("hash") == h
            and all(os.path.exists(os.path.join(run_dir, a)) for a in artifacts)
        )
        return h, reusable

    # --- ingest + extract + normalize -------------------------------------
    t0 = time.perf_counter()
    tm, flows_norm, scale, ranges = prepare(config)
    trace_digest = trace_sha256(tm)
    ingest_hash, _ = stage(
        "ingest",
        ["trace", "format", "interval_seconds", "missing", "train_frac", "val_frac",
         "window_length"],
        trace_digest,
        [],
    )
    dump_json(
        {
            "n_nodes": tm.n_nodes,
            "n_steps": tm.n_steps,
            "interval_seconds": tm.interval_seconds,
            "splits": ranges.as_dict(),
            "normalize": "per_flow",
            "scale_min": [float(v) for v in scale.per_flow_min],
            "scale_max": [float(v) for v in scale.per_flow_max],
        },
        os.path.join(run_dir, "scale.json"),
    )
    manifest.record(
        "ingest", ingest_hash, time.perf_counter() - t0,
        ["scale.json"], trace_sha256=trace_digest,
    )

    # --- represent + cluster ----------------------------------------------
    t0 = time.perf_counter()
    cluster_hash, reuse_cluster = stage(
        "cluster",
        ["representation", "metric", "linkage", "k", "bins", "lags", "fs",
         "normalize_power", "segment_length", "seed"],
        ingest_hash,
        ["partition.json"],
    )
    if reuse_cluster:
        part = load_partition(os.path.join(run_dir, "partition.json"))
        manifest.reuse("cluster", previous["cluster"])
    else:
        dendro, feats, diss = build_dendrogram(config, tm, flows_norm, ranges)
        part = make_partition(config, dendro, tm.n_flows)
        cluster_artifacts = write_partition(part, dendro, run_dir)
        if feats is not None:
            cluster_artifacts += write_features(feats, diss, run_dir)
        manifest.record("cluster", cluster_hash, time.perf_counter() - t0, cluster_artifacts)

    # --- train ---------------------------------------------------------------
    t0 = time.perf_counter()
    model_files = [f"models/cluster_{label}.bin" for label in range(1, part.k + 1)]
    train_hash, reuse_train = stage(
        "train", ["profile", "hidden_size", "epochs", "seed"], cluster_hash, model_files,
    )
    if reuse_train:
        models = load_models(model_dir, part)
        manifest.reuse("train", previous["train"])
    else:
        models = train_models(config, flows_norm, ranges, part, model_dir=model_dir,
                              report_path=os.path.join(run_dir, "train_report.json"))
        manifest.record("train", train_hash, time.perf_counter() - t0,
                        model_files + ["train_report.json"])

    # --- predict + evaluate ---------------------------------------------------
    t0 = time.perf_counter()
    report, arrays = score(config, tm, flows_norm, scale, ranges, part, models)
    np.savez(os.path.join(run_dir, "predictions.npz"), **arrays)
    write_report(report, run_dir)
    manifest.record(
        "evaluate",
        config_hash({"stage": "evaluate", "upstream": train_hash}),
        time.perf_counter() - t0,
        ["predictions.npz", "eval_report.json", "per_flow_rmse.csv"],
    )
    if warnings:
        manifest.data["warnings"] = warnings
    manifest.write()
    return run_dir


def build_eval_report(
    config: RunConfig,
    part: Partition,
    truth_norm: np.ndarray,
    pred_norm: np.ndarray,
    truth_bytes: np.ndarray,
    pred_bytes: np.ndarray,
    interval_seconds: int,
    train_block_len: int | None = None,
) -> EvalReport:
    stats = cluster_stats(part)
    flow_errors = per_flow_rmse(truth_norm, pred_norm)
    metadata = {
        "normalize": "per_flow",
        "scale_fit": "training_region_only",
        "nmi_normalization": "arithmetic_mean_of_entropies",
        "units": config.units,
        "interval_seconds": interval_seconds,
    }
    if config.representation == "psd":
        metadata["welch"] = represent_mod.welch_settings(
            train_block_len or truth_norm.shape[0], config.segment_length
        )
        metadata["normalize_power"] = config.normalize_power
    physical = (
        rmse_physical(truth_bytes, pred_bytes, interval_seconds)
        if config.units == "bytes_per_interval"
        else float("nan")
    )
    return EvalReport(
        rmse_normalized=rmse(truth_norm, pred_norm),
        rmse_physical_mbps=physical,
        per_flow_rmse=[float(v) for v in flow_errors],
        partition={
            "method": part.method,
            "k": int(part.k),
            "seed": part.seed,
            "cluster_stats": stats.to_dict(),
        },
        config=config.to_dict(),
        metadata=metadata,
    )


def sweep(config: RunConfig) -> tuple[SweepCurve, dict]:
    """RMSE-versus-K curve plus Kneedle knee selection; returns (curve, knee
    payload). Each repetition scores replace(config, k=k, seed=seed + rep).
    The dendrogram does not depend on K or the seed and is built once; the
    naive baseline draws a new random partition per repetition."""
    require_valid(config)
    if not config.k_grid:
        raise ConfigError("sweep requires k_grid")
    tm, flows_norm, scale, ranges = prepare(config)
    k_grid = sorted(set(int(k) for k in config.k_grid))
    for k in k_grid:
        _check_k(k, tm.n_flows)
    seed = config.seed or 0
    # the dendrogram (None for naive) is cut at every K below
    dendro, _, _ = build_dendrogram(config, tm, flows_norm, ranges)

    mean_rmse, rmse_std, mean_runtime = [], [], []
    for k in k_grid:
        vals = []
        times = []
        for rep in range(config.repetitions):
            t0 = time.perf_counter()
            rep_cfg = replace(config, k=k, seed=seed + rep)
            part = make_partition(rep_cfg, dendro, tm.n_flows)
            models = train_models(rep_cfg, flows_norm, ranges, part)
            report, _ = score(rep_cfg, tm, flows_norm, scale, ranges, part, models)
            vals.append(report.rmse_normalized)
            times.append(time.perf_counter() - t0)
        arr = np.asarray(vals)
        mean_rmse.append(float(arr.mean()))
        rmse_std.append(float(arr.std()))
        mean_runtime.append(float(np.mean(times)))
    curve = SweepCurve(
        k_values=k_grid,
        mean_rmse=mean_rmse,
        rmse_std=rmse_std,
        mean_runtime_seconds=mean_runtime,
        repetitions=config.repetitions,
    )
    knee = kneedle(k_grid, mean_rmse)
    return curve, {"selected_k": knee.k, "no_knee": knee.no_knee}


def compare(config: RunConfig, out_dir: str) -> dict:
    """Cross-method comparison at matched K: pairwise ARI/NMI, per-flow error
    correlations, and cluster-size statistics, written as three CSVs."""
    require_valid(config)
    if config.seed is None:
        raise ConfigError("compare requires a seed (naive baseline is included)")
    os.makedirs(out_dir, exist_ok=True)
    tm, flows_norm, scale, ranges = prepare(config)

    partitions: dict[str, Partition] = {}
    flow_errs: dict[str, list[float]] = {}
    for method in METHODS:
        mcfg = replace(config, representation=method, metric=None, linkage=None)
        dendro, _, _ = build_dendrogram(mcfg, tm, flows_norm, ranges)
        part = make_partition(mcfg, dendro, tm.n_flows)
        models = train_models(mcfg, flows_norm, ranges, part)
        report, _ = score(mcfg, tm, flows_norm, scale, ranges, part, models)
        partitions[method] = part
        flow_errs[method] = report.per_flow_rmse

    pairs = [(a, b) for i, a in enumerate(METHODS) for b in METHODS[i + 1 :]]
    _write_csv(
        os.path.join(out_dir, "pairwise_agreement.csv"), "method_a,method_b,nmi,ari",
        ((a, b, nmi(partitions[a], partitions[b]), ari_score(partitions[a], partitions[b]))
         for a, b in pairs),
    )
    _write_csv(
        os.path.join(out_dir, "error_correlation.csv"), "method_a,method_b,pearson_correlation",
        ((a, b, error_correlation(flow_errs[a], flow_errs[b])) for a, b in pairs),
    )
    _write_csv(
        os.path.join(out_dir, "cluster_size_stats.csv"),
        "method,k,min_size,mean_size,max_size,n_singletons,singleton_pct",
        ((m, *astuple(cluster_stats(partitions[m]))) for m in METHODS),
    )
    return {
        "partitions": {m: partitions[m].to_dict() for m in METHODS},
        "per_flow_rmse": flow_errs,
    }
