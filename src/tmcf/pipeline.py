"""The pipeline core and reproducible run directories.

Every entry point (run_pipeline, sweep, compare and the CLI's represent,
train and evaluate) calls the same steps, so all compute the same numbers
from the same prepared trace: prepare (load, split, extract, fit scale,
normalize), represent, train_models, score and write_report.

A run directory holds, by stage:

- ingest: scale.json
- cluster: partition.json; with HAC also dendrogram.csv, features.csv and
  features_meta.json (`tmcf cluster --features` recomputes the dissimilarity
  matrix from these two)
- train: models/cluster_<id>.bin and train_report.json (loss curves and
  early stopping per cluster)
- evaluate: predictions.npz (uncompressed pred_norm; the predictions in
  bytes and the truths are recomputed from it, the trace and scale.json) and
  eval_report.json (which also lists each flow's normalized RMSE)

plus manifest.json: the config, versions and, per stage, its hash,
wall_time_seconds, peak_rss_mib and children_peak_rss_mib (the peak RSS so
far of the run's process and of its largest child) and artifacts, a {name:
sha256} map; the ingest entry also records trace_sha256, the hash of the
trace's bytes that the stage hashes chain on, and a reused stage is marked
"reused". The manifest is the only file that holds the config, times,
memory peaks, hashes or reuse marks, and the run
directory keeps no copy of the trace or of the normalized flows: every other
file is a function of the trace's bytes and the settings the stages read
(_STAGE_KEYS), so two runs of the same bytes write them byte-identical.

Every stage hash is computed before the trace is parsed. The ingest hash
covers the ingest config keys and the sha256 of the trace file's bytes (of
each file's name and bytes for an abilene directory); each later stage hash
covers its own keys and chains on the one before. No hash covers a path, so
the same bytes at another path, or a copied run directory, reuse every
stage. The manifest is replaced (through a temporary file) after every
stage, so a crashed run shows how far it got. With resume=True a stage is
reused when its hash matches, every artifact it lists still has the recorded
sha256, and every stage before it verifies too; it keeps the manifest entry
of the run that computed it, marked "reused". When all four stages verify,
the run returns at once: it parses, predicts and writes nothing. Otherwise
it parses the trace once and checks K, then removes what the manifest on
disk lists for the stages it will recompute (also on a fresh run), so a bad
trace or K changes nothing; it rewrites the ingest entry and recomputes the
first stage that fails and every stage after it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import threading
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
    normalize,
    split,
    trace_files,
)
from .errors import ConfigError, DataError
from .evaluate import (
    EvalReport,
    SweepCurve,
    cluster_stats,
    error_correlation,
    kneedle,
    nmi,
    rmse_by_flow,
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
# file_sha256 reads every file through this one buffer, which the lock guards
_HASH_BLOCK = 1 << 18
_HASH_BUFFER = memoryview(bytearray(_HASH_BLOCK))
_HASH_LOCK = threading.Lock()


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
    seed: int = 0
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

    def gru_config(self, input_size: int) -> GruConfig:
        overrides = {}
        if self.hidden_size is not None:
            overrides["hidden_size"] = self.hidden_size
        if self.epochs is not None:
            overrides["epochs"] = self.epochs
        return GruConfig.for_profile(
            self.profile, input_size=input_size, seed=self.seed, **overrides
        )


def read_config(path: str) -> dict:
    """The keys of a JSON config file, unchecked: callers merge them with
    other values before RunConfig.from_dict checks them."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


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
    if (config.representation == "naive"
            and (config.linkage is not None or config.metric is not None)):
        warnings.append("linkage/metric are ignored by the naive representation")
    errors += [
        f"{name} must be >= 1, got {value}"
        for name in ("k", "repetitions", "bins", "interval_seconds", "segment_length",
                     "hidden_size", "epochs")
        if (value := getattr(config, name)) is not None and value < 1
    ]
    # the knee search needs at least 3 points
    if config.k_grid is not None and (
        len(set(config.k_grid)) < 3 or any(k < 1 for k in config.k_grid)
    ):
        errors.append("k_grid must hold at least 3 distinct integers >= 1")
    # the abilene and geant loaders fix their interval and reject empty cells
    if config.format != "canonical" and config.interval_seconds is not None:
        errors.append(f"interval_seconds is fixed by format {config.format!r}")
    if config.format != "canonical" and config.missing != "reject":
        errors.append(f"missing={config.missing!r}: format {config.format!r} rejects empty cells")
    if config.lags is not None and (not config.lags or min(config.lags) < 0):
        errors.append("lags must be a nonempty list of integers >= 0")
    if config.fs is not None and not config.fs > 0:
        errors.append(f"fs must be > 0, got {config.fs}")
    if not 0.0 < config.train_frac < 1.0:
        errors.append(f"train_frac must be in (0, 1), got {config.train_frac}")
    # training stops early on the validation range, so it must not be empty
    if not 0.0 < config.val_frac < 1.0:
        errors.append(f"val_frac must be in (0, 1), got {config.val_frac}")
    if config.window_length < 2:
        errors.append(f"window_length must be >= 2, got {config.window_length}")
    if config.profile == "desk" and (config.hidden_size or 0) > 64:
        warnings.append(
            f"desk profile with hidden_size={config.hidden_size} override will be slow; "
            "use profile=paper if full-scale settings are intended"
        )
    if config.profile == "paper" and trace_required and os.path.exists(config.trace):
        # a trace the loader cannot read is reported when it is loaded
        with contextlib.suppress(DataError):
            size = sum(map(os.path.getsize, trace_files(config.trace, config.format)))
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


def require_valid(config: RunConfig) -> list[str]:
    errors, warnings = validate_config(config)
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


def file_sha256(path: str) -> str:
    """sha256 of a file's bytes, read in blocks through one reused buffer."""
    h = hashlib.sha256()
    with _HASH_LOCK, open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(_HASH_BUFFER):
            h.update(_HASH_BUFFER[:n])
    return h.hexdigest()


def trace_file_sha256(path: str, format: str) -> str:
    """Content hash of a trace on disk, computed without parsing it: the
    sha256 of the file or, for an abilene directory, of each file's name and
    bytes in the order the loader reads them."""
    files = trace_files(path, format)
    if files == [path]:
        return file_sha256(path)
    return config_hash([[os.path.basename(f), file_sha256(f)] for f in files])


class Manifest:
    """Stage ledger of one run directory, written after every stage."""

    def __init__(self, run_dir: str, cfg: dict):
        self.run_dir = run_dir
        self.path = os.path.join(run_dir, "manifest.json")
        self.data = {
            "config": cfg,
            "versions": {
                "tmcf": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": platform.python_version(),
            },
            "stages": {},
        }

    def load_previous(self) -> dict:
        """The stage entries of the manifest on disk that hold an artifacts map;
        {} when it is missing, unreadable or not shaped like a manifest."""
        try:
            stages = load_json(self.path)["stages"]
            return {name: entry for name, entry in stages.items()
                    if isinstance(entry, dict) and isinstance(entry.get("artifacts"), dict)}
        except (ValueError, OSError, KeyError, TypeError, AttributeError):
            return {}

    def verified(self, entry: dict | None, stage_hash: str) -> bool:
        """Whether a previous stage entry has this hash and every artifact in
        its {name: sha256} map still has the recorded content hash."""
        return entry is not None and entry.get("hash") == stage_hash and all(
            isinstance(digest, str) and self._sha256(name) == digest
            for name, digest in entry["artifacts"].items())

    def _sha256(self, name: str) -> str | None:
        try:
            return file_sha256(os.path.join(self.run_dir, name))
        except (OSError, ValueError):  # ValueError: a name with a NUL byte
            return None

    def remove_artifacts(self, entries) -> None:
        """Remove the regular files that these previous stage entries list and
        that resolve inside the run directory (no absolute path, `..` or link)."""
        root = os.path.realpath(self.run_dir)
        for entry in entries:
            for name in entry.get("artifacts", ()):
                path = os.path.join(root, name)
                if (not os.path.isabs(name) and os.path.isfile(path)
                        and os.path.realpath(path) == path):
                    os.remove(path)

    def record(self, stage: str, stage_hash: str, wall_time: float, artifacts: list[str],
               **extra):
        """Enter a computed stage and write the manifest. Besides the hash,
        time and artifacts, the entry holds the peak RSS so far of this
        process and of its largest finished child, so a crashed or finished
        run shows where its memory peaked."""
        self.data["stages"][stage] = {
            "hash": stage_hash,
            "wall_time_seconds": wall_time,
            "peak_rss_mib": _peak_rss_mib(resource.RUSAGE_SELF),
            "children_peak_rss_mib": _peak_rss_mib(resource.RUSAGE_CHILDREN),
            "artifacts": {a: file_sha256(os.path.join(self.run_dir, a)) for a in artifacts},
            **extra,
        }
        self.write()

    def reuse(self, stage: str, previous: dict) -> None:
        """Carry a reused stage's entry over: what the run that computed it
        recorded (time and artifacts included), marked as reused."""
        self.data["stages"][stage] = {**previous, "reused": True}
        self.write()

    def write(self) -> None:
        """Replace manifest.json at once, so that it is never half written."""
        tmp = self.path + ".tmp"
        dump_json(self.data, tmp)
        os.replace(tmp, self.path)


def _peak_rss_mib(who: int) -> float:
    """ru_maxrss of this process or of its largest waited-for child, in MiB
    (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024


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


def write_features(feats: represent_mod.ReprMatrix, metric: str | None,
                   out_dir: str) -> list[str]:
    """features.csv (floats in %.17g, which read back exactly) and
    features_meta.json (the representation, its metric and the features'
    meta), which read_features reads back; returns their names."""
    _write_matrix_csv(feats.features, os.path.join(out_dir, "features.csv"))
    dump_json({"representation": feats.kind,
               "metric": metric or represent_mod.DEFAULT_METRIC[feats.kind], **feats.meta},
              os.path.join(out_dir, "features_meta.json"))
    return ["features.csv", "features_meta.json"]


def read_features(in_dir: str) -> tuple[represent_mod.ReprMatrix, str]:
    """The features and metric write_features wrote to in_dir; DataError if unreadable."""
    try:
        meta = load_json(os.path.join(in_dir, "features_meta.json"))
        features = np.loadtxt(os.path.join(in_dir, "features.csv"), delimiter=",", ndmin=2)
        return represent_mod.ReprMatrix(features, meta["representation"]), meta["metric"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read {in_dir}: {exc}") from None


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
    """eval_report.json; its per_flow_rmse lists each flow's normalized RMSE."""
    dump_json(report.to_dict(), os.path.join(out_dir, "eval_report.json"))


def write_sweep_csv(curve: SweepCurve, path: str) -> None:
    _write_csv(path, "k,mean_rmse,rmse_std,mean_runtime_s", zip(
        curve.k_values, curve.mean_rmse, curve.rmse_std, curve.mean_runtime_seconds))


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


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
    """Features of the training block, a ReprMatrix."""
    train_block = flows_norm.values[:, : ranges.val[1]]
    return represent_mod.build_features(
        FlowSet(tm.n_nodes, tm.interval_seconds, train_block),
        config.representation,
        bins=config.bins,
        lags=config.lags,
        fs=config.fs,
        normalize_power=config.normalize_power,
        segment_length=config.segment_length,
    )


def _check_k(k, m: int) -> None:
    if k is None or not 1 <= k <= m:
        raise ConfigError(f"k must lie in [1, {m}], got {k}")


def build_dendrogram(config: RunConfig, tm: TmSeries, flows_norm: FlowSet, ranges):
    """Represent the training block and build its HAC dendrogram; returns
    (dendro, feats), both None for the naive baseline."""
    if config.representation == "naive":
        return None, None
    feats = represent(config, tm, flows_norm, ranges)
    return cluster_features(feats, config.metric, config.linkage), feats


def cluster_features(feats: represent_mod.ReprMatrix, metric: str | None, linkage: str | None):
    """HAC dendrogram of the features; metric and linkage default to the
    representation's. HAC agglomerates the dissimilarity matrix in place."""
    diss = represent_mod.pairwise_dissimilarity(feats, metric)
    return cluster_mod.hac(diss.d, linkage or cluster_mod.DEFAULT_LINKAGE[feats.kind],
                           overwrite=True)


def make_partition(dendro, n_flows: int, k, seed, method: str) -> Partition:
    """The dendrogram cut into k clusters and tagged method or, without a
    dendrogram, the naive baseline drawn with seed."""
    _check_k(k, n_flows)
    if dendro is None:
        return cluster_mod.naive_partition(n_flows, k, seed=seed)
    part = cluster_mod.cut(dendro, k)
    part.method = method
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
        dump_json({"per_cluster": reports},
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
          part: Partition, models: dict) -> tuple[EvalReport, np.ndarray]:
    """Predict the test region and score it; returns the report and the
    normalized predictions, the one array that predictions.npz keeps."""
    pred_norm, tm_pred = predict_tm(
        models, part, flows_norm.values, ranges.test, config.window_length,
        scale, tm.n_nodes, tm.interval_seconds,
    )
    # the test windows' targets, views: build_eval_report copies neither
    first, stop = ranges.test[0] + config.window_length - 1, ranges.test[1]
    truth_norm = flows_norm.values[:, first:stop].T
    truth_bytes = tm.values[first:stop]
    report = build_eval_report(config, part, truth_norm, pred_norm, truth_bytes,
                               tm_pred.values, tm.interval_seconds,
                               train_block_len=ranges.val[1])
    return report, pred_norm


# The config keys each stage reads, in stage order. Each stage hash also
# chains on the one before it, and the ingest hash on the trace's bytes, not
# its path; the trace path, out_dir, k_grid and repetitions are in no stage.
_STAGE_KEYS = {
    "ingest": ("format", "interval_seconds", "missing", "train_frac", "val_frac",
               "window_length"),
    "cluster": ("representation", "metric", "linkage", "k", "bins", "lags", "fs",
                "normalize_power", "segment_length", "seed"),
    "train": ("profile", "hidden_size", "epochs", "seed"),
    "evaluate": ("units",),
}


def _stage_hashes(cfg: dict, trace_hash: str) -> dict[str, str]:
    """{stage: hash} of the four stages of the config dict cfg, chained on
    trace_hash, the trace file's trace_file_sha256."""
    hashes = {}
    upstream = trace_hash
    for name, keys in _STAGE_KEYS.items():
        payload = {"stage": name, "upstream": upstream, **{k: cfg[k] for k in keys}}
        upstream = hashes[name] = config_hash(payload)
    return hashes


def run_pipeline(config: RunConfig, resume: bool = False) -> str:
    """Execute the full pipeline; returns the run directory path."""
    warnings = require_valid(config)
    run_dir = config.out_dir
    model_dir = os.path.join(run_dir, "models")
    cfg = config.to_dict()
    manifest = Manifest(run_dir, cfg)
    trace_hash = trace_file_sha256(config.trace, config.format)
    hashes = _stage_hashes(cfg, trace_hash)
    previous = manifest.load_previous()
    # a stage is reused only when it and every stage before it verify
    reuse, verified = {}, resume
    for name, stage_hash in hashes.items():
        verified = verified and manifest.verified(previous.get(name), stage_hash)
        reuse[name] = verified
    if reuse["evaluate"]:
        return run_dir

    # --- ingest + extract + normalize -------------------------------------
    t0 = time.perf_counter()
    tm, flows_norm, scale, ranges = prepare(config)
    _check_k(config.k, tm.n_flows)
    manifest.remove_artifacts(previous.get(name, {}) for name in hashes if not reuse[name])
    os.makedirs(model_dir, exist_ok=True)
    if warnings:
        manifest.data["warnings"] = warnings
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
        "ingest", hashes["ingest"], time.perf_counter() - t0,
        ["scale.json"], trace_sha256=trace_hash,
    )

    # --- represent + cluster ----------------------------------------------
    t0 = time.perf_counter()
    if reuse["cluster"]:
        part = load_partition(os.path.join(run_dir, "partition.json"))
        manifest.reuse("cluster", previous["cluster"])
    else:
        dendro, feats = build_dendrogram(config, tm, flows_norm, ranges)
        part = make_partition(dendro, tm.n_flows, config.k, config.seed, config.representation)
        cluster_artifacts = write_partition(part, dendro, run_dir)
        if feats is not None:
            cluster_artifacts += write_features(feats, config.metric, run_dir)
        manifest.record("cluster", hashes["cluster"], time.perf_counter() - t0,
                        cluster_artifacts)

    # --- train ---------------------------------------------------------------
    t0 = time.perf_counter()
    if reuse["train"]:
        models = load_models(model_dir, part)
        manifest.reuse("train", previous["train"])
    else:
        models = train_models(config, flows_norm, ranges, part, model_dir=model_dir,
                              report_path=os.path.join(run_dir, "train_report.json"))
        manifest.record("train", hashes["train"], time.perf_counter() - t0,
                        [f"models/cluster_{label}.bin" for label in range(1, part.k + 1)]
                        + ["train_report.json"])

    # --- predict + evaluate ---------------------------------------------------
    t0 = time.perf_counter()
    report, pred_norm = score(config, tm, flows_norm, scale, ranges, part, models)
    np.savez(os.path.join(run_dir, "predictions.npz"), pred_norm=pred_norm)
    write_report(report, run_dir)
    manifest.record("evaluate", hashes["evaluate"], time.perf_counter() - t0,
                    ["predictions.npz", "eval_report.json"])
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
    rmse_normalized, flow_errors = rmse_by_flow(truth_norm, pred_norm)
    metadata = {
        "normalize": "per_flow",
        "scale_fit": "training_region_only",
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
        rmse_normalized=rmse_normalized,
        rmse_physical_mbps=physical,
        per_flow_rmse=[float(v) for v in flow_errors],
        partition={"cluster_stats": cluster_stats(part).to_dict()},
        metadata=metadata,
    )


def sweep(config: RunConfig) -> tuple[SweepCurve, dict]:
    """RMSE-versus-K curve plus Kneedle knee selection; returns (curve, knee
    payload). Each repetition scores replace(config, k=k, seed=config.seed + rep).
    The dendrogram does not depend on K or the seed and is built once; the
    naive baseline draws a new random partition per repetition. A K's mean
    runtime is the wall time of its repetitions, whose training spreads over
    every usable CPU (see train_partitioned): K=1 trains one model on one
    CPU, so the runtimes of different K do not compare work done."""
    require_valid(config)
    if not config.k_grid:
        raise ConfigError("sweep requires k_grid")
    tm, flows_norm, scale, ranges = prepare(config)
    k_grid = sorted(set(int(k) for k in config.k_grid))
    for k in k_grid:
        _check_k(k, tm.n_flows)
    # the dendrogram (None for naive) is cut at every K below
    dendro, _ = build_dendrogram(config, tm, flows_norm, ranges)

    mean_rmse, rmse_std, mean_runtime = [], [], []
    for k in k_grid:
        vals = []
        times = []
        for rep in range(config.repetitions):
            t0 = time.perf_counter()
            rep_cfg = replace(config, k=k, seed=config.seed + rep)
            part = make_partition(dendro, tm.n_flows, k, rep_cfg.seed, config.representation)
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
    tm, flows_norm, scale, ranges = prepare(config)
    _check_k(config.k, tm.n_flows)
    os.makedirs(out_dir, exist_ok=True)

    partitions: dict[str, Partition] = {}
    flow_errs: dict[str, list[float]] = {}
    for method in METHODS:
        mcfg = replace(config, representation=method, metric=None, linkage=None)
        dendro, _ = build_dendrogram(mcfg, tm, flows_norm, ranges)
        part = make_partition(dendro, tm.n_flows, config.k, config.seed, method)
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
