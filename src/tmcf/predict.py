"""Gated recurrent forecaster trained per flow cluster.

One model covers the d flows of one cluster: it reads the last L-1
observations of those flows and predicts the next observation of all of
them jointly. K=1 therefore realizes entire-matrix prediction and K=M
one model per flow. The cell, backpropagation through time, and the Adam
optimizer are implemented directly on numpy arrays in double precision so
training is deterministic for a fixed seed and analytic gradients can be
checked against finite differences.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .cluster import Partition
from .dataset import ScaleParams, TmSeries, WindowedDataset, denormalize_array, make_windows
from .errors import NumericalError, ValidationError

PARAM_ORDER = ("wz", "uz", "bz", "wr", "ur", "br", "wn", "un", "bn", "wo", "bo")

PROFILES = {
    "paper": {"hidden_size": 200, "epochs": 100},
    "desk": {"hidden_size": 16, "epochs": 30},
}

MODEL_MAGIC = b"TMCF"
MODEL_FORMAT_VERSION = 1

_PREDICT_CHUNK = 2048


@dataclass
class GruConfig:
    """Hyperparameters of one recurrent forecaster."""

    input_size: int
    hidden_size: int = 200
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    patience: int = 5
    min_delta: float = 1e-5
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    profile: str = "paper"

    def __post_init__(self):
        for name in ("input_size", "hidden_size", "epochs", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ValidationError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.min_delta < 0:
            raise ValidationError(f"min_delta must be >= 0, got {self.min_delta}")

    @classmethod
    def for_profile(cls, profile: str, input_size: int, seed: int = 0, **overrides) -> "GruConfig":
        if profile not in PROFILES:
            raise ValidationError(f"unknown profile {profile!r}; expected {tuple(PROFILES)}")
        kwargs = dict(PROFILES[profile])
        kwargs.update(overrides)
        return cls(input_size=input_size, seed=seed, profile=profile, **kwargs)


@dataclass
class GruModel:
    """Parameter tensors of a one-layer gated recurrent cell plus an affine
    readout of the final hidden state."""

    params: dict
    input_size: int
    hidden_size: int
    seed: int
    profile: str = "paper"

    @property
    def output_size(self) -> int:
        return self.input_size


@dataclass
class TrainReport:
    """Per-epoch loss curves and the early-stopping outcome of one run."""

    epochs_run: int
    train_losses: list[float]
    val_losses: list[float]
    stopped_early: bool
    wall_time_seconds: float
    best_epoch: int
    init_scheme: str = "uniform(-1/sqrt(hidden), 1/sqrt(hidden))"

    def to_dict(self) -> dict:
        return asdict(self)


def _param_shapes(input_size: int, hidden_size: int) -> dict:
    """Shape of every parameter tensor of a model of the given sizes."""
    d, h = input_size, hidden_size
    return {
        "wz": (h, d), "uz": (h, h), "bz": (h,),
        "wr": (h, d), "ur": (h, h), "br": (h,),
        "wn": (h, d), "un": (h, h), "bn": (h,),
        "wo": (d, h), "bo": (d,),
    }


def init_model(config: GruConfig) -> GruModel:
    """Seeded uniform init in [-1/sqrt(hidden), 1/sqrt(hidden)], drawn in
    canonical parameter order so a seed fully determines the model."""
    d, h = config.input_size, config.hidden_size
    scale = 1.0 / np.sqrt(h)
    rng = np.random.default_rng(config.seed)
    shapes = _param_shapes(d, h)
    params = {name: rng.uniform(-scale, scale, size=shapes[name]) for name in PARAM_ORDER}
    return GruModel(
        params=params,
        input_size=d,
        hidden_size=h,
        seed=config.seed,
        profile=config.profile,
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _forward_hidden(params: dict, x: np.ndarray, keep_cache: bool):
    """Run the recurrence over a (B, T, d) batch; h starts at zero.

    Cell per step: update gate z, reset gate r, tanh candidate n on the
    reset-gated state, then h = (1 - z) * n + z * h_prev.
    """
    b, t, _ = x.shape
    h = np.zeros((b, params["bz"].shape[0]), dtype=np.float64)
    cache = [] if keep_cache else None
    for step in range(t):
        xt = x[:, step, :]
        z = _sigmoid(xt @ params["wz"].T + h @ params["uz"].T + params["bz"])
        r = _sigmoid(xt @ params["wr"].T + h @ params["ur"].T + params["br"])
        rh = r * h
        n = np.tanh(xt @ params["wn"].T + rh @ params["un"].T + params["bn"])
        h_new = (1.0 - z) * n + z * h
        if keep_cache:
            cache.append((xt, h, z, r, rh, n))
        h = h_new
    return h, cache


def gru_forward(model: GruModel, inputs: np.ndarray) -> np.ndarray:
    """One-step-ahead prediction for a (T, d) window or a (B, T, d) batch."""
    x = np.asarray(inputs, dtype=np.float64)
    single = x.ndim == 2
    if single:
        x = x[None, :, :]
    if x.ndim != 3 or x.shape[2] != model.input_size:
        raise ValidationError(
            f"input must have trailing dimension {model.input_size}, got shape {inputs.shape}"
        )
    if x.shape[1] < 1:
        raise ValidationError("input history must contain at least one observation")
    if not np.isfinite(x).all():
        raise ValidationError("input contains NaN or Inf")
    h, _ = _forward_hidden(model.params, x, keep_cache=False)
    pred = h @ model.params["wo"].T + model.params["bo"]
    return pred[0] if single else pred


def mse_loss_and_grads(model: GruModel, inputs: np.ndarray, targets: np.ndarray):
    """Mean squared error over a batch plus analytic gradients for every
    parameter tensor (backpropagation through time)."""
    params = model.params
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    h_last, cache = _forward_hidden(params, x, keep_cache=True)
    pred = h_last @ params["wo"].T + params["bo"]
    err = pred - y
    loss = float(np.mean(err * err))

    grads = {name: np.zeros_like(params[name]) for name in PARAM_ORDER}
    dpred = 2.0 * err / err.size
    grads["wo"] = dpred.T @ h_last
    grads["bo"] = dpred.sum(axis=0)
    dh = dpred @ params["wo"]

    for xt, h_prev, z, r, rh, n in reversed(cache):
        dz = dh * (h_prev - n)
        dn = dh * (1.0 - z)
        dh_prev = dh * z

        dan = dn * (1.0 - n * n)
        grads["wn"] += dan.T @ xt
        grads["un"] += dan.T @ rh
        grads["bn"] += dan.sum(axis=0)
        drh = dan @ params["un"]
        dr = drh * h_prev
        dh_prev = dh_prev + drh * r

        daz = dz * z * (1.0 - z)
        grads["wz"] += daz.T @ xt
        grads["uz"] += daz.T @ h_prev
        grads["bz"] += daz.sum(axis=0)
        dh_prev = dh_prev + daz @ params["uz"]

        dar = dr * r * (1.0 - r)
        grads["wr"] += dar.T @ xt
        grads["ur"] += dar.T @ h_prev
        grads["br"] += dar.sum(axis=0)
        dh_prev = dh_prev + dar @ params["ur"]

        dh = dh_prev
    return loss, grads


class _Adam:
    """Standard Adam with bias correction, one state pair per parameter."""

    def __init__(self, params: dict, lr: float, beta1: float, beta2: float, eps: float):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for k in params:
            g = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * (g * g)
            params[k] -= self.lr * (self.m[k] / b1c) / (np.sqrt(self.v[k] / b2c) + self.eps)


def _dataset_mse(model: GruModel, ds: WindowedDataset) -> float:
    total = 0.0
    n = 0
    for lo in range(0, ds.n_samples, _PREDICT_CHUNK):
        x = ds.inputs[lo : lo + _PREDICT_CHUNK]
        y = ds.targets[lo : lo + _PREDICT_CHUNK]
        h, _ = _forward_hidden(model.params, x, keep_cache=False)
        err = h @ model.params["wo"].T + model.params["bo"] - y
        total += float(np.sum(err * err))
        n += err.size
    return total / n


def train(
    config: GruConfig,
    train_ds: WindowedDataset,
    val_ds: WindowedDataset,
) -> tuple[GruModel, TrainReport]:
    """Minimize MSE with Adam over seeded shuffled mini-batches.

    Validation loss is checked once per epoch; training stops early after
    `patience` consecutive epochs whose improvement over the best seen loss
    is at most min_delta, and the best-validation parameters are restored.
    """
    if train_ds.n_samples < 1 or val_ds.n_samples < 1:
        raise ValidationError("training and validation sets must be nonempty")
    if train_ds.n_dims != config.input_size or val_ds.n_dims != config.input_size:
        raise ValidationError(
            f"dataset width {train_ds.n_dims} does not match config input_size "
            f"{config.input_size}"
        )
    start = time.perf_counter()
    model = init_model(config)
    adam = _Adam(model.params, config.learning_rate, config.beta1, config.beta2, config.adam_eps)
    rng = np.random.default_rng(config.seed)

    train_losses: list[float] = []
    val_losses: list[float] = []
    best_val = np.inf
    best_epoch = -1
    best_params = None
    bad_epochs = 0
    stopped_early = False

    for epoch in range(config.epochs):
        order = rng.permutation(train_ds.n_samples)
        sq_sum = 0.0
        n_elems = 0
        for lo in range(0, order.size, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            loss, grads = mse_loss_and_grads(model, train_ds.inputs[idx], train_ds.targets[idx])
            if not np.isfinite(loss):
                raise NumericalError(
                    f"training diverged: non-finite loss at epoch {epoch + 1}"
                )
            adam.step(model.params, grads)
            sq_sum += loss * idx.size * train_ds.n_dims
            n_elems += idx.size * train_ds.n_dims
        train_losses.append(sq_sum / n_elems)

        val_loss = _dataset_mse(model, val_ds)
        if not np.isfinite(val_loss):
            raise NumericalError(f"validation loss non-finite at epoch {epoch + 1}")
        val_losses.append(val_loss)

        if best_val - val_loss > config.min_delta:
            best_val = val_loss
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in model.params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                stopped_early = True
                break

    if best_params is not None:
        model.params = best_params
    report = TrainReport(
        epochs_run=len(val_losses),
        train_losses=train_losses,
        val_losses=val_losses,
        stopped_early=stopped_early,
        wall_time_seconds=time.perf_counter() - start,
        best_epoch=best_epoch,
    )
    return model, report


def cluster_seed(base_seed: int, cluster_id: int) -> int:
    """Stable per-cluster seed, independent of training order."""
    return int(np.random.SeedSequence((base_seed, cluster_id)).generate_state(1)[0])


def train_partitioned(
    partition: Partition,
    flow_values: np.ndarray,
    config: GruConfig,
    train_range: tuple[int, int],
    val_range: tuple[int, int],
    window_length: int,
) -> dict[int, tuple[GruModel, TrainReport]]:
    """Train one model per cluster on the normalized flow matrix.

    flow_values is (M, T); each cluster's model has input/output width
    |cluster| and its own seed from cluster_seed, so a cluster's model does
    not depend on the other clusters. Results are keyed by cluster id.
    """
    if partition.n_items != flow_values.shape[0]:
        raise ValidationError(
            f"partition covers {partition.n_items} flows, matrix has {flow_values.shape[0]}"
        )

    # one call per cluster, so a cluster's windows are freed before the next
    # cluster's are built
    def train_cluster(label: int) -> tuple[GruModel, TrainReport]:
        rows = partition.members(label)
        sub = flow_values[rows]
        train_ds = make_windows(sub[:, train_range[0] : train_range[1]].T, window_length)
        val_ds = make_windows(sub[:, val_range[0] : val_range[1]].T, window_length)
        cfg = replace(config, input_size=rows.size, seed=cluster_seed(config.seed, label))
        return train(cfg, train_ds, val_ds)

    return {label: train_cluster(label) for label in range(1, partition.k + 1)}


def predict_tm(
    models: dict[int, GruModel],
    partition: Partition,
    flow_values: np.ndarray,
    test_range: tuple[int, int],
    window_length: int,
    scale: ScaleParams,
    n_nodes: int,
    interval_seconds: int,
) -> tuple[np.ndarray, TmSeries]:
    """One-step predictions over the test range, reassembled as a trace.

    Per-cluster predictions are scattered back to their flow indices, so
    every flow is predicted exactly once per step. Returns the normalized
    (samples, M) prediction matrix and the denormalized trace segment.
    """
    m = partition.n_items
    if flow_values.shape[0] != m:
        raise ValidationError("flow matrix does not match the partition")
    missing = [label for label in range(1, partition.k + 1) if label not in models]
    if missing:
        raise ValidationError(f"missing models for clusters {missing}")
    lo, hi = test_range
    n_samples = (hi - lo) - window_length + 1
    if n_samples < 1:
        raise ValidationError("test range does not fit one window")

    pred_norm = np.empty((n_samples, m), dtype=np.float64)
    for label in range(1, partition.k + 1):
        rows = partition.members(label)
        ds = make_windows(flow_values[rows, lo:hi].T, window_length)
        model = models[label]
        out = np.empty((n_samples, rows.size), dtype=np.float64)
        for s in range(0, n_samples, _PREDICT_CHUNK):
            out[s : s + _PREDICT_CHUNK] = gru_forward(model, ds.inputs[s : s + _PREDICT_CHUNK])
        pred_norm[:, rows] = out

    pred_bytes = np.maximum(denormalize_array(pred_norm, scale), 0.0)
    tm_pred = TmSeries(
        n_nodes=n_nodes,
        interval_seconds=interval_seconds,
        values=pred_bytes.reshape(n_samples, n_nodes, n_nodes),
    )
    return pred_norm, tm_pred


# ---------------------------------------------------------------------------
# Model serialization: versioned binary with a JSON header
# ---------------------------------------------------------------------------


def save_model(model: GruModel, path: str) -> None:
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "input_size": model.input_size,
        "hidden_size": model.hidden_size,
        "output_size": model.output_size,
        "seed": model.seed,
        "profile": model.profile,
        "dtype": "float64",
        "param_order": list(PARAM_ORDER),
        "shapes": {k: list(model.params[k].shape) for k in PARAM_ORDER},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", MODEL_FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for name in PARAM_ORDER:
            fh.write(np.ascontiguousarray(model.params[name], dtype=np.float64).tobytes())


def _read_exact(fh, n: int, path: str, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ValidationError(f"{path}: truncated {what}")
    return buf


def load_model(path: str) -> GruModel:
    """Read a model written by save_model; any malformed or truncated part
    of the file raises ValidationError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MODEL_MAGIC:
            raise ValidationError(f"{path}: not a model file (bad magic {magic!r})")
        version, hlen = struct.unpack("<II", _read_exact(fh, 8, path, "version block"))
        if version != MODEL_FORMAT_VERSION:
            raise ValidationError(f"{path}: unsupported model format version {version}")
        blob = _read_exact(fh, hlen, path, "header")
        try:
            header = json.loads(blob.decode("utf-8"))
            input_size = int(header["input_size"])
            hidden_size = int(header["hidden_size"])
            seed = int(header["seed"])
            order = tuple(header["param_order"])
            shapes = {name: tuple(header["shapes"][name]) for name in PARAM_ORDER}
        except (ValueError, KeyError, TypeError) as exc:
            raise ValidationError(f"{path}: unreadable model header: {exc}") from None
        if order != PARAM_ORDER:
            raise ValidationError(
                f"{path}: parameter order {list(order)} is not {list(PARAM_ORDER)}"
            )
        expected = _param_shapes(input_size, hidden_size)
        if min(input_size, hidden_size) < 1 or shapes != expected:
            raise ValidationError(
                f"{path}: parameter shapes do not fit input_size={input_size}, "
                f"hidden_size={hidden_size}"
            )
        params = {}
        for name in PARAM_ORDER:
            shape = expected[name]
            buf = _read_exact(fh, 8 * int(np.prod(shape)), path, f"parameter block {name!r}")
            params[name] = np.frombuffer(buf, dtype=np.float64).reshape(shape).copy()
    return GruModel(
        params=params,
        input_size=input_size,
        hidden_size=hidden_size,
        seed=seed,
        profile=header.get("profile", "paper"),
    )
