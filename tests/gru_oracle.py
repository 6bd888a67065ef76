"""The per-cluster GRU training loop that tmcf.predict replaced, kept as a
test oracle.

Each model is trained alone by its own Python loop: three separate gate
products per step, per-step gradient accumulation and one Adam state pair
per tensor. The functions below are the former implementation, unchanged
but for their imports. The stacked, fused core of tmcf.predict must
reproduce them to a rounding tolerance.
"""

import time
from dataclasses import replace

import numpy as np

from tmcf.cluster import Partition
from tmcf.dataset import WindowedDataset, make_windows
from tmcf.errors import NumericalError, ValidationError
from tmcf.predict import PARAM_ORDER, GruConfig, GruModel, TrainReport, cluster_seed, init_model

_PREDICT_CHUNK = 2048


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
