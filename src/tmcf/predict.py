"""Gated recurrent forecasters, one per flow cluster, trained on every usable CPU.

One model covers the d flows of one cluster: it reads the last L-1
observations of those flows and predicts the next observation of all of
them jointly. K=1 therefore realizes entire-matrix prediction and K=M
one model per flow. The cell, backpropagation through time, and the Adam
optimizer are implemented directly on numpy arrays in double precision so
training is deterministic for a fixed seed and analytic gradients can be
checked against finite differences.

The gate weights are fused (Appleyard et al. 2016): the input maps and
biases of the three gates form one tensor, applied to every step of a batch
by one matmul before the time loop, and the recurrent maps of the update
and reset gates form another. The models of a group share the hidden size
h, so their recurrent weights are stacked on a leading cluster axis and each
time step is two batched matmuls for all clusters together. The parameters,
gradients and Adam moments of a stack are views into one flat buffer each,
so one Adam update covers every cluster. Each cluster keeps its own seed,
batch order, loss normalization and early stopping, so its model is the one
it gets when trained alone, up to rounding in the order of sums; the tests
keep the former per-cluster loop as the oracle for that.

A cluster's model therefore depends only on its members, the seed and the
config, and train_partitioned deals the clusters to shares by their
estimated matmul work (tmcf.parallel.deal); each share trains its clusters
as one stacked group when their pass fits the workspace, as every
desk-profile share of up to 12 clusters does. The calling process draws
every cluster's seed before it forks, so numpy.random is loaded once per
process, not once per child. Prediction runs in the calling process, every
cluster through one set of reused buffers.

Windows are read from one series of a cluster's steps, gathered straight
from the flow matrix into an array of rows, each with a trailing 1
(_flow_rows): one copy per cluster, in which window s starts at row s. Its
training and validation windows and targets are views of it. Training
gathers each batch from it; validation and prediction read it in place as
time-major step views (_step_slabs), and their forward passes, which no
backward pass follows, cache one step. So prediction's scratch does not
grow with the number of test windows.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .cluster import Partition
from .dataset import ScaleParams, TmSeries, predictions_in_bytes
from .errors import NumericalError, ValidationError
from .parallel import block_rows, deal

PARAM_ORDER = ("wz", "uz", "bz", "wr", "ur", "br", "wn", "un", "bn", "wo", "bo")

PROFILES = {
    "paper": {"hidden_size": 200, "epochs": 100},
    "desk": {"hidden_size": 16, "epochs": 30},
}

# Adam's step size, decay rates and epsilon, and the least fall in validation
# loss that early stopping counts as an improvement; every profile uses these
LEARNING_RATE = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
MIN_DELTA = 1e-5

MODEL_MAGIC = b"TMCF"
MODEL_FORMAT_VERSION = 1

# Floats (4 MiB) the cache of one stacked training pass may hold: a pass over
# R window rows of T steps for K models of hidden size h caches K*R*(8T+1)*h.
# Each training share splits its clusters into as few groups as fit it, of
# near-equal size. Validation passes run in batch-sized row chunks and
# prediction in chunks of as many rows as half of it holds (predict_flows);
# neither keeps the steps for a backward pass, so each caches K*R*(3T+6)*h,
# 0.44 of that at window 11: prediction's 202-row chunks of the desk profile
# cache 0.89 MiB, not 2.0. At the desk profile (window 11, batch 32) a group
# holds at most 12 models, so each share of a 16-cluster run on 2 CPUs is one
# group; at h=200 a group is one model. On 2 vCPUs, BLAS on 1 thread, a desk
# epoch of models of width 9 cost 489, 480, 441 and 454 us per model and batch
# in stacks of 4, 8, 12 and 16. With two or more usable CPUs every share
# trains in a forked child, outside the calling process: the children of a
# 144-flow run peaked at 37.1 MiB, 2.1 MiB above groups of at most 6. On one
# CPU the calling process trains, and its peak was 48.9 MiB (47.6 with groups
# of 6).
_WORKSPACE_FLOATS = 1 << 19


@dataclass
class GruConfig:
    """Hyperparameters of one recurrent forecaster."""

    input_size: int
    hidden_size: int = PROFILES["paper"]["hidden_size"]
    epochs: int = PROFILES["paper"]["epochs"]
    batch_size: int = 32
    patience: int = 5
    seed: int = 0
    profile: str = "paper"

    def __post_init__(self):
        for name in ("input_size", "hidden_size", "epochs", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")

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


@dataclass
class TrainReport:
    """Per-epoch loss curves and the early-stopping outcome of one model: a
    function of the data, the config and the seed, with no wall time (a run
    directory keeps its times in manifest.json)."""

    epochs_run: int
    train_losses: list[float]
    val_losses: list[float]
    stopped_early: bool
    best_epoch: int

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


class _Views(NamedTuple):
    """The tensors of a _Stack, as views into one of its flat buffers."""

    uzr: np.ndarray  # (2, K, h, h): uz.T, ur.T
    un: np.ndarray  # (K, h, h): un.T
    wx: list  # one (3, d_k + 1, h) per model: [wz.T; bz], [wr.T; br], [wn.T; bn]
    wo: list  # one (h, d_k) per model: wo.T
    bo: list  # one (d_k,) per model


class _Stack:
    """Flat layout of a group of models that share the hidden size.

    A buffer holds the stacked uzr and un, then wx, wo and bo of each model
    in turn (see _Views). The gate biases are the last row of wx, which
    meets a column of ones appended to the inputs. Parameters, gradients and
    both Adam moments of a group use the same layout.
    """

    def __init__(self, widths: list[int], hidden: int):
        k, h = len(widths), hidden
        self.widths = np.array(widths)
        self.hidden = h
        self.shapes = [(2, k, h, h), (k, h, h)]
        for d in widths:
            self.shapes += [(3, d + 1, h), (h, d), (d,)]
        self.size = sum(math.prod(shape) for shape in self.shapes)

    def views(self, flat: np.ndarray) -> _Views:
        out = _carve(flat, self.shapes)
        return _Views(*out[:2], out[2::3], out[3::3], out[4::3])

    def pack(self, params: list[dict]) -> np.ndarray:
        """One buffer from each model's tensors, named as in PARAM_ORDER."""
        flat = np.empty(self.size)
        v = self.views(flat)
        for i, p in enumerate(params):
            v.uzr[:, i] = p["uz"].T, p["ur"].T
            v.un[i] = p["un"].T
            v.wx[i][:, :-1] = p["wz"].T, p["wr"].T, p["wn"].T
            v.wx[i][:, -1] = p["bz"], p["br"], p["bn"]
            v.wo[i][:] = p["wo"].T
            v.bo[i][:] = p["bo"]
        return flat

    def unpack(self, flat: np.ndarray, i: int) -> dict:
        """Copies of model i's tensors in a buffer, named as in PARAM_ORDER."""
        v = self.views(flat)
        wx, uzr = v.wx[i], v.uzr[:, i]
        parts = {
            "wz": wx[0, :-1].T, "uz": uzr[0].T, "bz": wx[0, -1],
            "wr": wx[1, :-1].T, "ur": uzr[1].T, "br": wx[1, -1],
            "wn": wx[2, :-1].T, "un": v.un[i].T, "bn": wx[2, -1],
            "wo": v.wo[i].T, "bo": v.bo[i],
        }
        return {name: np.array(parts[name], order="C") for name in PARAM_ORDER}


def _carve(flat: np.ndarray, shapes: list[tuple]) -> list[np.ndarray]:
    """Consecutive views of the given shapes from the front of flat."""
    out, lo = [], 0
    for shape in shapes:
        out.append(flat[lo : lo + math.prod(shape)].reshape(shape))
        lo += math.prod(shape)
    return out


def _workspace_fit(n: int, steps: int, hidden: int) -> int:
    """How many models (of n window rows each), or window rows (of n
    models), one stacked pass over `steps` steps fits in the workspace; at
    least 1."""
    return max(1, _WORKSPACE_FLOATS // (n * (8 * steps + 1) * hidden))


class _Scratch:
    """Named buffers reused from one stacked pass to the next, so that a
    pass writes to memory that is already mapped and in cache, and its
    inner loops allocate nothing."""

    def __init__(self):
        self.bufs: dict[str, np.ndarray] = {}
        self.carved: dict[tuple, list[np.ndarray]] = {}

    def take(self, name: str, shapes: list[tuple]) -> list[np.ndarray]:
        """Views of the given shapes from the front of buffer `name`, carved
        once per shape list and kept until the buffer grows."""
        key = (name, tuple(shapes))
        views = self.carved.get(key)
        if views is None:
            need = sum(math.prod(shape) for shape in shapes)
            if self.bufs.get(name, np.empty(0)).size < need:
                self.bufs[name] = np.empty(need)
                self.carved = {k: v for k, v in self.carved.items() if k[0] != name}
            views = self.carved[key] = _carve(self.bufs[name], shapes)
        return views


def _flow_rows(flow_values: np.ndarray, members: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Steps lo .. hi - 1 of the member flows of the (M, T) matrix as the
    rows of one new C-ordered series: row t holds step lo + t of each
    member, then a 1 that meets the gate biases. A flow at a time, in one
    copy.

    Window s of this series is rows s .. s + steps - 1. A training batch is
    gathered time-major from the rows in one copy into a reused buffer;
    fancy indexing of the windows would build a fresh batch, which the glibc
    mmap threshold maps anew for each batch above 128 KiB. Validation and
    prediction read them as _step_slabs, with no copy at all."""
    rows = np.empty((hi - lo, members.size + 1))
    for j, flow in enumerate(members.tolist()):
        rows[:, j] = flow_values[flow, lo:hi]
    rows[:, -1] = 1.0
    return rows


class _Windows(NamedTuple):
    """Windows of `steps` steps of a series of rows laid out as _flow_rows
    lays them out (window s's step t is row s + t), with their targets."""

    rows: np.ndarray
    steps: int
    targets: np.ndarray


def _step_slabs(rows: np.ndarray, lo: int, count: int, steps: int) -> np.ndarray:
    """The windows lo .. lo + count - 1 of a series of rows, time-major and
    read-only: a (steps, count, d + 1) view whose [t, s] is step t of
    window lo + s, that is row lo + s + t."""
    r, c = rows.strides
    return np.lib.stride_tricks.as_strided(rows[lo:], (steps, count, rows.shape[1]), (r, r, c),
                                           writeable=False)


def _sigmoid_(x: np.ndarray) -> np.ndarray:
    """Logistic 1 / (1 + exp(-x)) in place; below x = -709 exp overflows
    and the result is the limit, 0 (_forward ignores that warning)."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.reciprocal(x, out=x)


def _forward(v: _Views, xs: list[np.ndarray], scratch: _Scratch, keep: bool = True):
    """Run every model of a stack over its (T, B, d_k + 1) time-major batch
    from h = 0, the last column of each step ones; the batches share T and B.

    Cell per step: update gate z, reset gate r, tanh candidate n on the
    reset-gated state, then h = (1 - z) * n + z * h_prev. The input
    projection runs once per model, before the time loop, and each step is
    two batched matmuls over the cluster axis. Returns the final states
    (K, B, h) and what backpropagation reads, all views into scratch that
    the next pass overwrites: the pre-activations of z, r and n
    (3, T, K, B, h), the states h_0 .. h_T (T+1, K, B, h), z and r
    (T, 2, K, B, h), and n and r * h_prev (T, K, B, h). Each step's slice
    of these is contiguous. With keep=False, when no backward pass follows,
    they hold the current step only (h_prev and h_next in two slots, which
    the steps take in turn), so the cache is (3T + 6) K B h floats instead
    of (8T + 1) K B h.
    """
    k, (t, b) = len(xs), xs[0].shape[:2]
    h = v.un.shape[-1]
    slots = t if keep else 1
    pre, hs, zrs, ns, rhs = scratch.take("cache", [
        (3, t, k, b, h), (slots + 1, k, b, h), (slots, 2, k, b, h), (slots, k, b, h),
        (slots, k, b, h)])
    for i, x in enumerate(xs):
        np.matmul(x[None], v.wx[i][:, None], out=pre[:, :, i])
    hs[0] = 0.0
    with np.errstate(over="ignore"):  # for _sigmoid_
        for s in range(t):
            state, zr = hs[s % (slots + 1)], zrs[s % slots]
            np.matmul(state, v.uzr, out=zr)
            zr += pre[:2, s]
            _sigmoid_(zr)
            z, r = zr
            rh = np.multiply(r, state, out=rhs[s % slots])
            n = np.matmul(rh, v.un, out=ns[s % slots])
            n += pre[2, s]
            np.tanh(n, out=n)
            nxt = np.subtract(state, n, out=hs[(s + 1) % (slots + 1)])
            nxt *= z
            nxt += n
    return hs[t % (slots + 1)], (pre, hs, zrs, ns, rhs)


def _readout(v: _Views, state: np.ndarray, i: int) -> np.ndarray:
    return state[i] @ v.wo[i] + v.bo[i]


def _backward(v: _Views, g: _Views, xs: list[np.ndarray], state: np.ndarray, cache,
              dpreds: list[np.ndarray], scratch: _Scratch) -> None:
    """Backpropagation through time for a stack: writes every gradient into
    g, given d loss_k / d prediction_k of each model. The gradients of the
    input weights are one matmul per model over all steps."""
    pre, hs, zrs, ns, rhs = cache
    t, k, b, h = ns.shape
    da = pre  # the pre-activation gradients overwrite the pre-activations
    dh, dh_prev, drh, tmp, tmp2, dx = scratch.take("grad", [
        (k, b, h), (k, b, h), (k, b, h), (k, b, h), (2, k, b, h), (3, t, b, h)])
    gu, gn, uzr_t, un_t = scratch.take("weights", [(2, k, h, h), (k, h, h)] * 2)
    for i, dp in enumerate(dpreds):
        np.matmul(dp, v.wo[i].T, out=dh[i])
    # contiguous copies, once per batch: numpy multiplies by a transposed
    # view at about half the speed, and one step saves more than they cost
    np.copyto(uzr_t, v.uzr.transpose(0, 1, 3, 2))
    np.copyto(un_t, v.un.transpose(0, 2, 1))
    g_uzr, g_un = g.uzr, g.un
    g_uzr[:] = 0.0
    g_un[:] = 0.0
    for s in reversed(range(t)):
        hp, n, zr = hs[s], ns[s], zrs[s]
        z, r = zr
        dzr, dan = da[:2, s], da[2, s]
        np.multiply(dh, z, out=dh_prev)
        np.subtract(dh, dh_prev, out=dan)  # d n
        np.multiply(n, n, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        dan *= tmp
        np.matmul(dan, un_t, out=drh)
        np.subtract(hp, n, out=dzr[0])
        dzr[0] *= dh  # d z
        np.multiply(drh, hp, out=dzr[1])  # d r
        np.subtract(1.0, zr, out=tmp2)
        tmp2 *= zr
        dzr *= tmp2
        np.multiply(drh, r, out=tmp)
        dh_prev += tmp
        np.matmul(dzr, uzr_t, out=tmp2)
        dh_prev += tmp2[0]
        dh_prev += tmp2[1]
        np.matmul(hp.transpose(0, 2, 1), dzr, out=gu)
        g_uzr += gu
        np.matmul(rhs[s].transpose(0, 2, 1), dan, out=gn)
        g_un += gn
        dh, dh_prev = dh_prev, dh
    for i, x in enumerate(xs):
        np.copyto(dx, da[:, :, i])
        np.matmul(x.reshape(t * b, -1).T, dx.reshape(3, t * b, h), out=g.wx[i])
        np.matmul(state[i].T, dpreds[i], out=g.wo[i])
        dpreds[i].sum(axis=0, out=g.bo[i])


def _sq_errors_and_grads(v: _Views, g: _Views, xs: list[np.ndarray], ys: list[np.ndarray],
                         scratch: _Scratch) -> np.ndarray:
    """One forward and backward pass of a stack over a batch per model.
    Writes the gradient of each model's mean squared error (over its own
    B x d_k errors) into g; returns each model's sum of squared errors."""
    state, cache = _forward(v, xs, scratch)
    errs = [_readout(v, state, i) - y for i, y in enumerate(ys)]
    _backward(v, g, xs, state, cache, [(2.0 / e.size) * e for e in errs], scratch)
    return np.array([np.vdot(e, e) for e in errs])


def _dataset_mse(v: _Views, sets: list[_Windows], chunk: int, scratch: _Scratch) -> np.ndarray:
    """Mean squared error of every model of a stack on its own windows,
    from forward passes over `chunk` windows at a time."""
    total = np.zeros(len(sets))
    n, t = len(sets[0].targets), sets[0].steps
    for lo in range(0, n, chunk):
        xs = [_step_slabs(w.rows, lo, min(chunk, n - lo), t) for w in sets]
        state, _ = _forward(v, xs, scratch, keep=False)
        for i, w in enumerate(sets):
            err = _readout(v, state, i) - w.targets[lo : lo + chunk]
            total[i] += np.vdot(err, err)
    return total / np.array([w.targets.size for w in sets])


@dataclass
class _Progress:
    """Loss curves and early-stopping state of one model in training."""

    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_val: float = np.inf
    best_epoch: int = -1
    best_params: dict | None = None
    bad_epochs: int = 0
    stopped_early: bool = False


def _diverged(message: str, live: list[int], losses: np.ndarray) -> NumericalError:
    """NumericalError whose `member` is the index, among the configs of a
    group, of the first live model whose loss is not finite."""
    exc = NumericalError(message)
    exc.member = live[int(np.argmin(np.isfinite(losses)))]
    return exc


def _train_group(
    configs: list[GruConfig],
    train_sets: list[_Windows],
    val_sets: list[_Windows],
) -> list[tuple[GruModel, TrainReport]]:
    """Train one model per config in one stack; see train_partitioned for
    the rules.

    The configs differ only in input_size and seed, and the training sets
    have the same number and length of windows, so every model takes the
    same Adam steps. A model that stops early leaves the stack after that
    epoch: its parameters and Adam moments are packed out, and it is not
    computed on.
    """
    cfg = configs[0]
    models = [init_model(c) for c in configs]
    rngs = [np.random.default_rng(c.seed) for c in configs]
    progress = [_Progress() for _ in configs]
    final: dict[int, dict] = {}
    live = list(range(len(configs)))
    stack = _Stack([c.input_size for c in configs], cfg.hidden_size)
    params = stack.pack([m.params for m in models])
    m1, m2, grads = np.zeros(stack.size), np.zeros(stack.size), np.empty(stack.size)
    n = len(train_sets[0].targets)
    steps = np.arange(train_sets[0].steps)[:, None]
    scratch = _Scratch()
    adam_t = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            pv, gv = stack.views(params), stack.views(grads)
            orders = [rngs[i].permutation(n) for i in live]
            sq_sum = np.zeros(len(live))
            for lo in range(0, n, cfg.batch_size):
                batch = [(i, order[lo : lo + cfg.batch_size]) for i, order in zip(live, orders)]
                xs = scratch.take("inputs", [(len(steps), len(j), train_sets[i].rows.shape[1])
                                             for i, j in batch])
                for (i, j), x in zip(batch, xs):
                    # the indices are in range; mode "raise" would buffer the copy
                    np.take(train_sets[i].rows, steps + j, axis=0, out=x, mode="clip")
                sq = _sq_errors_and_grads(pv, gv, xs, [train_sets[i].targets[j] for i, j in batch],
                                          scratch)
                if not np.isfinite(sq).all():
                    raise _diverged(f"training diverged: non-finite loss at epoch {epoch + 1}",
                                    live, sq)
                adam_t += 1
                # params -= lr * (m1 / c1) / (sqrt(m2 / c2) + eps), in place
                step, denom = scratch.take("adam", [(stack.size,), (stack.size,)])
                np.multiply(grads, 1.0 - ADAM_BETA1, out=step)
                m1 *= ADAM_BETA1
                m1 += step
                np.multiply(grads, grads, out=step)
                step *= 1.0 - ADAM_BETA2
                m2 *= ADAM_BETA2
                m2 += step
                np.divide(m1, 1.0 - ADAM_BETA1**adam_t, out=step)
                step *= LEARNING_RATE
                np.divide(m2, 1.0 - ADAM_BETA2**adam_t, out=denom)
                np.sqrt(denom, out=denom)
                denom += ADAM_EPS
                step /= denom
                params -= step
                sq_sum += sq
            train_loss = sq_sum / (n * stack.widths)

            val_loss = _dataset_mse(pv, [val_sets[i] for i in live], cfg.batch_size, scratch)
            if not np.isfinite(val_loss).all():
                raise _diverged(f"validation loss non-finite at epoch {epoch + 1}", live, val_loss)

            keep = []
            for c, i in enumerate(live):
                p = progress[i]
                p.train_losses.append(float(train_loss[c]))
                p.val_losses.append(float(val_loss[c]))
                if p.best_val - val_loss[c] > MIN_DELTA:
                    p.best_val, p.best_epoch, p.bad_epochs = val_loss[c], epoch, 0
                    p.best_params = stack.unpack(params, c)
                else:
                    p.bad_epochs += 1
                    p.stopped_early = p.bad_epochs >= cfg.patience
                if p.stopped_early or epoch == cfg.epochs - 1:
                    final[i] = p.best_params or stack.unpack(params, c)
                else:
                    keep.append(c)
            if len(keep) < len(live):
                packed = _Stack([int(stack.widths[c]) for c in keep], cfg.hidden_size)
                params, m1, m2 = (packed.pack([stack.unpack(buf, c) for c in keep])
                                  for buf in (params, m1, m2))
                grads = np.empty(packed.size)
                stack, live = packed, [live[c] for c in keep]
            if not live:
                break

    results = []
    for i, (model, p) in enumerate(zip(models, progress)):
        model.params = final[i]
        results.append((model, TrainReport(
            epochs_run=len(p.val_losses),
            train_losses=p.train_losses,
            val_losses=p.val_losses,
            stopped_early=p.stopped_early,
            best_epoch=p.best_epoch,
        )))
    return results


def _check_finite(flow_values: np.ndarray, lo: int, hi: int) -> None:
    """ValidationError for the first flow with NaN or Inf in steps [lo, hi), by row blocks."""
    step = block_rows(hi - lo)
    for start in range(0, len(flow_values), step):
        finite = np.isfinite(flow_values[start : start + step, lo:hi]).all(axis=1)
        if not finite.all():
            raise ValidationError(f"flow {start + int(finite.argmin())} holds NaN or Inf")


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
    not depend on the other clusters, nor on where or with which others it
    trains. The clusters are dealt to shares by their estimated cost
    (tmcf.parallel.deal), and each share trains in groups that fit the
    workspace. A NaN or Inf in the steps training reads raises
    ValidationError before any share starts. A non-finite loss stops a
    group and its share with NumericalError; of several, the one of the
    lowest diverging cluster id is raised. Results are keyed by cluster id.

    Each model minimizes MSE with Adam over seeded shuffled mini-batches.
    Validation loss is checked once per epoch; training stops early after
    `patience` consecutive epochs whose improvement over the best seen loss
    is at most MIN_DELTA, and the best-validation parameters are restored.
    To train a single cluster, pass a one-cluster Partition.
    """
    if partition.n_items != flow_values.shape[0]:
        raise ValidationError(
            f"partition covers {partition.n_items} flows, matrix has {flow_values.shape[0]}"
        )
    lo, hi = min(train_range[0], val_range[0]), max(train_range[1], val_range[1])
    if (window_length < 2 or lo < 0 or hi > flow_values.shape[1]
            or min(train_range[1] - train_range[0], val_range[1] - val_range[0]) < window_length):
        raise ValidationError(f"training range {train_range} and validation range {val_range} "
                              f"of {flow_values.shape[1]} steps must each fit a window of "
                              f"{window_length} >= 2 steps")
    _check_finite(flow_values, lo, hi)
    widths = partition.cluster_sizes()
    # a model's matmul work per window step, 6h(d+1) + 9h^2 multiply-adds, over 3h
    costs = [2 * (int(d) + 1) + 3 * config.hidden_size for d in widths]
    fit = _workspace_fit(config.batch_size, window_length - 1, config.hidden_size)
    # seeded here, so that numpy.random is loaded once in this process and
    # not again in every child
    seeds = {label: cluster_seed(config.seed, label) for label in range(1, partition.k + 1)}

    def train_share(indices: list[int]):
        """({label: (model, report)}, None) for the clusters of labels
        indices + 1, or (partial results, (label, NumericalError)) for the
        first group that diverges; later groups of the share hold only
        larger labels and do not train."""
        results = {}
        for group in np.array_split(np.add(indices, 1), -(-len(indices) // fit)):
            configs, train_sets, val_sets = [], [], []
            for label in group.tolist():
                members = partition.members(label)
                # one copy of what training reads; both sets' windows and
                # targets are views of it
                rows = _flow_rows(flow_values, members, lo, hi)
                for sets, (start, stop) in ((train_sets, train_range), (val_sets, val_range)):
                    sets.append(_Windows(rows[start - lo :], window_length - 1,
                                         rows[start - lo + window_length - 1 : stop - lo, :-1]))
                configs.append(replace(config, input_size=members.size, seed=seeds[label]))
            try:
                results.update(zip(group.tolist(), _train_group(configs, train_sets, val_sets)))
            except NumericalError as exc:
                return results, (int(group[exc.member]), exc)
        return results, None

    outcomes = deal(train_share, costs)
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return {label: result for results, _ in outcomes for label, result in results.items()}


def predict_flows(
    models: dict[int, GruModel],
    partition: Partition,
    flow_values: np.ndarray,
    test_range: tuple[int, int],
    window_length: int,
) -> np.ndarray:
    """One-step predictions of every flow over the test range: the
    normalized (samples, M) matrix pred_norm, each flow predicted once per
    step by its cluster's model.

    A cluster's test steps are gathered once, straight from flow_values
    into the one array of rows that its forward passes read, and each
    chunk's readout is written into the cluster's columns of pred_norm; the
    clusters share one scratch. So prediction holds pred_norm, one
    cluster's rows and a scratch that does not grow with the test range.
    """
    m = partition.n_items
    if flow_values.shape[0] != m:
        raise ValidationError("flow matrix does not match the partition")
    missing = [label for label in range(1, partition.k + 1) if label not in models]
    if missing:
        raise ValidationError(f"missing models for clusters {missing}")
    start, stop = test_range
    steps, n_samples = window_length - 1, stop - start - window_length + 1
    if window_length < 2 or start < 0 or stop > flow_values.shape[1] or n_samples < 1:
        raise ValidationError(f"test range {test_range} of {flow_values.shape[1]} steps must "
                              f"fit a window of {window_length} >= 2 steps")
    # every step but the last, which only a target reads
    _check_finite(flow_values, start, stop - 1)

    pred_norm = np.empty((n_samples, m), dtype=np.float64)
    scratch = _Scratch()
    for label in range(1, partition.k + 1):
        model, members = models[label], partition.members(label)
        if model.input_size != members.size:
            raise ValidationError(f"model {label} takes {model.input_size} flows, "
                                  f"its cluster has {members.size}")
        rows = _flow_rows(flow_values, members, start, stop - 1)
        stack = _Stack([model.input_size], model.hidden_size)
        v = stack.views(stack.pack([model.params]))
        # chunks of as many windows as a pass of two models takes in the
        # workspace; a chunk of another size sums in another order and moves
        # the predictions in their last bit
        chunk = _workspace_fit(2, steps, model.hidden_size)
        for lo in range(0, n_samples, chunk):
            state, _ = _forward(v, [_step_slabs(rows, lo, min(chunk, n_samples - lo), steps)],
                                scratch, keep=False)
            pred_norm[lo : lo + chunk, members] = _readout(v, state, 0)
    return pred_norm


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
    """predict_flows's normalized predictions and, as a trace segment, the
    same predictions in bytes (predictions_in_bytes). The pipeline scores
    from pred_norm alone, which evaluate.rmse_physical converts a row chunk
    at a time; this form is for callers that want the predicted matrices."""
    pred_norm = predict_flows(models, partition, flow_values, test_range, window_length)
    values = predictions_in_bytes(pred_norm, scale).reshape(-1, n_nodes, n_nodes)
    return pred_norm, TmSeries(n_nodes=n_nodes, interval_seconds=interval_seconds, values=values)


# ---------------------------------------------------------------------------
# Model serialization: versioned binary with a JSON header
# ---------------------------------------------------------------------------


def save_model(model: GruModel, path: str) -> None:
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "input_size": model.input_size,
        "hidden_size": model.hidden_size,
        "output_size": model.input_size,
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
    of the file, or a file size that does not fit the header's shapes,
    raises ValidationError."""
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
        need = 8 * sum(math.prod(shape) for shape in expected.values())
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if need != left:
            raise ValidationError(
                f"{path}: the parameter blocks take {need} bytes, the file has {left} left"
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
