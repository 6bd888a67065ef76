"""Evaluation metrics: RMSE, clustering agreement, knee selection.

This module computes metrics only; the pipeline (`tmcf.pipeline`) runs the
models whose predictions it scores, including the K sweeps that kneedle
reads.

Scalar RMSE pools the squared errors of every test sample and matrix entry
(matching the single-sum definition), so it is NOT the mean of per-flow
RMSEs. Physical RMSE converts byte-per-interval errors to Mbps before
squaring; it also takes normalized predictions with their scale, which it
converts to bytes a row chunk at a time. Partition agreement uses the
adjusted Rand index and mutual information normalized by the arithmetic mean
of the label entropies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .dataset import ScaleParams
from .errors import ValidationError
from .predict import predictions_in_bytes

if TYPE_CHECKING:
    from .cluster import Partition

BYTES_TO_MEGABITS = 8.0 / 1e6

# Values per chunk, in whole rows, when the predictions are converted and
# scaled for the physical RMSE, so that their copies are about 64 KiB at a
# time, not one more full array
_SCALE_CHUNK = 1 << 13

# Kneedle's S: how far (in mean x steps) the difference curve must fall
# after a candidate to confirm it as the knee
KNEEDLE_SENSITIVITY = 1.0


@dataclass
class ClusterStats:
    """Size distribution of one partition."""

    k: int
    min_size: int
    mean_size: float
    max_size: int
    n_singletons: int
    singleton_pct: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SweepCurve:
    """Mean/std RMSE and mean runtime per swept cluster count. A runtime is
    wall time with training spread over every usable CPU, so K=1, one model,
    gets no speed-up from more CPUs and larger K do."""

    k_values: list[int]
    mean_rmse: list[float]
    rmse_std: list[float]
    mean_runtime_seconds: list[float]
    repetitions: int

    def __post_init__(self):
        lengths = {
            len(self.k_values),
            len(self.mean_rmse),
            len(self.rmse_std),
            len(self.mean_runtime_seconds),
        }
        if len(lengths) != 1:
            raise ValidationError("sweep curve columns must have equal lengths")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be >= 1")
        if list(self.k_values) != sorted(self.k_values):
            raise ValidationError("k_values must be increasing")


@dataclass
class KneeResult:
    """Selected operating K; no_knee marks the argmin fallback."""

    k: int
    no_knee: bool


@dataclass
class EvalReport:
    """Prediction quality of one run, its cluster sizes and how to read its
    numbers; manifest.json and partition.json hold the config and partition."""

    rmse_normalized: float
    rmse_physical_mbps: float
    per_flow_rmse: list[float]
    partition: dict
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _squared_errors(truth, pred, factor: float | None = None, scale: ScaleParams | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """(truth - pred)^2, or with a factor (truth * factor - pred * factor)^2,
    in out (reshaped to pred's shape; default one new C-ordered array).
    Given a scale, pred holds normalized predictions, which enter as
    predictions_in_bytes(pred, scale). With a factor, pred is converted and
    scaled a chunk of rows (along the first axis), about _SCALE_CHUNK
    values, at a time."""
    t = np.asarray(truth, dtype=np.float64)
    p = np.asarray(pred, dtype=np.float64)
    if t.shape != p.shape:
        raise ValidationError(f"shape mismatch: truth {t.shape} vs pred {p.shape}")
    sq = np.empty(p.shape) if out is None else out.reshape(p.shape)
    if factor is None:
        np.subtract(t, p, out=sq)
    else:
        np.multiply(t, factor, out=sq)
        rows, p = sq.reshape(len(sq), -1), p.reshape(len(p), -1)
        step = max(1, _SCALE_CHUNK // max(1, rows.shape[1]))
        for lo in range(0, len(rows), step):
            chunk = p[lo : lo + step]
            if scale is not None:
                chunk = predictions_in_bytes(chunk, scale)
            rows[lo : lo + step] -= chunk * factor
    sq *= sq
    return sq


def rmse(truth, pred) -> float:
    """Root mean squared error pooled over all samples and entries."""
    return float(np.sqrt(np.mean(_squared_errors(truth, pred))))


def rmse_physical(truth, pred, interval_seconds: int, scale: ScaleParams | None = None,
                  out: np.ndarray | None = None) -> float:
    """RMSE in Mbps of byte-per-interval traffic: errors are converted via
    bytes * 8 / (interval_seconds * 1e6) before squaring. pred is in bytes
    per interval or, given scale, holds normalized (samples, M) predictions,
    converted by predictions_in_bytes a row chunk at a time. The squared
    errors go to out when given, an array of pred's size."""
    if interval_seconds < 1:
        raise ValidationError(f"interval_seconds must be positive, got {interval_seconds}")
    factor = BYTES_TO_MEGABITS / interval_seconds
    return float(np.sqrt(np.mean(_squared_errors(truth, pred, factor, scale, out))))


def per_flow_rmse(truth: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """RMSE per flow over (samples, M) matrices; pooling the squares of this
    vector reproduces the scalar RMSE."""
    return rmse_by_flow(truth, pred)[1]


def rmse_by_flow(truth: np.ndarray, pred: np.ndarray,
                 out: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """(rmse, per_flow_rmse) of (samples, M) matrices, from one array of
    squared errors: out when given, an array of pred's size."""
    if np.shape(truth) != np.shape(pred) or np.ndim(truth) != 2:
        raise ValidationError("per-flow RMSE needs matching (samples, M) matrices")
    sq = _squared_errors(truth, pred, out=out)
    return float(np.sqrt(np.mean(sq))), np.sqrt(np.mean(sq, axis=0))


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    ka = ia.max() + 1
    kb = ib.max() + 1
    return np.bincount(ia * kb + ib, minlength=ka * kb).reshape(ka, kb)


def _labels_of(p) -> np.ndarray:
    """A Partition's labels, or p itself, as an array."""
    return np.asarray(getattr(p, "labels", p))


def _comb2(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.float64)
    return x * (x - 1.0) / 2.0


def ari(a, b) -> float:
    """Adjusted Rand index from the label contingency table.

    1.0 for identical partitions up to relabeling; 0 expected for independent
    partitions; can be negative. Degenerate cases where the index cannot
    deviate from its expectation (both trivial partitions) return 1.0.
    """
    la, lb = _labels_of(a), _labels_of(b)
    if la.shape != lb.shape:
        raise ValidationError(f"partition lengths differ: {la.shape} vs {lb.shape}")
    n = la.size
    cont = _contingency(la, lb)
    sum_ij = _comb2(cont).sum()
    sum_a = _comb2(cont.sum(axis=1)).sum()
    sum_b = _comb2(cont.sum(axis=0)).sum()
    total = _comb2(np.array([n]))[0]
    # one item has no pairs: the index cannot deviate from its expectation
    expected = sum_a * sum_b / total if total else 0.0
    denom = 0.5 * (sum_a + sum_b) - expected
    if denom == 0.0:
        return 1.0
    return float((sum_ij - expected) / denom)


def nmi(a, b) -> float:
    """Mutual information normalized by the arithmetic mean of the two label
    entropies; zero-entropy (single-cluster) cases return 0 by convention."""
    la, lb = _labels_of(a), _labels_of(b)
    if la.shape != lb.shape:
        raise ValidationError(f"partition lengths differ: {la.shape} vs {lb.shape}")
    n = la.size
    cont = _contingency(la, lb).astype(np.float64)
    pij = cont / n
    pa = pij.sum(axis=1)
    pb = pij.sum(axis=0)
    ha = -np.sum(pa[pa > 0] * np.log(pa[pa > 0]))
    hb = -np.sum(pb[pb > 0] * np.log(pb[pb > 0]))
    if ha == 0.0 or hb == 0.0:
        return 0.0
    outer = pa[:, None] * pb[None, :]
    mask = pij > 0
    mi = float(np.sum(pij[mask] * np.log(pij[mask] / outer[mask])))
    value = mi / (0.5 * (ha + hb))
    return float(min(max(value, 0.0), 1.0))


def cluster_stats(p: Partition) -> ClusterStats:
    sizes = p.cluster_sizes()
    n_single = int(np.sum(sizes == 1))
    return ClusterStats(
        k=p.k,
        min_size=int(sizes.min()),
        mean_size=float(p.n_items / p.k),
        max_size=int(sizes.max()),
        n_singletons=n_single,
        singleton_pct=100.0 * n_single / p.k,
    )


def error_correlation(e_a: np.ndarray, e_b: np.ndarray) -> float:
    """Pearson correlation of two per-flow error vectors; NaN flags the
    undefined zero-variance case."""
    x = np.asarray(e_a, dtype=np.float64)
    y = np.asarray(e_b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValidationError("error vectors must be equal-length 1-D with >= 2 entries")
    xm = x - x.mean()
    ym = y - y.mean()
    denom = np.sqrt(np.sum(xm * xm) * np.sum(ym * ym))
    if denom == 0.0:
        return float("nan")
    return float(np.sum(xm * ym) / denom)


def kneedle(k_values, rmse_values) -> KneeResult:
    """Knee of a decreasing performance-vs-K curve.

    Normalizes both axes to [0, 1], flips the decreasing curve into
    increasing-concave form, and scans the difference curve y_d = y_n - x_n.
    Interior local maxima are knee candidates; a candidate is confirmed when
    the difference curve later drops below y_d - KNEEDLE_SENSITIVITY *
    mean(dx) before the next candidate. The confirmed candidate with the
    largest difference value is returned. If nothing is confirmed (e.g. a
    straight line), the argmin-RMSE K is returned with no_knee set.
    """
    ks = np.asarray(k_values, dtype=np.float64)
    ys = np.asarray(rmse_values, dtype=np.float64)
    if ks.size != ys.size or ks.size < 3:
        raise ValidationError("need at least 3 (k, rmse) points to locate a knee")
    argmin_k = int(ks[int(np.argmin(ys))])
    span_y = ys.max() - ys.min()
    if span_y == 0.0:
        return KneeResult(k=argmin_k, no_knee=True)
    x_n = (ks - ks.min()) / (ks.max() - ks.min())
    y_n = 1.0 - (ys - ys.min()) / span_y
    y_d = y_n - x_n

    candidates = [
        i for i in range(1, y_d.size - 1) if y_d[i] > y_d[i - 1] and y_d[i] >= y_d[i + 1]
    ]
    mean_dx = float(np.mean(np.diff(x_n)))
    confirmed = []
    for pos, i in enumerate(candidates):
        threshold = y_d[i] - KNEEDLE_SENSITIVITY * mean_dx
        stop = candidates[pos + 1] if pos + 1 < len(candidates) else y_d.size
        if np.any(y_d[i + 1 : stop] < threshold):
            confirmed.append(i)
    if not confirmed:
        return KneeResult(k=argmin_k, no_knee=True)
    best = max(confirmed, key=lambda i: (y_d[i], -i))
    return KneeResult(k=int(ks[best]), no_knee=False)
