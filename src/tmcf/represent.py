"""Flow representations (histogram, ACF, PSD) and pairwise dissimilarity.

Each representation maps a flow onto a fixed-length feature vector;
flows are then compared with Jensen-Shannon divergence (histograms) or
Euclidean distance (ACF/PSD vectors) to build the symmetric M x M
dissimilarity matrix consumed by the clustering stage.

Each representation pays only for its own work. scipy.signal is imported
inside the PSD code, so importing tmcf and running histogram or ACF
features never load it (nor the scipy.stats and scipy.interpolate it
pulls in). The ACF reads every lag from one FFT autocorrelation per
row slab, recomputing with the direct formula only the entries where that
closed form is ill-conditioned. JSD uses the entropy form, with each
row's entropy computed once.

The ACF and PSD features split their rows, and the dissimilarities their
row pairs, through tmcf.parallel.split, each estimating its serial work by
a cost per value below. Histograms cost too little per value to split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .dataset import FlowSet
from .errors import ValidationError

REPRESENTATIONS = ("histogram", "acf", "psd")
METRICS = ("jsd", "euclidean")
DEFAULT_METRIC = {"histogram": "jsd", "acf": "euclidean", "psd": "euclidean"}

DEFAULT_BINS = 50
DEFAULT_SEGMENT_LENGTH = 256

_ZERO_VAR_EPS = 1e-30
_ACF_SLAB_ROWS = 64
_ACF_TAU = 1e-3

# Seconds of serial work per value (flow x step of the block, or pair x
# feature), for the fork decision (see tmcf.parallel). Measured on the 2-vCPU
# benchmark host: ACF and PSD of 576 x 806 blocks in 0.08 and 0.04 s, and the
# Euclidean and JSD matrices of 576 flows (30 lags, 50 bins) in 0.028 and
# 0.065 s (glibc mmap threshold 128 KiB, medians of 7).
_ACF_SECONDS_PER_CELL = 1.7e-7
_PSD_SECONDS_PER_CELL = 9e-8
_EUCLIDEAN_SECONDS_PER_VALUE = 5.7e-9
_JSD_SECONDS_PER_VALUE = 7.9e-9


@dataclass
class ReprMatrix:
    """Stacked feature vectors for all M flows plus the representation tag."""

    features: np.ndarray
    kind: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in REPRESENTATIONS:
            raise ValidationError(
                f"kind must be one of {REPRESENTATIONS}, got {self.kind!r}"
            )
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValidationError("feature matrix must be 2-D (flows x features)")


@dataclass
class DissimilarityMatrix:
    """M x M dissimilarities of one metric between all flows; hac(), which takes
    every such matrix, checks it is square, finite, nonnegative, symmetric, zero-diagonal."""

    d: np.ndarray
    metric: str

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValidationError(f"metric must be one of {METRICS}, got {self.metric!r}")


def default_lags(interval_seconds: int) -> list[int]:
    """Lag schedule in steps: every step up to 2 h, hourly from 3 h to 6 h,
    then 12 h and 24 h.

    For 5-minute data this is {1..24, 36, 48, 60, 72, 144, 288}; for
    15-minute data {1..8, 12, 16, 20, 24, 48, 96}.
    """
    if interval_seconds < 1 or 3600 % interval_seconds != 0:
        raise ValidationError(
            f"interval {interval_seconds}s must divide one hour"
        )
    per_hour = 3600 // interval_seconds
    short = list(range(1, 2 * per_hour + 1))
    medium = [h * per_hour for h in (3, 4, 5, 6)]
    long = [12 * per_hour, 24 * per_hour]
    return short + medium + long


def welch_settings(n_steps: int, segment_length: int | None = None) -> dict:
    """The Welch parameters actually used, for run metadata."""
    nper = segment_length if segment_length is not None else min(DEFAULT_SEGMENT_LENGTH, n_steps)
    return {
        "segment_length": int(nper),
        "overlap": int(nper // 2),
        "window": "hann",
        "detrend": "global_mean",
        "scaling": "one_sided_density",
    }


def build_features(
    flows: FlowSet | np.ndarray,
    kind: str,
    bins: int = DEFAULT_BINS,
    lags=None,
    fs: float | None = None,
    interval_seconds: int | None = None,
    normalize_power: bool = True,
    segment_length: int | None = None,
) -> ReprMatrix:
    """Compute one representation for every flow (row) of the block at once.

    ACF lags default to the schedule implied by the sampling interval; the
    PSD sampling frequency defaults to samples-per-hour. With
    normalize_power each PSD vector is scaled to unit mass so spectral shape
    rather than total power drives the distances.

    ACF and PSD split their rows (tmcf.parallel.split) and join the shares'
    rows in order.
    """
    if isinstance(flows, FlowSet):
        values = flows.values
        interval_seconds = interval_seconds or flows.interval_seconds
    else:
        values = np.asarray(flows, dtype=np.float64)
    if values.ndim != 2:
        raise ValidationError("flows must be a 2-D (M x T) array")

    if kind == "histogram":
        feats = _histogram_block(values, bins)
        meta = {"bins": int(bins), "bin_range": [0.0, 1.0]}
    elif kind == "acf":
        if lags is None:
            if interval_seconds is None:
                raise ValidationError("acf needs explicit lags or an interval to derive them")
            lags = default_lags(interval_seconds)
        lags = np.asarray(sorted(set(int(l) for l in lags)), dtype=np.int64)
        parts = parallel.split(lambda lo, hi: _acf_block(values[lo:hi], lags), len(values),
                               _ACF_SECONDS_PER_CELL * values.size)
        feats, degenerate = (np.concatenate(arrays) for arrays in zip(*parts))
        meta = {
            "lags": lags.tolist(),
            "degenerate_flows": np.flatnonzero(degenerate).tolist(),
        }
    elif kind == "psd":
        if fs is None:
            if interval_seconds is None:
                raise ValidationError("psd needs explicit fs or an interval to derive it")
            fs = 3600.0 / interval_seconds
        # loaded here, before any fork, so that no share loads it again
        from scipy import signal

        parts = parallel.split(
            lambda lo, hi: _psd_block(values[lo:hi], signal.welch, fs, segment_length),
            len(values), _PSD_SECONDS_PER_CELL * values.size)
        freqs, feats = parts[0][0], np.concatenate([power for _, power in parts])
        if normalize_power:
            mass = feats.sum(axis=1, keepdims=True)
            feats = np.divide(feats, mass, out=np.zeros_like(feats), where=mass > 0)
        meta = {
            "fs_per_hour": float(fs),
            "freqs": freqs.tolist(),
            "normalize_power": bool(normalize_power),
        }
        meta.update(welch_settings(values.shape[1], segment_length))
    else:
        raise ValidationError(f"unknown representation {kind!r}; expected {REPRESENTATIONS}")
    return ReprMatrix(features=feats, kind=kind, meta=meta)


def _histogram_block(values: np.ndarray, bins: int) -> np.ndarray:
    """Each flow's empirical pmf over `bins` equal-width bins spanning [0, 1].

    A value at an interior edge is counted in the bin whose lower edge it
    is; the top bin is closed so 1.0 is counted. Values outside [0, 1]
    (possible on the test region of a normalized flow) are clipped into the
    boundary bins so that every pmf sums to 1. Bin indices are computed as
    np.histogram computes them for uniform bins, edge corrections included,
    so the counts equal its counts.
    """
    m, t = values.shape
    if t == 0:
        raise ValidationError("flow must be a nonempty 1-D series")
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
    if not np.isfinite(values).all():
        raise ValidationError("flows must be finite to build histograms")
    x = np.clip(values, 0.0, 1.0)
    edges = np.linspace(0.0, 1.0, bins + 1)
    idx = (x * bins).astype(np.intp)
    idx[idx == bins] -= 1
    idx -= x < edges[idx]
    idx += (x >= edges[idx + 1]) & (idx != bins - 1)
    idx += np.arange(m)[:, None] * bins
    return np.bincount(idx.ravel(), minlength=m * bins).reshape(m, bins) / t


def _acf_block(values: np.ndarray, lags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample autocorrelations at sorted, distinct lags; returns (rho, degenerate).

    Each entry is the Pearson correlation between a flow and its lag-shifted
    copy over the overlap region. Lags where either segment has zero
    variance produce 0; a fully constant flow is flagged degenerate and gets
    0 at every lag, also where rounding leaves its centred copy nonzero.

    The block is processed in slabs of _ACF_SLAB_ROWS rows, so no temporary
    spans the whole block. Each flow is centred once on its mean, which
    leaves every correlation unchanged. For lag l and overlap n = T - l,
    the cross term sum(x[t+l] * x[t]) of every lag comes from one
    rfft/irfft autocorrelation (|F|^2 with n_fft >= 2T - 1, so nothing
    wraps), and each segment's sum and sum of squares from prefix sums
    (for [0, n)) and suffix sums (for [l, T)). That closed form subtracts
    nearly equal sums where a segment is almost constant, so an entry is
    recomputed with the direct formula of _acf_at_lag when a segment's
    variance is <= _ACF_TAU times its sum of squares, or the denominator
    is <= _ACF_TAU times the flow's energy (sum of x^2) or within a factor
    1 / _ACF_TAU of the direct formula's zero-variance cut-off. Elsewhere it
    agrees with the direct formula to about 1e-13 or better.
    """
    m, t = values.shape
    if lags.size == 0:
        raise ValidationError("lag set must be nonempty")
    if (lags < 0).any():
        raise ValidationError("lags must be nonnegative")
    if lags.max() >= t:
        raise ValidationError(
            f"max lag {lags.max()} must be smaller than series length {t}"
        )
    degenerate = np.ptp(values, axis=1) == 0.0
    rho = np.zeros((m, lags.size), dtype=np.float64)
    n = t - lags
    n_fft = 1 << (2 * t - 2).bit_length()  # a power of two >= 2T - 1
    lagged = lags != 0
    for start in range(0, m, _ACF_SLAB_ROWS):
        rows = slice(start, start + _ACF_SLAB_ROWS)
        x = values[rows] - values[rows].mean(axis=1, keepdims=True)
        spectrum = np.fft.rfft(x, n=n_fft)
        cross = np.fft.irfft(spectrum.real ** 2 + spectrum.imag ** 2, n=n_fft)[:, lags]
        sq = x * x
        head, head_sq = np.cumsum(x, axis=1), np.cumsum(sq, axis=1)
        tail, tail_sq = np.cumsum(x[:, ::-1], axis=1), np.cumsum(sq[:, ::-1], axis=1)
        sum_b, sq_b = head[:, n - 1], head_sq[:, n - 1]  # segment [0, n)
        sum_a, sq_a = tail[:, n - 1], tail_sq[:, n - 1]  # segment [l, T)
        var_a = sq_a - sum_a * sum_a / n
        var_b = sq_b - sum_b * sum_b / n
        denom = np.sqrt(np.maximum(var_a * var_b, 0.0))
        shaky = ((var_a <= _ACF_TAU * sq_a) | (var_b <= _ACF_TAU * sq_b)
                 | (denom <= _ACF_TAU * head_sq[:, -1:]) | (denom <= _ZERO_VAR_EPS / _ACF_TAU))
        slab = np.divide(cross - sum_a * sum_b / n, denom,
                         out=np.zeros_like(denom), where=~shaky)
        np.clip(slab, -1.0, 1.0, out=slab)
        shaky &= lagged & ~degenerate[rows, None]
        for i in np.flatnonzero(shaky.any(axis=0)):
            redo = np.flatnonzero(shaky[:, i])
            slab[redo, i] = _acf_at_lag(values[start + redo], int(lags[i]))
        rho[rows] = slab
    rho[:, ~lagged] = 1.0
    rho[degenerate] = 0.0
    return rho, degenerate


def _acf_at_lag(values: np.ndarray, lag: int) -> np.ndarray:
    """Pearson correlation of each row with its lag-shifted copy, each
    segment centred on its own mean; 0 where the denominator is <=
    _ZERO_VAR_EPS, NaN where it is NaN."""
    n = values.shape[1] - lag
    am = values[:, lag:] - values[:, lag:].mean(axis=1, keepdims=True)
    bm = values[:, :n] - values[:, :n].mean(axis=1, keepdims=True)
    denom = np.sqrt((am * am).sum(axis=1) * (bm * bm).sum(axis=1))
    cross = (am * bm).sum(axis=1)
    rho = np.zeros(values.shape[0], dtype=np.float64)
    valid = ~(denom <= _ZERO_VAR_EPS)  # a NaN denominator gives NaN, not 0
    rho[valid] = np.clip(cross[valid] / denom[valid], -1.0, 1.0)
    return rho


def _psd_block(
    values: np.ndarray, welch, fs: float, segment_length: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Welch PSD of every flow with density normalization;
    returns (freqs, power).

    Segments of min(256, T) samples, 50% overlap, Hann window. Each flow's
    mean is removed once before segmentation (rather than per segment) so
    that the spectrum integrates to the series variance even when a period
    exceeds the segment length. fs is in samples per hour, putting the
    frequency axis in cycles per hour. welch is scipy.signal.welch, which
    build_features imports on the first PSD call: it loads scipy.stats and
    scipy.interpolate as well, which importing tmcf and every other
    representation then never pay for.
    """
    t = values.shape[1]
    if t == 0:
        raise ValidationError("flow must be a nonempty 1-D series")
    if fs <= 0:
        raise ValidationError(f"sampling frequency must be positive, got {fs}")
    nper = welch_settings(t, segment_length)["segment_length"]
    if nper < 1:
        raise ValidationError(f"segment length must be >= 1, got {nper}")
    if t < nper:
        raise ValidationError(
            f"series of {t} samples is shorter than one segment ({nper})"
        )
    freqs, power = welch(
        values - values.mean(axis=1, keepdims=True),
        fs=fs,
        window="hann",
        nperseg=nper,
        noverlap=nper // 2,
        detrend=False,
        return_onesided=True,
        scaling="density",
        axis=-1,
    )
    return freqs, np.maximum(power, 0.0)


def pairwise_dissimilarity(reps: ReprMatrix, metric: str | None = None) -> DissimilarityMatrix:
    """Fill the symmetric M x M dissimilarity matrix for a representation.

    JSD is only defined for histogram pmfs; ACF and PSD vectors use
    Euclidean distance. Only the upper triangle is computed and mirrored,
    so symmetry is exact. Its rows split in pairs (see _upper_triangle).
    """
    if metric is None:
        metric = DEFAULT_METRIC[reps.kind]
    if metric == "jsd" and reps.kind != "histogram":
        raise ValidationError("jsd is only compatible with the histogram representation")

    feats = reps.features
    m, f = feats.shape
    if metric == "euclidean":
        def row(i, a, b):
            np.subtract(feats[i + 1 :], feats[i], out=a)
            a *= a
            return np.sqrt(a.sum(axis=1))
        pair_seconds = _EUCLIDEAN_SECONDS_PER_VALUE * f
    elif metric == "jsd":
        # JSD(p, q) = H((p + q) / 2) - (H(p) + H(q)) / 2, base-2 entropies
        entropy = _entropy_rows(feats)

        def row(i, a, b):
            np.add(feats[i], feats[i + 1 :], out=a)
            a *= 0.5
            return _entropy_rows(a, terms=b) - 0.5 * (entropy[i] + entropy[i + 1 :])
        pair_seconds = _JSD_SECONDS_PER_VALUE * f
    else:
        raise ValidationError(f"metric must be one of {METRICS}, got {metric!r}")
    d = _upper_triangle(row, m, f, pair_seconds)
    d = d + d.T
    if metric == "jsd":
        np.clip(d, 0.0, 1.0, out=d)
    return DissimilarityMatrix(d=d, metric=metric)


def _upper_triangle(row, m: int, f: int, pair_seconds: float) -> np.ndarray:
    """The M x M matrix whose row i holds row(i, a, b) right of the diagonal
    and zeros elsewhere, a and b being the first M - i - 1 rows of two
    (M - 1, f) buffers that each share allocates once and every row reuses.
    Item i of the M // 2 that tmcf.parallel.split cuts is the row pair
    {i, M - 2 - i}, which holds M pairs, so equal ranges of items carry
    equal work. The matrix lives in an anonymous shared mapping, which each
    share fills in place, so it never passes through a pipe."""
    import mmap

    d = np.frombuffer(mmap.mmap(-1, max(8 * m * m, 1)), count=m * m).reshape(m, m)

    def fill(lo, hi):
        a, b = np.empty((2, max(m - 1, 0), f))
        for pair in range(lo, hi):
            for i in {pair, m - 2 - pair}:
                d[i, i + 1 :] = row(i, a[: m - i - 1], b[: m - i - 1])

    parallel.split(fill, m // 2, pair_seconds * m * (m - 1) / 2)
    return d


def _entropy_rows(pmfs: np.ndarray, terms: np.ndarray | None = None) -> np.ndarray:
    """Base-2 Shannon entropy of each row, its terms computed in `terms`
    (an array of pmfs' shape) when given. Zeros are raised to the smallest
    normal float before the log, so that 0 * log2(0) counts as 0 without a
    masked log."""
    terms = np.maximum(pmfs, np.finfo(np.float64).tiny, out=terms)
    np.log2(terms, out=terms)
    terms *= pmfs
    return -terms.sum(axis=1)
