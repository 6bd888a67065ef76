"""Flow representations (histogram, ACF, PSD) and pairwise dissimilarity.

Each representation maps a flow onto a fixed-length feature vector;
flows are then compared with Jensen-Shannon divergence (histograms) or
Euclidean distance (ACF/PSD vectors) to build the symmetric M x M
dissimilarity matrix consumed by the clustering stage.

Everything here is numpy, and each representation pays only for its own
work. The PSD is Welch's estimate, one rfft per segment offset over a slab
of rows, and only a PSD call loads numpy.fft; scipy.signal.welch is its test
oracle, not a dependency. The ACF sums each lag's products directly, a row
slab at a time, in O(M T L) for L lags and no FFT, recomputing with the
direct formula only the entries where its closed form is ill-conditioned.
JSD uses the entropy form, with each row's entropy computed once.

The ACF features split their rows, and the dissimilarities their row
pairs, through tmcf.parallel.split, each estimating its serial work by a
cost per value below. Histograms cost too little per value to split, and so
does the PSD: its largest real blocks, Abilene at the paper's length and
GEANT, estimate 50 and 41 ms, under the 60 ms that two shares need.

Memory is bounded by what a call returns: every representation works
through blocks of rows whose temporaries have a fixed size, and the
dissimilarity matrix is mirrored inside the anonymous mapping that its
shares fill, with no second M x M array.
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
_ACF_TAU = 1e-3

# An ACF slab takes at most _ACF_SLAB_ROWS rows, and at most as many as fit
# _ACF_SLAB_VALUES values (1 MiB of floats), at least one; its three (rows, T)
# buffers are allocated once per call. On the 2-vCPU benchmark host (CPU
# time, medians of 3-9, glibc mmap threshold 128 KiB, traced peaks), 576 x
# 806 blocks with 30 lags took 18-24 ms in slabs of 32 rows and peaked at
# 0.86 MiB, against 21-22 ms in slabs of 16 and 30-42 ms in slabs of 8;
# 144 x 38,707 blocks (3 rows a slab) took 245 ms and peaked at 2.7 MiB,
# against 371-378 ms in slabs of 1 row and 198 ms but 8.9 MiB in slabs of 10.
_ACF_SLAB_ROWS = 32
_ACF_SLAB_VALUES = 1 << 17
# Columns per einsum call of an ACF lag sum. numpy 2.4's einsum sums a row
# of more than 8,192 values in another order when its operands have one row
# than when they have several; chunks of at most 8,192 columns give each row
# the same sum in a slab of any size, and so in a share of any size.
_ACF_SUM_COLUMNS = 8192
# Rows per block of the in-place mirror of a dissimilarity matrix's upper
# triangle. It took 1.1 ms at M=576 and 34 ms at M=2304 (16 to 128 rows within
# 10% of it), where the fresh d + d.T took 2.6 and 86 ms.
_MIRROR_ROWS = 64

# Seconds of serial work per value (flow x step of the block, or pair x
# feature), and for the ACF also per flow x step x lag, for the fork decision
# (see tmcf.parallel). Measured on the 2-vCPU benchmark host: the ACF of
# 576 x 806 blocks in 12.4 ms at 1 lag and 24 ms at 30, and of 144 x 38,707
# blocks in 123 and 250 ms (CPU time, medians of 3-5), so a 576 x 806 ACF
# stays in the calling process and a 144 x 38,707 one splits; and the
# Euclidean and JSD matrices of 576 flows (30 lags, 50 bins) in 0.028 and
# 0.065 s (glibc mmap threshold 128 KiB, medians of 7). The PSD does not
# split: at 9e-9 s per value (52-53 ms on 144 x 38,707), Abilene at the
# paper's length and GEANT (529 x about 8,600 steps) estimate 50 and 41 ms.
_ACF_SECONDS_PER_CELL = 2.5e-8
_ACF_SECONDS_PER_CELL_LAG = 8e-10
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

    ACF rows split over shares (tmcf.parallel.split), joined in order.
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
                               (_ACF_SECONDS_PER_CELL + _ACF_SECONDS_PER_CELL_LAG * lags.size)
                               * values.size)
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
        settings = welch_settings(values.shape[1], segment_length)
        t, nper = values.shape[1], settings["segment_length"]
        if t == 0:
            raise ValidationError("flow must be a nonempty 1-D series")
        if fs <= 0:
            raise ValidationError(f"sampling frequency must be positive, got {fs}")
        if nper < 1:
            raise ValidationError(f"segment length must be >= 1, got {nper}")
        if t < nper:
            raise ValidationError(f"series of {t} samples is shorter than one segment ({nper})")
        freqs = np.fft.rfftfreq(nper, 1.0 / fs)
        feats = _psd_block(values, fs, nper)
        if normalize_power:
            mass = feats.sum(axis=1, keepdims=True)
            feats = np.divide(feats, mass, out=np.zeros_like(feats), where=mass > 0)
        meta = {
            "fs_per_hour": float(fs),
            "freqs": freqs.tolist(),
            "normalize_power": bool(normalize_power),
        }
        meta.update(settings)
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
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts = np.empty((m, bins), dtype=np.intp)
    step = parallel.block_rows(t)
    for lo in range(0, m, step):  # row blocks, so no temporary spans the block
        block = values[lo : lo + step]
        if not np.isfinite(block).all():
            raise ValidationError("flows must be finite to build histograms")
        x = np.clip(block, 0.0, 1.0)
        idx = (x * bins).astype(np.intp)
        idx[idx == bins] -= 1
        idx -= x < edges[idx]
        idx += (x >= edges[idx + 1]) & (idx != bins - 1)
        rows = len(block)
        idx += np.arange(rows)[:, None] * bins
        counts[lo : lo + rows] = np.bincount(idx.ravel(), minlength=rows * bins).reshape(rows, bins)
    return counts / t


def _acf_block(values: np.ndarray, lags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample autocorrelations at sorted, distinct lags; returns (rho, degenerate).

    Each entry is the Pearson correlation between a flow and its lag-shifted
    copy over the overlap region. Lags where either segment has zero
    variance produce 0; a fully constant flow is flagged degenerate and gets
    0 at every lag, also where rounding leaves its centred copy nonzero.

    The block is processed in slabs of at most _ACF_SLAB_ROWS rows and
    _ACF_SLAB_VALUES values (but at least one row), so the temporaries do
    not grow with the number of flows: 32 rows at the benchmark's 806-step
    blocks, 3 at the paper's Abilene length. Each row's sums are its own,
    so the features do not depend on the slab size. Each flow is centred
    once on its mean, which leaves every correlation unchanged. For lag l
    and overlap n = T - l, the cross term sum(x[t+l] * x[t]) is a row-wise
    dot product of two views of the slab (_lag_sums), and each segment's
    sum and sum of squares comes from running sums over the whole row:
    prefix sums for [0, n) and suffix sums for [l, T). The row total less
    running sums over only the first or last `max(lags)` steps would be
    cheaper, but it loses digits where those steps hold most of a flow's
    energy: 5.7e-12 from the per-flow formula for a noise flow with a spike
    1e5 times its scale at step 0, T = 40,000. The cost is O(M T L) for L
    lags, where the former FFT autocorrelation, zero-padded to n_fft >= 2T
    - 1, cost O(M n_fft log n_fft) whatever the lags: for 576 x 806 blocks
    (CPU time, medians of 7, centring included) the direct sums took 7.4,
    12.4, 41 and 93 ms at 14, 30, 120 and 288 lags, and the FFT 40 ms at
    each, so they break even near 120 lags. The closed form subtracts
    nearly equal sums where a segment is almost constant, so an entry is
    recomputed with the direct formula of _acf_at_lag when a segment's
    variance is <= _ACF_TAU times its sum of squares, or the denominator is
    <= _ACF_TAU times the flow's energy (sum of x^2) or within a factor
    1 / _ACF_TAU of the direct formula's zero-variance cut-off. Elsewhere
    it agrees with the direct formula to about 1e-13 or better.
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
    lagged = lags != 0
    slab_rows = max(1, min(_ACF_SLAB_ROWS, _ACF_SLAB_VALUES // t))
    # the centred slab, its squares and the running sums, reused by every slab
    buffers = np.empty((3, min(slab_rows, m), t))
    for start in range(0, m, slab_rows):
        rows = slice(start, start + slab_rows)
        x, sq, part = buffers[:, : min(slab_rows, m - start)]
        np.subtract(values[rows], values[rows].mean(axis=1, keepdims=True), out=x)
        cross = _lag_sums(x, lags)
        np.multiply(x, x, out=sq)
        # each prefix sum in turn in one buffer, read where the segments end
        sum_b = np.cumsum(x, axis=1, out=part)[:, n - 1]  # segment [0, n)
        sq_b = np.cumsum(sq, axis=1, out=part)[:, n - 1]
        energy = part[:, t - 1 :].copy()  # sum of x^2
        sum_a = np.cumsum(x[:, ::-1], axis=1, out=part)[:, n - 1]  # segment [l, T)
        sq_a = np.cumsum(sq[:, ::-1], axis=1, out=part)[:, n - 1]
        var_a = sq_a - sum_a * sum_a / n
        var_b = sq_b - sum_b * sum_b / n
        denom = np.sqrt(np.maximum(var_a * var_b, 0.0))
        shaky = ((var_a <= _ACF_TAU * sq_a) | (var_b <= _ACF_TAU * sq_b)
                 | (denom <= _ACF_TAU * energy) | (denom <= _ZERO_VAR_EPS / _ACF_TAU))
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


def _lag_sums(x: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """sum(x[t + l] * x[t]) over t for each row of x and lag l: a row-wise
    dot product of two views of x, taken by einsum in column chunks of at
    most _ACF_SUM_COLUMNS. einsum calls no BLAS, whose dot product may
    split a long row over threads and so make the sum depend on the BLAS
    thread count."""
    t = x.shape[1]
    sums = np.zeros((len(x), lags.size))
    for i, lag in enumerate(lags):
        for lo in range(0, t - lag, _ACF_SUM_COLUMNS):
            hi = min(lo + _ACF_SUM_COLUMNS, t - lag)
            sums[:, i] += np.einsum("ij,ij->i", x[:, lag + lo : lag + hi], x[:, lo:hi])
    return sums


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


def _psd_block(values: np.ndarray, fs: float, nper: int) -> np.ndarray:
    """One-sided Welch PSD of every flow (Welch 1967), density-scaled, at
    the frequencies np.fft.rfftfreq(nper, 1 / fs), for settings that
    build_features has checked.

    Segments of nper samples, nper // 2 overlap, periodic Hann window (as
    scipy.signal.get_window("hann", nper) gives it: ones for one sample);
    trailing samples that fill no segment are dropped. Each flow's mean is
    removed once before segmentation (rather than per segment) so that the
    spectrum integrates to the series variance even when a period exceeds
    the segment length. fs is in samples per hour, putting the frequency
    axis in cycles per hour. The block is processed in slabs of
    tmcf.parallel.block_rows(nper) rows: one rfft per segment offset
    transforms that segment of every row of the slab, centred and windowed
    in one reused buffer, and |X|^2 accumulates into the slab's rows of the
    (M, nper // 2 + 1) result, so no temporary grows with M or T. Each row
    is transformed and summed alone, so its power does not depend on the
    other rows of the block.
    """
    m, t = values.shape
    step = nper - nper // 2
    n_seg = (t - nper // 2) // step
    # 0.5 - 0.5 cos(2 pi n / nper), in the form that gives scipy's bits
    window = np.ones(1)
    if nper > 1:
        window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nper + 1)[:-1])
    power = np.zeros((m, nper // 2 + 1))
    slab_rows = parallel.block_rows(nper)
    segment = np.empty((min(slab_rows, m), nper))
    for start in range(0, m, slab_rows):
        slab = values[start : start + slab_rows]
        mean = slab.mean(axis=1, keepdims=True)
        acc, seg = power[start : start + slab_rows], segment[: len(slab)]
        for lo in range(0, n_seg * step, step):
            np.subtract(slab[:, lo : lo + nper], mean, out=seg)
            seg *= window
            spectrum = np.fft.rfft(seg, axis=1)
            acc += spectrum.real ** 2 + spectrum.imag ** 2
    power *= 1.0 / (fs * (window * window).sum() * n_seg)
    power[:, 1 : (nper + 1) // 2] *= 2.0  # one-sided: every bin but DC and Nyquist
    return np.maximum(power, 0.0, out=power)


def pairwise_dissimilarity(reps: ReprMatrix, metric: str | None = None) -> DissimilarityMatrix:
    """Fill the symmetric M x M dissimilarity matrix for a representation.

    JSD is only defined for histogram pmfs; ACF and PSD vectors use
    Euclidean distance. Only the upper triangle is computed and mirrored,
    so symmetry is exact. Its rows split in pairs (see _upper_triangle).
    The matrix is the anonymous mapping the shares fill, mirrored in place
    (_mirror_upper), so it is the only M x M array the call allocates.
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
    d = _mirror_upper(_upper_triangle(row, m, f, pair_seconds))
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


def _mirror_upper(d: np.ndarray) -> np.ndarray:
    """d + d.T in place, for a matrix that is zero below its diagonal, a
    block of _MIRROR_ROWS rows at a time: the block's columns below it get
    its rows right of it plus their zeros (x + 0, so -0 becomes +0 as in
    d + d.T), which the rows then copy back, and the block on the diagonal
    is added to its transpose, which numpy reads from a copy because the
    two overlap."""
    m = len(d)
    for lo in range(0, m, _MIRROR_ROWS):
        hi = min(lo + _MIRROR_ROWS, m)
        diag = d[lo:hi, lo:hi]
        np.add(diag, diag.T, out=diag)
        np.add(d[lo:hi, hi:].T, d[hi:, lo:hi], out=d[hi:, lo:hi])
        d[lo:hi, hi:] = d[hi:, lo:hi].T
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
