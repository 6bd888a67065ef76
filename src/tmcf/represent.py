"""Flow representations (histogram, ACF, PSD) and pairwise dissimilarity.

Each representation maps a flow onto a fixed-length feature vector;
flows are then compared with Jensen-Shannon divergence (histograms) or
Euclidean distance (ACF/PSD vectors) to build the symmetric M x M
dissimilarity matrix consumed by the clustering stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import signal

from .cluster import _validate_dissimilarity
from .dataset import FlowSet
from .errors import ValidationError

REPRESENTATIONS = ("histogram", "acf", "psd")
METRICS = ("jsd", "euclidean")

DEFAULT_BINS = 50
DEFAULT_SEGMENT_LENGTH = 256

_ZERO_VAR_EPS = 1e-30


@dataclass
class HistogramRep:
    """Empirical pmf of one flow over equal-width bins spanning [0, 1]."""

    pmf: np.ndarray
    bin_edges: np.ndarray

    def __post_init__(self):
        if abs(self.pmf.sum() - 1.0) > 1e-9:
            raise ValidationError(f"pmf sums to {self.pmf.sum()}, expected 1")
        if (self.pmf < 0).any():
            raise ValidationError("pmf has negative entries")


@dataclass
class AcfRep:
    """Autocorrelation of one flow at the configured lags.

    degenerate marks constant flows, whose correlations are undefined and
    reported as zeros.
    """

    rho: np.ndarray
    lags: np.ndarray
    degenerate: bool = False


@dataclass
class PsdRep:
    """One-sided Welch power spectral density of one flow.

    fs is in samples per hour, so freqs are in cycles per hour.
    """

    power: np.ndarray
    freqs: np.ndarray
    fs: float


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

    @property
    def n_flows(self) -> int:
        return self.features.shape[0]


@dataclass
class DissimilarityMatrix:
    """Symmetric nonnegative M x M matrix with zero diagonal, checked as
    hac() checks its input; JSD entries must also not exceed 1."""

    d: np.ndarray
    metric: str

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValidationError(f"metric must be one of {METRICS}, got {self.metric!r}")
        self.d = _validate_dissimilarity(self.d)
        if self.metric == "jsd" and (self.d > 1.0).any():
            raise ValidationError("JSD entries must not exceed 1")

    @property
    def n_items(self) -> int:
        return self.d.shape[0]


def histogram_rep(flow: np.ndarray, bins: int = DEFAULT_BINS) -> HistogramRep:
    """Empirical pmf over `bins` equal-width bins spanning [0, 1].

    A value at an interior edge is counted in the bin whose lower edge it
    is; the top bin is closed so 1.0 is counted. Values outside [0, 1]
    (possible on the test region of a normalized flow) are clipped into the
    boundary bins so that the pmf always sums to 1.
    """
    flow = np.asarray(flow, dtype=np.float64)
    if flow.ndim != 1 or flow.size == 0:
        raise ValidationError("flow must be a nonempty 1-D series")
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
    counts, edges = np.histogram(np.clip(flow, 0.0, 1.0), bins=bins, range=(0.0, 1.0))
    return HistogramRep(pmf=counts / flow.size, bin_edges=edges)


def jsd(p: HistogramRep | np.ndarray, q: HistogramRep | np.ndarray) -> float:
    """Jensen-Shannon divergence between two pmfs, log base 2, in [0, 1].

    Terms with p(l) = 0 contribute nothing; the midpoint m = (p + q)/2 is
    zero only where both pmfs are, so no division by zero arises.
    """
    pv = p.pmf if isinstance(p, HistogramRep) else np.asarray(p, dtype=np.float64)
    qv = q.pmf if isinstance(q, HistogramRep) else np.asarray(q, dtype=np.float64)
    if pv.shape != qv.shape:
        raise ValidationError(f"pmf bin counts differ: {pv.shape} vs {qv.shape}")
    mid = 0.5 * (pv + qv)
    return float(_kl_base2(pv, mid) * 0.5 + _kl_base2(qv, mid) * 0.5)


def _kl_base2(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))


def acf_rep(flow: np.ndarray, lags) -> AcfRep:
    """Sample autocorrelation vector at the given lags.

    Each entry is the Pearson correlation between the flow and its
    lag-shifted copy over the overlap region. Lags where either segment has
    zero variance produce 0; a fully constant flow is flagged degenerate.
    """
    flow = np.asarray(flow, dtype=np.float64)
    lags = np.asarray(sorted(set(int(l) for l in lags)), dtype=np.int64)
    if lags.size == 0:
        raise ValidationError("lag set must be nonempty")
    if (lags < 0).any():
        raise ValidationError("lags must be nonnegative")
    if lags.max() >= flow.size:
        raise ValidationError(
            f"max lag {lags.max()} must be smaller than series length {flow.size}"
        )
    degenerate = bool(np.ptp(flow) == 0.0)
    rho = np.zeros(lags.size, dtype=np.float64)
    for i, lag in enumerate(lags):
        if lag == 0:
            rho[i] = 0.0 if degenerate else 1.0
            continue
        a = flow[lag:]
        b = flow[:-lag]
        am = a - a.mean()
        bm = b - b.mean()
        denom = np.sqrt(np.sum(am * am) * np.sum(bm * bm))
        if denom <= _ZERO_VAR_EPS:
            rho[i] = 0.0
        else:
            rho[i] = float(np.clip(np.sum(am * bm) / denom, -1.0, 1.0))
    return AcfRep(rho=rho, lags=lags, degenerate=degenerate)


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


def psd_rep(
    flow: np.ndarray,
    fs: float,
    segment_length: int | None = None,
) -> PsdRep:
    """One-sided Welch PSD estimate with density normalization.

    Segments of min(256, T) samples, 50% overlap, Hann window. The series
    mean is removed once before segmentation (rather than per segment) so
    that the spectrum integrates to the series variance even when a period
    exceeds the segment length. fs is in samples per hour, putting the
    frequency axis in cycles per hour.
    """
    flow = np.asarray(flow, dtype=np.float64)
    if flow.ndim != 1 or flow.size == 0:
        raise ValidationError("flow must be a nonempty 1-D series")
    if fs <= 0:
        raise ValidationError(f"sampling frequency must be positive, got {fs}")
    nper = segment_length if segment_length is not None else min(DEFAULT_SEGMENT_LENGTH, flow.size)
    if flow.size < nper:
        raise ValidationError(
            f"series of {flow.size} samples is shorter than one segment ({nper})"
        )
    centered = flow - flow.mean()
    freqs, power = signal.welch(
        centered,
        fs=fs,
        window="hann",
        nperseg=nper,
        noverlap=nper // 2,
        detrend=False,
        return_onesided=True,
        scaling="density",
    )
    return PsdRep(power=np.maximum(power, 0.0), freqs=freqs, fs=float(fs))


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
    """Compute one representation for every flow and stack the vectors.

    ACF lags default to the schedule implied by the sampling interval; the
    PSD sampling frequency defaults to samples-per-hour. With
    normalize_power each PSD vector is scaled to unit mass so spectral shape
    rather than total power drives the distances.
    """
    if isinstance(flows, FlowSet):
        values = flows.values
        interval_seconds = interval_seconds or flows.interval_seconds
    else:
        values = np.asarray(flows, dtype=np.float64)
    if values.ndim != 2:
        raise ValidationError("flows must be a 2-D (M x T) array")
    m = values.shape[0]

    if kind == "histogram":
        reps = [histogram_rep(values[i], bins=bins) for i in range(m)]
        feats = np.stack([r.pmf for r in reps])
        meta = {"bins": int(bins), "bin_range": [0.0, 1.0]}
    elif kind == "acf":
        if lags is None:
            if interval_seconds is None:
                raise ValidationError("acf needs explicit lags or an interval to derive them")
            lags = default_lags(interval_seconds)
        reps = [acf_rep(values[i], lags) for i in range(m)]
        feats = np.stack([r.rho for r in reps])
        meta = {
            "lags": [int(l) for l in reps[0].lags],
            "degenerate_flows": [i for i in range(m) if reps[i].degenerate],
        }
    elif kind == "psd":
        if fs is None:
            if interval_seconds is None:
                raise ValidationError("psd needs explicit fs or an interval to derive it")
            fs = 3600.0 / interval_seconds
        reps = [psd_rep(values[i], fs=fs, segment_length=segment_length) for i in range(m)]
        feats = np.stack([r.power for r in reps])
        if normalize_power:
            mass = feats.sum(axis=1, keepdims=True)
            feats = np.divide(feats, mass, out=np.zeros_like(feats), where=mass > 0)
        meta = {
            "fs_per_hour": float(fs),
            "freqs": reps[0].freqs.tolist(),
            "normalize_power": bool(normalize_power),
        }
        meta.update(welch_settings(values.shape[1], segment_length))
    else:
        raise ValidationError(f"unknown representation {kind!r}; expected {REPRESENTATIONS}")
    return ReprMatrix(features=feats, kind=kind, meta=meta)


def pairwise_dissimilarity(reps: ReprMatrix, metric: str | None = None) -> DissimilarityMatrix:
    """Fill the symmetric M x M dissimilarity matrix for a representation.

    JSD is only defined for histogram pmfs; ACF and PSD vectors use
    Euclidean distance. Only the upper triangle is computed and mirrored,
    so symmetry is exact.
    """
    if metric is None:
        metric = "jsd" if reps.kind == "histogram" else "euclidean"
    if metric not in METRICS:
        raise ValidationError(f"metric must be one of {METRICS}, got {metric!r}")
    if metric == "jsd" and reps.kind != "histogram":
        raise ValidationError("jsd is only compatible with the histogram representation")

    feats = reps.features
    m = feats.shape[0]
    d = np.zeros((m, m), dtype=np.float64)
    if metric == "euclidean":
        for i in range(m - 1):
            diff = feats[i + 1 :] - feats[i]
            d[i, i + 1 :] = np.sqrt(np.sum(diff * diff, axis=1))
    else:
        for i in range(m - 1):
            d[i, i + 1 :] = _jsd_row(feats[i], feats[i + 1 :])
    d = d + d.T
    if metric == "jsd":
        np.clip(d, 0.0, 1.0, out=d)
    return DissimilarityMatrix(d=d, metric=metric)


def _jsd_row(p: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Vectorized JSD of one pmf against a block of pmfs."""
    mid = 0.5 * (p[None, :] + others)
    pm = p[None, :] > 0
    qm = others > 0
    kl_p = np.where(pm, p[None, :] * _safe_log2(p[None, :], mid), 0.0).sum(axis=1)
    kl_q = np.where(qm, others * _safe_log2(others, mid), 0.0).sum(axis=1)
    return 0.5 * kl_p + 0.5 * kl_q


def _safe_log2(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    ratio = np.divide(num, den, out=np.ones_like(num + den), where=den > 0)
    return np.log2(np.maximum(ratio, 1e-300))
