"""The per-flow representations that tmcf.represent replaced, kept as a
test oracle.

Each flow is mapped by its own call: histogram_rep, acf_rep and psd_rep
build one feature vector, and build_features stacks them. jsd is the scalar
divergence of two pmfs, and pairwise_jsd the former KL-form JSD matrix
(_jsd_row, _safe_log2). The functions below are the former implementation,
unchanged but for their imports and for acf_rep giving a constant flow 0 at
every lag, as its docstring always stated. psd_rep is scipy.signal.welch,
which tmcf no longer imports. The whole-block histogram features of
tmcf.represent.build_features must equal them bit for bit; the ACF
features, which take each segment's sums in another order and correlate by
a closed form, and the entropy-form JSD matrix must agree within 1e-12, and
the PSD features, whose Welch averages its segments in another order,
within 1e-14 of each flow's largest value.
pairwise_rows is the entropy-form matrix as it was computed before its rows
reused two buffers, with fresh temporaries per row; the matrices of
tmcf.represent.pairwise_dissimilarity must equal it bit for bit.
"""

from dataclasses import dataclass

import numpy as np
from scipy import signal

from tmcf.dataset import FlowSet
from tmcf.errors import ValidationError
from tmcf.represent import (
    _ZERO_VAR_EPS,
    DEFAULT_BINS,
    DEFAULT_SEGMENT_LENGTH,
    REPRESENTATIONS,
    ReprMatrix,
    default_lags,
    welch_settings,
)


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
    zero variance produce 0; a fully constant flow is flagged degenerate and
    gets 0 at every lag.
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
        if degenerate or denom <= _ZERO_VAR_EPS:
            rho[i] = 0.0
        else:
            rho[i] = float(np.clip(np.sum(am * bm) / denom, -1.0, 1.0))
    return AcfRep(rho=rho, lags=lags, degenerate=degenerate)


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


def pairwise_jsd(pmfs: np.ndarray) -> np.ndarray:
    """The M x M JSD matrix of the rows of pmfs, row by row in the KL form."""
    m = pmfs.shape[0]
    d = np.zeros((m, m), dtype=np.float64)
    for i in range(m - 1):
        d[i, i + 1 :] = _jsd_row(pmfs[i], pmfs[i + 1 :])
    d = d + d.T
    np.clip(d, 0.0, 1.0, out=d)
    return d


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


def pairwise_rows(features: np.ndarray, metric: str) -> np.ndarray:
    """The M x M Euclidean or entropy-form JSD matrix, each row built from
    fresh temporaries."""
    def entropy_rows(pmfs):
        terms = np.log2(np.maximum(pmfs, np.finfo(np.float64).tiny))
        terms *= pmfs
        return -terms.sum(axis=1)

    m = features.shape[0]
    entropy = entropy_rows(features)
    d = np.zeros((m, m), dtype=np.float64)
    for i in range(m - 1):
        if metric == "euclidean":
            diff = features[i + 1 :] - features[i]
            d[i, i + 1 :] = np.sqrt(np.sum(diff * diff, axis=1))
        else:
            mid = 0.5 * (features[i] + features[i + 1 :])
            d[i, i + 1 :] = entropy_rows(mid) - 0.5 * (entropy[i] + entropy[i + 1 :])
    d = d + d.T
    if metric == "jsd":
        np.clip(d, 0.0, 1.0, out=d)
    return d
