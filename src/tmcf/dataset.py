"""Trace ingestion, flow extraction, scaling, splitting, and windowing.

A traffic-matrix trace is a sequence of T nonnegative N x N matrices
(traffic volume in bytes per interval). Every matrix entry (i, j) traced
over time forms one univariate flow; the M = N^2 flows are indexed
row-major, flow m = i * N + j.
"""

from __future__ import annotations

import csv
import io
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import DataError, ParseError, ValidationError

TRACE_FORMATS = ("canonical", "abilene", "geant")
MISSING_POLICIES = ("reject", "zero")

ABILENE_NODES = 12
ABILENE_INTERVAL_S = 300
GEANT_NODES = 23
GEANT_INTERVAL_S = 900

# Seconds np.loadtxt takes per byte of a trace, for the fork decision (see
# tmcf.parallel): 8.6 MB of a 576-flow trace parsed in 0.16-0.24 s and 2.2 MB
# of a 144-flow trace in 0.035-0.05 s on the 2-vCPU benchmark host.
_PARSE_SECONDS_PER_BYTE = 2e-8


@dataclass
class TmSeries:
    """Ordered sequence of traffic matrices.

    values has shape (T, N, N); entries are nonnegative traffic volumes in
    bytes per interval. timestamps, when present, is a monotone sequence of
    length T (units are up to the source trace and are carried through).
    """

    n_nodes: int
    interval_seconds: int
    values: np.ndarray
    timestamps: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.n_nodes < 1:
            raise ValidationError(f"n_nodes must be positive, got {self.n_nodes}")
        if self.interval_seconds < 1:
            raise ValidationError(
                f"interval_seconds must be positive, got {self.interval_seconds}"
            )
        if self.values.ndim != 3 or self.values.shape[1:] != (self.n_nodes, self.n_nodes):
            raise ValidationError(
                f"values must have shape (T, {self.n_nodes}, {self.n_nodes}), "
                f"got {self.values.shape}"
            )
        if not np.isfinite(self.values).all():
            raise ValidationError("trace contains NaN or Inf entries")
        if (self.values < 0).any():
            raise ValidationError("trace contains negative traffic volumes")
        if self.timestamps is not None:
            ts = np.asarray(self.timestamps, dtype=np.float64)
            if ts.shape != (self.n_steps,):
                raise ValidationError("timestamps length does not match trace length")
            if ts.size > 1 and (np.diff(ts) <= 0).any():
                raise ValidationError("timestamps must be strictly increasing")
            self.timestamps = ts

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_flows(self) -> int:
        return self.n_nodes * self.n_nodes


@dataclass
class FlowSet:
    """The M = N^2 univariate flows of a trace, one per row.

    values has shape (M, T); row m corresponds to source-destination pair
    (m // N, m % N).
    """

    n_nodes: int
    interval_seconds: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        m = self.n_nodes * self.n_nodes
        if self.values.ndim != 2 or self.values.shape[0] != m:
            raise ValidationError(
                f"flow matrix must have {m} rows, got shape {self.values.shape}"
            )

    @property
    def n_flows(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]


@dataclass
class ScaleParams:
    """Per-flow min/max statistics fitted on the training region."""

    per_flow_min: np.ndarray
    per_flow_max: np.ndarray

    def __post_init__(self):
        self.per_flow_min = np.asarray(self.per_flow_min, dtype=np.float64)
        self.per_flow_max = np.asarray(self.per_flow_max, dtype=np.float64)
        if self.per_flow_min.shape != self.per_flow_max.shape:
            raise ValidationError("min/max arrays must have matching shapes")
        if (self.per_flow_min > self.per_flow_max).any():
            raise ValidationError("per-flow min exceeds max")

    @property
    def constant_mask(self) -> np.ndarray:
        """True for flows whose training region is constant (min == max)."""
        return self.per_flow_min == self.per_flow_max

    @property
    def n_flows(self) -> int:
        return self.per_flow_min.shape[0]


@dataclass
class SplitRanges:
    """Contiguous [start, stop) observation ranges, train earliest."""

    train: tuple[int, int]
    val: tuple[int, int]
    test: tuple[int, int]

    def as_dict(self) -> dict:
        return {"train": list(self.train), "val": list(self.val), "test": list(self.test)}


@dataclass
class WindowedDataset:
    """Sliding-window supervised samples.

    inputs has shape (samples, L-1, d) and targets (samples, d); sample s
    uses observations t .. t+L-2 as input and observation t+L-1 as target.
    """

    inputs: np.ndarray
    targets: np.ndarray
    window_length: int

    def __post_init__(self):
        if self.inputs.ndim != 3 or self.targets.ndim != 2:
            raise ValidationError("windowed inputs must be 3-D and targets 2-D")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValidationError("inputs/targets sample counts differ")
        if self.inputs.shape[1] != self.window_length - 1:
            raise ValidationError("input history length must equal L - 1")
        if self.inputs.shape[2] != self.targets.shape[1]:
            raise ValidationError("inputs/targets flow widths differ")

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_dims(self) -> int:
        return self.targets.shape[1]


def extract_flows(tm: TmSeries) -> FlowSet:
    """Split a trace into its M univariate flows (row-major flow order).

    The flows are a transposed view of the trace, not a copy: they change
    if the trace does, and normalize writes the one (M, T) matrix a run
    keeps next to the trace.
    """
    return FlowSet(
        n_nodes=tm.n_nodes,
        interval_seconds=tm.interval_seconds,
        values=tm.values.reshape(tm.n_steps, tm.n_flows).T,
    )


def fit_scale_params(flows: FlowSet, fit_range: tuple[int, int] | None = None) -> ScaleParams:
    """Per-flow min/max over fit_range (default: the whole series).

    Pass the training range so test observations never leak into the
    statistics.
    """
    lo, hi = fit_range if fit_range is not None else (0, flows.n_steps)
    if hi - lo < 1:
        raise ValidationError(f"scale fit range [{lo}, {hi}) is empty")
    region = flows.values[:, lo:hi]
    return ScaleParams(per_flow_min=region.min(axis=1), per_flow_max=region.max(axis=1))


def normalize(flows: FlowSet, params: ScaleParams) -> FlowSet:
    """Map each flow by (x - min) / (max - min) on training statistics.

    Constant flows map to all zeros. Values outside the training range are
    NOT clipped, so test-region output may fall outside [0, 1]. The result
    is a new C-ordered matrix, computed in place with no temporary.
    """
    if params.n_flows != flows.n_flows:
        raise ValidationError(
            f"scale params cover {params.n_flows} flows, trace has {flows.n_flows}"
        )
    span = params.per_flow_max - params.per_flow_min
    safe_span = np.where(span == 0.0, 1.0, span)
    out = np.subtract(flows.values, params.per_flow_min[:, None], out=np.empty(flows.values.shape))
    out /= safe_span[:, None]
    out[params.constant_mask] = 0.0
    return FlowSet(flows.n_nodes, flows.interval_seconds, out)


def predictions_in_bytes(values: np.ndarray, params: ScaleParams) -> np.ndarray:
    """Normalized (..., M) values as bytes per interval, in a new array:
    normalize inverted, exact up to rounding (constant flows get the stored
    value; subnormal normalized values lose relative precision), clipped at 0."""
    if values.shape[-1] != params.n_flows:
        raise ValidationError("last axis must match the number of flows")
    span = params.per_flow_max - params.per_flow_min
    out = values * span
    out += params.per_flow_min
    const = params.constant_mask
    out[..., const] = params.per_flow_min[const]
    return np.maximum(out, 0.0, out=out)


def split(
    n_obs: int, train_frac: float, val_frac_of_train: float, window_length: int | None = None
) -> SplitRanges:
    """Chronological train/val/test observation ranges.

    The first floor(train_frac * T) observations form the training block;
    its chronological tail of floor(val_frac_of_train * block) observations
    becomes validation; everything after the block is test. When
    window_length is given, every range must fit at least one window.
    """
    if not 0.0 < train_frac < 1.0:
        raise ValidationError(f"train_frac must be in (0, 1), got {train_frac}")
    if not 0.0 < val_frac_of_train < 1.0:
        raise ValidationError(
            f"val_frac_of_train must be in (0, 1), got {val_frac_of_train}"
        )
    block = math.floor(train_frac * n_obs)
    val_len = math.floor(val_frac_of_train * block)
    ranges = SplitRanges(
        train=(0, block - val_len),
        val=(block - val_len, block),
        test=(block, n_obs),
    )
    if window_length is not None:
        for name, (lo, hi) in ranges.as_dict().items():
            if hi - lo < window_length:
                raise ValidationError(
                    f"{name} range has {hi - lo} observations; "
                    f"window length {window_length} does not fit"
                )
    return ranges


def make_windows(series: np.ndarray, window_length: int) -> WindowedDataset:
    """Slide a length-L window over a (T, d) or (T,) series.

    Sample s takes observations s .. s+L-2 as input and s+L-1 as target;
    the range yields T - L + 1 samples. inputs and targets are read-only
    views of the series (no copy is made), so they change if the series
    does.
    """
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValidationError(f"series must be 1-D or 2-D, got ndim={arr.ndim}")
    t = arr.shape[0]
    if window_length < 2:
        raise ValidationError(f"window length must be >= 2, got {window_length}")
    if t < window_length:
        raise ValidationError(
            f"range of {t} observations is shorter than window length {window_length}"
        )
    n = t - window_length + 1
    hist = window_length - 1
    inputs = np.lib.stride_tricks.sliding_window_view(arr, hist, axis=0)[:n].transpose(0, 2, 1)
    targets = arr[hist : hist + n].view()
    targets.flags.writeable = False
    return WindowedDataset(inputs=inputs, targets=targets, window_length=window_length)


# ---------------------------------------------------------------------------
# Trace ingestion
# ---------------------------------------------------------------------------


def load_tm_series(
    path: str,
    format: str = "canonical",
    interval_seconds: int | None = None,
    missing: str = "reject",
) -> TmSeries:
    """Load a trace in one of the supported on-disk formats.

    canonical: CSV with header t,f0,...,f{M-1}, one row per interval,
    row-major flow order. abilene: file or directory of whitespace matrices
    whose first 144 columns are the OD flows (12 nodes, 5-minute data).
    geant: headerless CSV whose first column is a timestamp string followed
    by 529 flow columns (23 nodes, 15-minute data).

    missing selects how empty cells are handled: "reject" raises, "zero"
    fills with 0.0. Only the canonical loader reads interval_seconds (which
    overrides the timestamps' interval) and missing; abilene and geant fix both.
    """
    if format not in TRACE_FORMATS:
        raise ValidationError(f"unknown trace format {format!r}; expected {TRACE_FORMATS}")
    if missing not in MISSING_POLICIES:
        raise ValidationError(f"missing policy must be one of {MISSING_POLICIES}, got {missing!r}")
    if not os.path.exists(path):
        raise ValidationError(f"trace path does not exist: {path}")
    files = trace_files(path, format)
    if format == "canonical":
        return _load_canonical(path, interval_seconds, missing)
    if format == "abilene":
        return _load_abilene(path, files)
    return _load_geant(path)


def _parse_cell(cell: str, line_no: int, missing: str) -> float:
    cell = cell.strip()
    if cell == "":
        if missing == "zero":
            return 0.0
        raise ParseError("empty cell (rerun with missing=zero to zero-fill)", line=line_no)
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"cannot parse {cell!r} as a number", line=line_no) from None
    if not math.isfinite(value):
        raise ValidationError(f"line {line_no}: non-finite traffic value {cell!r}")
    if value < 0:
        raise ValidationError(f"line {line_no}: negative traffic value {value}")
    return value


def _infer_nodes(n_cols: int, source: str) -> int:
    n = math.isqrt(n_cols)
    if n * n != n_cols:
        raise ValidationError(
            f"{source}: {n_cols} flow columns is not a perfect square"
        )
    return n


def _text_lines(path: str, newline: str | None = None):
    """The lines of a UTF-8 text file, read lazily as open(path, newline=newline)
    reads them; ParseError with the number of the first line that is not UTF-8."""
    with open(path, newline=newline, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(f"{path} is not UTF-8", line=line_no) from None
            yield line


def _load_canonical(path: str, interval_seconds: int | None, missing: str) -> TmSeries:
    try:
        header = next(csv.reader(_text_lines(path, newline="")))
    except StopIteration:
        raise ParseError("file is empty", line=1) from None
    header = [h.strip() for h in header]
    if not header or header[0] != "t":
        raise ParseError("header must start with column 't'", line=1)
    m = len(header) - 1
    expected = [f"f{i}" for i in range(m)]
    if header[1:] != expected:
        raise ParseError(
            f"flow columns must be f0..f{m - 1} in order", line=1
        )
    n_nodes = _infer_nodes(m, path)
    times, flat = _read_rows(path, m, missing, header_lines=1, timed=True)
    t = flat.shape[0]
    interval = interval_seconds if interval_seconds is not None else _infer_interval(times)
    return TmSeries(
        n_nodes=n_nodes,
        interval_seconds=interval,
        values=flat.reshape(t, n_nodes, n_nodes),
        timestamps=np.asarray(times) if len(set(times)) == len(times) else None,
    )


def _read_rows(path: str, m: int, missing: str, header_lines: int, timed: bool):
    """The data rows of a comma-separated trace after its header lines;
    returns (times, flows): the first column parsed as times (None unless
    `timed`) and the (T, m) flow values.

    numpy parses the file with np.loadtxt, split by its bytes
    (tmcf.parallel.split, see _parse_range), so the rows are the whole-file
    parse's. The per-cell parser runs only when numpy cannot parse a share,
    or finds no rows, rows of another width, or a flow value that is not
    finite or is negative. It then reads the whole file and raises the
    error with its line number, or returns what only it accepts: empty
    cells under missing=zero and Python-only number syntax such as 1_0. An
    untimed first column is read and ignored rather than skipped with
    usecols, so that a row with extra columns is still rejected.
    """
    size = os.path.getsize(path)
    blocks = parallel.split(lambda lo, hi: _parse_range(path, lo, hi, header_lines, timed, m),
                            size, _PARSE_SECONDS_PER_BYTE * size)
    if all(block is not None for block in blocks):
        blocks = [block for block in blocks if block.shape[0] > 0]
        if blocks:
            times = np.concatenate([block[:, 0] for block in blocks]).tolist() if timed else None
            return times, np.concatenate([block[:, 1:] for block in blocks])
    times, rows = [], []
    for line_no, row in enumerate(csv.reader(_text_lines(path, newline="")), start=1):
        if line_no <= header_lines or not row:
            continue
        if len(row) != m + 1:
            raise ParseError(
                f"expected {m + 1} columns, found {len(row)}", line=line_no
            )
        if timed:
            try:
                times.append(float(row[0]))
            except ValueError:
                raise ParseError(
                    f"cannot parse time value {row[0]!r}", line=line_no
                ) from None
        rows.append([_parse_cell(c, line_no, missing) for c in row[1:]])
    if not rows:
        raise ValidationError(f"{path}: trace has no data rows")
    return (times if timed else None), np.asarray(rows, dtype=np.float64)


def _loadtxt(source, header_lines: int, timed: bool, m: int) -> np.ndarray | None:
    """np.loadtxt of comma-separated rows of m + 1 columns from a text
    stream; None unless every row has m + 1 columns and finite,
    nonnegative flow values. No rows give a (0, 1) array."""
    try:
        with warnings.catch_warnings():
            # a share or file without data rows is not an error here
            warnings.simplefilter("ignore", UserWarning)
            block = np.loadtxt(source, delimiter=",", skiprows=header_lines, comments=None,
                               ndmin=2, encoding="utf-8",
                               converters=None if timed else {0: lambda cell: 0.0})
    except ValueError:
        return None
    if block.shape[0] == 0:
        return block
    flows = block[:, 1:]
    if block.shape[1] != m + 1 or not np.isfinite(flows).all() or (flows < 0).any():
        return None
    return block


def _parse_range(path: str, lo: int, hi: int, header_lines: int, timed: bool, m: int):
    """_loadtxt of the lines that start in [lo, hi) of the file, skipping
    the header lines when lo is 0. Each end moves to the first line start at
    or after it, so the shares of a file hold each line once, and their
    rows are what the whole-file call reads there, since universal newlines
    end a line at every newline. The range streams through _ByteRange, so
    no share holds its text whole (104 MB at T=48,384, M=144)."""
    with open(path, "rb") as fh:
        lo, hi = (fh.seek(pos - 1) + len(fh.readline()) if pos else 0 for pos in (lo, hi))
        fh.seek(lo)
        with io.TextIOWrapper(io.BufferedReader(_ByteRange(fh, hi - lo)),
                              encoding="utf-8") as text:
            return _loadtxt(text, header_lines if lo == 0 else 0, timed, m)


class _ByteRange(io.RawIOBase):
    """The next `size` bytes of an open binary file, as a stream that ends
    there."""

    def __init__(self, fh, size: int):
        super().__init__()
        self._fh, self._left = fh, size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._fh.readinto(memoryview(buffer)[: self._left])
        self._left -= count
        return count


def _infer_interval(times: list[float]) -> int:
    """Spacing of the t column when it looks like seconds; else 1."""
    if len(times) >= 2:
        diffs = np.diff(times)
        if diffs.size and (diffs == diffs[0]).all() and diffs[0] >= 1:
            return int(diffs[0])
    return 1


def trace_files(path: str, format: str) -> list[str]:
    """The files a trace is read from, in the order the loader reads them: the
    sorted visible files of an abilene directory, else the path itself. Only
    the abilene format reads a directory."""
    if not os.path.isdir(path):
        return [path]
    if format != "abilene":
        raise ValidationError(f"{path}: a {format} trace is one file, not a directory")
    files = sorted(
        os.path.join(path, f)
        for f in os.listdir(path)
        if not f.startswith(".") and os.path.isfile(os.path.join(path, f))
    )
    if not files:
        raise ValidationError(f"{path}: no trace files in directory")
    return files


def _load_abilene(path: str, files: list[str]) -> TmSeries:
    """Abilene archive layout: whitespace matrices, first 144 columns real OD
    traffic; `files` are the trace_files of path. np.loadtxt reads each file;
    when it rejects one, or the file's first 144 columns are not all finite
    and nonnegative, _abilene_fault reads it again to name the line."""
    m = ABILENE_NODES * ABILENE_NODES
    blocks = []
    for fname in files:
        try:
            block = np.loadtxt(fname, ndmin=2, encoding="utf-8")[:, :m]
        except ValueError:
            block = None
        if block is None or block.shape[1] < m or not ((block >= 0) & (block < np.inf)).all():
            raise _abilene_fault(fname, m)
        blocks.append(block)
    flat = np.concatenate(blocks, axis=0)
    return TmSeries(
        n_nodes=ABILENE_NODES,
        interval_seconds=ABILENE_INTERVAL_S,
        values=flat.reshape(flat.shape[0], ABILENE_NODES, ABILENE_NODES),
    )


def _abilene_fault(fname: str, m: int) -> DataError:
    """The first fault of an Abilene file, read line by line as np.loadtxt
    reads it: a row that does not parse or has another width than the first
    is a ParseError; else rows under m columns wide, or the first row whose
    first m values are not all finite and nonnegative, a ValidationError."""
    width = first = bad = None
    for line_no, line in enumerate(_text_lines(fname), start=1):
        try:
            with warnings.catch_warnings():
                # a blank or comment line holds no data
                warnings.simplefilter("ignore", UserWarning)
                row = np.loadtxt([line], ndmin=1)
        except ValueError:
            return ParseError(f"{fname}: cannot parse the row as numbers", line=line_no)
        if row.size == 0:
            continue
        if width is None:
            width, first = row.size, line_no
        if row.size != width:
            return ParseError(f"{fname}: expected {width} columns, found {row.size}", line=line_no)
        if bad is None and not (np.isfinite(row[:m]).all() and (row[:m] >= 0).all()):
            kind = "NaN or Inf" if not np.isfinite(row[:m]).all() else "negative"
            bad = ValidationError(f"line {line_no}: {fname}: {kind} traffic value")
    if width is None:
        return ValidationError(f"{fname}: trace has no data rows")
    if width < m:
        return ValidationError(f"line {first}: {fname}: expected at least {m} columns, "
                               f"found {width}")
    return bad or ParseError(f"{fname}: np.loadtxt cannot read the file")


def _load_geant(path: str) -> TmSeries:
    """Flattened archive CSV: timestamp column then 529 flow columns."""
    _, flat = _read_rows(path, GEANT_NODES * GEANT_NODES, "reject", header_lines=0,
                         timed=False)
    return TmSeries(
        n_nodes=GEANT_NODES,
        interval_seconds=GEANT_INTERVAL_S,
        values=flat.reshape(flat.shape[0], GEANT_NODES, GEANT_NODES),
    )


def write_canonical_csv(tm: TmSeries, path: str) -> None:
    """Write the canonical trace CSV (header t,f0..f{M-1}; one row per step).

    Values are written as the shortest repr of a Python float, so
    `load_tm_series` reads back bit-identical values on numpy 1 and numpy 2
    (whose scalar repr would otherwise write `np.float64(...)`).
    """
    t = tm.n_steps
    m = tm.n_flows
    flat = tm.values.reshape(t, m)
    times = tm.timestamps if tm.timestamps is not None else np.arange(t) * tm.interval_seconds
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"f{i}" for i in range(m)])
        for step in range(t):
            writer.writerow([repr(float(times[step]))] + list(map(repr, flat[step].tolist())))
