import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tmcf.dataset import (
    FlowSet,
    TmSeries,
    extract_flows,
    fit_scale_params,
    load_tm_series,
    make_windows,
    normalize,
    predictions_in_bytes,
    split,
    write_canonical_csv,
)
from tmcf import dataset, parallel
from tmcf.errors import DataError, ParseError, ValidationError

from forking import (  # noqa: F401 - deadline is a fixture
    assert_no_children, count_forks, deadline, fork_any_work, usable_cpus)


def _tiny_canonical(tmp_path, rows):
    path = tmp_path / "trace.csv"
    m = len(rows[0]) - 1
    header = "t," + ",".join(f"f{i}" for i in range(m))
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestCanonicalIngest:
    def test_fixture_round_trip(self, tmp_path):
        # N=2, T=3 fixture
        rows = [
            [0, 1.0, 2.0, 3.0, 4.0],
            [300, 5.0, 6.0, 7.0, 8.0],
            [600, 9.0, 10.0, 11.0, 12.0],
        ]
        tm = load_tm_series(_tiny_canonical(tmp_path, rows))
        assert tm.n_nodes == 2
        assert tm.n_steps == 3
        assert tm.n_flows == 4
        assert tm.interval_seconds == 300  # inferred from the t column
        assert np.array_equal(tm.values[0], [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(tm.values[2], [[9.0, 10.0], [11.0, 12.0]])

    def test_ingestion_is_deterministic(self, tmp_path):
        rows = [[0, 1.25e6, 2.5, 0.0, 7e-3], [300, 4, 5, 6, 7]]
        path = _tiny_canonical(tmp_path, rows)
        a = load_tm_series(path)
        b = load_tm_series(path)
        assert np.array_equal(a.values, b.values)
        out1 = tmp_path / "echo1.csv"
        out2 = tmp_path / "echo2.csv"
        write_canonical_csv(a, str(out1))
        write_canonical_csv(b, str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_write_then_load_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        tm = TmSeries(3, 300, rng.random((7, 3, 3)) * 1e6)
        path = tmp_path / "echo.csv"
        write_canonical_csv(tm, str(path))
        back = load_tm_series(str(path))
        assert np.array_equal(back.values, tm.values)

    def test_malformed_row_reports_line(self, tmp_path):
        rows = [[0, 1, 2, 3, 4], [300, 1, "oops", 3, 4]]
        with pytest.raises(ParseError, match="line 3"):
            load_tm_series(_tiny_canonical(tmp_path, rows))

    def test_numpy_scalar_repr_rejected(self, tmp_path):
        rows = [[0, 1, 2, 3, 4], [300, 1, "np.float64(1.0)", 3, 4]]
        with pytest.raises(ParseError, match="line 3"):
            load_tm_series(_tiny_canonical(tmp_path, rows))

    def test_negative_value_rejected(self, tmp_path):
        rows = [[0, 1, 2, 3, 4], [300, 1, -2, 3, 4]]
        with pytest.raises(ValidationError, match="negative"):
            load_tm_series(_tiny_canonical(tmp_path, rows))

    def test_inconsistent_width_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,f0,f1,f2,f3\n0,1,2,3,4\n300,1,2,3\n")
        with pytest.raises(ParseError, match="line 3"):
            load_tm_series(str(path))

    @pytest.mark.parametrize("n_rows,line", [(2, 1), (2, 3), (1200, 1000)],
                             ids=["header", "row", "past-the-first-read"])
    def test_a_line_that_is_not_utf8_is_a_parse_error(self, tmp_path, n_rows, line):
        path = tmp_path / "trace.csv"
        _tiny_canonical(tmp_path, [[300 * i, 1, 2, 3, 4] for i in range(n_rows)])
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line - 1] = b"\xff" + lines[line - 1]
        path.write_bytes(b"".join(lines))
        with pytest.raises(ParseError, match=f"^line {line}: .* is not UTF-8$"):
            load_tm_series(str(path))

    def test_missing_cell_policy(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,f0,f1,f2,f3\n0,1,,3,4\n")
        with pytest.raises(ParseError):
            load_tm_series(str(path))
        tm = load_tm_series(str(path), missing="zero")
        assert tm.values[0, 0, 1] == 0.0

    def test_non_square_flow_count_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,f0,f1,f2\n0,1,2,3\n")
        with pytest.raises(ValidationError, match="perfect square"):
            load_tm_series(str(path))


class TestArchiveAdapters:
    def test_abilene_directory(self, tmp_path):
        # whitespace matrix rows with 720 columns; only the first 144 are kept
        rng = np.random.default_rng(0)
        adir = tmp_path / "abilene"
        adir.mkdir()
        expected = []
        for fname in ("X01", "X02"):
            block = rng.random((3, 720)) * 1e4
            np.savetxt(adir / fname, block)
            expected.append(np.loadtxt(adir / fname)[:, :144])
        tm = load_tm_series(str(adir), format="abilene")
        assert tm.n_nodes == 12
        assert tm.interval_seconds == 300
        assert tm.n_steps == 6
        assert tm.n_flows == 144
        assert np.array_equal(tm.values.reshape(6, 144), np.concatenate(expected))

    @pytest.mark.parametrize("value,message", [("nan", "NaN or Inf"), ("-1", "negative")])
    def test_abilene_nan_or_negative_rejected(self, tmp_path, value, message):
        adir = tmp_path / "abilene"
        adir.mkdir()
        block = np.ones((3, 144))
        np.savetxt(adir / "X01", block)
        rows = (adir / "X01").read_text().splitlines()
        rows[1] = " ".join([value] + rows[1].split()[1:])
        (adir / "X01").write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match=message):
            load_tm_series(str(adir), format="abilene")

    @staticmethod
    def abilene_dir(tmp_path, lines):
        adir = tmp_path / "abilene"
        adir.mkdir()
        (adir / "X01").write_bytes(b"".join(line + b"\n" for line in lines))
        return str(adir)

    @pytest.mark.parametrize("lines,error,message", [
        ([b"1 " * 150, b"1 " * 150, b"1 oops " + b"1 " * 148], ParseError,
         "line 3: .*X01: cannot parse the row as numbers"),
        ([b"1 " * 150, b"1 " * 150, b"", b"1 oops " + b"1 " * 148], ParseError,
         "line 4: .*X01: cannot parse the row as numbers"),
        ([b"1 " * 150, b"1 " * 150, b"1 " * 100], ParseError,
         "line 3: .*X01: expected 150 columns, found 100"),
        ([b"# counts", b"1 " * 100, b"1 " * 100], ValidationError,
         "line 2: .*X01: expected at least 144 columns, found 100"),
        ([b"1 " * 150, b"", b"1 nan " + b"1 " * 148], ValidationError,
         "line 3: .*X01: NaN or Inf traffic value"),
        ([b"1 " * 150, b"1 " * 143 + b"-1 " + b"1 " * 6, b"1 " * 150], ValidationError,
         "line 2: .*X01: negative traffic value"),
        ([b"1 " * 150, b"1 \xff " + b"1 " * 148], ParseError, "line 2: .*X01 is not UTF-8"),
    ], ids=["bad-value", "bad-value-after-a-blank-line", "short-row", "narrow-file", "nan",
            "negative", "not-utf8"])
    def test_abilene_faults_name_the_file_and_line(self, tmp_path, lines, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            load_tm_series(self.abilene_dir(tmp_path, lines), format="abilene")

    def test_abilene_checks_only_the_first_144_columns(self, tmp_path):
        lines = [b"1 " * 150, b"# a comment", b"2 " * 144 + b"nan -1 inf 1 1 1  # tail"]
        tm = load_tm_series(self.abilene_dir(tmp_path, lines), format="abilene")
        assert np.array_equal(tm.values.reshape(2, 144), [[1.0] * 144, [2.0] * 144])

    def test_geant_line_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "geant-flat.csv"
        lines = [f"2005-01-01-00-{15 * i:02d},".encode() + b",".join([b"1.0"] * 529)
                 for i in range(4)]
        lines[2] = lines[2].replace(b"2005", b"2005\xff", 1)
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError, match="^line 3: .* is not UTF-8$"):
            load_tm_series(str(path), format="geant")

    def test_geant_flat_csv(self, tmp_path):
        rng = np.random.default_rng(1)
        block = rng.random((4, 529)) * 1e3
        path = tmp_path / "geant-flat.csv"
        lines = [
            "2005-01-01-00-%02d," % (15 * i) + ",".join(repr(float(v)) for v in row)
            for i, row in enumerate(block)
        ]
        path.write_text("\n".join(lines) + "\n")
        tm = load_tm_series(str(path), format="geant")
        assert tm.n_nodes == 23
        assert tm.interval_seconds == 900
        assert tm.n_steps == 4
        assert np.allclose(tm.values.reshape(4, 529), block)


class TestFlows:
    def test_extract_definition_n2(self):
        values = np.array([[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]])
        flows = extract_flows(TmSeries(2, 300, values))
        assert np.array_equal(flows.values, [[1, 5], [2, 6], [3, 7], [4, 8]])

    def test_abilene_flow_count(self):
        tm = TmSeries(12, 300, np.zeros((25, 12, 12)))
        assert extract_flows(tm).n_flows == 144


class TestNormalize:
    def test_basic_example(self):
        flows = FlowSet(1, 300, np.array([[0.0, 5.0, 10.0]]))
        params = fit_scale_params(flows)
        out = normalize(flows, params)
        assert np.array_equal(out.values, [[0.0, 0.5, 1.0]])

    def test_constant_flow_maps_to_zero(self):
        flows = FlowSet(1, 300, np.array([[7.0, 7.0, 7.0]]))
        params = fit_scale_params(flows)
        out = normalize(flows, params)
        assert np.array_equal(out.values, [[0.0, 0.0, 0.0]])
        restored = predictions_in_bytes(out.values.T, params).T
        assert np.array_equal(restored, [[7.0, 7.0, 7.0]])

    def test_round_trip_identity(self):
        rng = np.random.default_rng(11)
        flows = FlowSet(3, 300, rng.random((9, 50)) * 1e6)
        params = fit_scale_params(flows, (0, 40))
        back = predictions_in_bytes(normalize(flows, params).values.T, params).T
        assert np.allclose(back, flows.values, rtol=1e-12)

    def test_training_stats_only_no_clipping(self):
        # test-region values above the training max stay above 1
        flows = FlowSet(1, 300, np.array([[0.0, 1.0, 2.0, 8.0]]))
        params = fit_scale_params(flows, (0, 3))
        out = normalize(flows, params)
        assert out.values[0, 3] == pytest.approx(4.0)

    def test_param_mismatch_rejected(self):
        flows = FlowSet(2, 300, np.zeros((4, 5)))
        params = fit_scale_params(FlowSet(1, 300, np.zeros((1, 5))))
        with pytest.raises(ValidationError):
            normalize(flows, params)


class TestSplit:
    def test_stated_fractions_T100(self):
        # floor(0.8*100)=80 block; floor(0.1*80)=8 validation tail
        r = split(100, 0.8, 0.1)
        assert r.train == (0, 72)
        assert r.val == (72, 80)
        assert r.test == (80, 100)

    def test_no_test_window_is_error(self):
        with pytest.raises(ValidationError):
            split(10, 0.8, 0.1, window_length=10)

    def test_validation_range_must_fit_a_window(self):
        # training stops early on it, so an empty one is no exception:
        # floor(0.01 * 80) leaves 0 validation observations
        with pytest.raises(ValidationError, match="val range has 0 observations"):
            split(100, 0.8, 0.01, window_length=11)
        with pytest.raises(ValidationError, match="val_frac_of_train"):
            split(100, 0.8, 0.0)

    def test_T1000_test_size(self):
        r = split(1000, 0.8, 0.1)
        assert r.test[1] - r.test[0] == 200

    def test_ranges_are_contiguous_and_ordered(self):
        for t in (53, 100, 997, 2048):
            r = split(t, 0.8, 0.1)
            assert r.train[0] == 0
            assert r.train[1] == r.val[0]
            assert r.val[1] == r.test[0]
            assert r.test[1] == t


class TestWindows:
    def test_definition(self):
        ds = make_windows(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 3)
        assert np.array_equal(ds.inputs[:, :, 0], [[1, 2], [2, 3], [3, 4]])
        assert np.array_equal(ds.targets[:, 0], [3, 4, 5])

    def test_inputs_are_a_read_only_view_of_the_series(self):
        series = np.random.default_rng(0).normal(size=(30, 3))
        ds = make_windows(series, 7)
        assert np.shares_memory(ds.inputs, series)
        assert not ds.inputs.flags.writeable
        expected = np.stack([series[s : s + 6] for s in range(30 - 7 + 1)], axis=0)
        assert np.array_equal(ds.inputs, expected)
        assert np.array_equal(ds.targets, series[6:])
        # the targets are a read-only view too
        assert np.shares_memory(ds.targets, series)
        assert not ds.targets.flags.writeable

    def test_exact_length_gives_one_sample(self):
        ds = make_windows(np.arange(4.0), 4)
        assert ds.n_samples == 1

    def test_too_short_raises(self):
        with pytest.raises(ValidationError):
            make_windows(np.arange(3.0), 4)

    def test_sample_count_formula_by_enumeration(self):
        # train region of an Abilene-scale split, L=11
        series = np.arange(500.0)[:, None]
        ds = make_windows(series, 11)
        count = 0
        s = 0
        while s + 11 <= series.shape[0]:
            count += 1
            s += 1
        assert ds.n_samples == count == 500 - 10

    def test_windows_never_straddle_split_boundaries(self):
        t = 200
        series = np.arange(float(t))[:, None]
        r = split(t, 0.8, 0.1, window_length=11)
        train = make_windows(series[r.train[0] : r.train[1]], 11)
        test = make_windows(series[r.test[0] : r.test[1]], 11)
        # the series value IS the observation index here
        assert train.inputs.max() < r.train[1]
        assert test.inputs.min() >= r.test[0]
        assert train.targets.max() < test.inputs.min()


# nonnegative finite traffic values, subnormals and huge values included
traffic = st.floats(min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False)


@st.composite
def traces(draw):
    n = draw(st.integers(1, 3))
    t = draw(st.integers(2, 8))
    return TmSeries(n_nodes=n, interval_seconds=draw(st.integers(1, 900)),
                    values=draw(arrays(np.float64, (t, n, n), elements=traffic)))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_canonical_csv_round_trips_bit_exactly(self, tm):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.csv")
            write_canonical_csv(tm, path)
            back = load_tm_series(path, interval_seconds=tm.interval_seconds)
        assert back.values.shape == tm.values.shape
        assert np.array_equal(back.values.view(np.int64), tm.values.view(np.int64))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.integers(2, 20).flatmap(
        lambda t: arrays(np.float64, (n * n, t), elements=st.floats(0.0, 1e12)))))
    def test_denormalize_inverts_normalize(self, values):
        n = int(np.sqrt(values.shape[0]))
        flows = FlowSet(n_nodes=n, interval_seconds=300, values=values)
        params = fit_scale_params(flows)
        back = predictions_in_bytes(normalize(flows, params).values.T, params).T
        # relative to each value; a value whose normalized image (x - min) /
        # (max - min) is subnormal keeps only an absolute error below 1e-290
        assert np.allclose(back, values, rtol=1e-12, atol=1e-290)


# spellings of one flow cell: what numpy and Python both read, what only
# Python's float() reads, and what the loader must reject
cell_spellings = st.one_of(
    st.floats(min_value=0.0, max_value=1e300).map(repr),
    st.sampled_from([
        "1e3", " 2.5 ", "+3", "-0.0", "0", "7.", ".5", "1_0", "",
        "nan", "inf", "-1", "x", "1e", "\"4\"",
    ]),
)


def load_outcome(path, **kwargs):
    """The loaded trace, or (error class, line, message) when loading fails."""
    try:
        return load_tm_series(path, **kwargs)
    except DataError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, TmSeries)
    assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))
    assert got.interval_seconds == want.interval_seconds
    if want.timestamps is None:
        assert got.timestamps is None
    else:
        assert np.array_equal(got.timestamps, want.timestamps, equal_nan=True)


def per_cell_outcome(path, **kwargs):
    """load_outcome with numpy's parser failing, so the per-cell parser reads."""
    with mock.patch.object(dataset.np, "loadtxt", side_effect=ValueError):
        return load_outcome(path, **kwargs)


@st.composite
def canonical_files(draw):
    """(file text, missing policy): a canonical trace with N in {1, 2},
    spelled cell by cell, blank lines and CRLF endings included."""
    m = draw(st.sampled_from([1, 4]))
    t = draw(st.integers(1, 4))
    step = draw(st.sampled_from([1, 300]))
    lines = ["t," + ",".join(f"f{i}" for i in range(m))]
    for row in range(t):
        if draw(st.booleans()):
            time_cell = repr(float(row * step))
        else:
            time_cell = draw(st.sampled_from([str(row * step), "", "x", "nan"]))
        cells = draw(st.lists(cell_spellings, min_size=m, max_size=m))
        if draw(st.integers(0, 9)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        lines.append(",".join([time_cell] + cells))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol, draw(st.sampled_from(["reject", "zero"]))


class TestIngestPathsAgree:
    """The numpy parser and the per-cell parser read the same values, or
    fail with the same error on the same line."""

    @settings(max_examples=300, deadline=None)
    @given(canonical_files())
    def test_canonical(self, case):
        text, missing = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            assert_same_outcome(load_outcome(path, missing=missing),
                                per_cell_outcome(path, missing=missing))

    @pytest.mark.parametrize("bad_cell,extra,error", [
        (None, False, None),
        ("1_0", False, None),
        ("-1", False, ValidationError),
        ("oops", False, ParseError),
        (None, True, ParseError),
    ])
    def test_geant(self, tmp_path, bad_cell, extra, error):
        block = np.random.default_rng(2).random((3, 529)) * 1e3
        lines = [
            "2005-01-01-00-%02d," % (15 * i) + ",".join(repr(float(v)) for v in row)
            for i, row in enumerate(block)
        ]
        if bad_cell is not None:
            lines[1] = lines[1].rsplit(",", 1)[0] + "," + bad_cell
        if extra:
            lines[2] += ",5.0"
        path = tmp_path / "geant-flat.csv"
        path.write_bytes(("\r\n".join(lines[:1] + [""] + lines[1:]) + "\r\n").encode())
        want = per_cell_outcome(str(path), format="geant")
        assert_same_outcome(load_outcome(str(path), format="geant"), want)
        if error is None:
            assert isinstance(want, TmSeries)
        else:
            # line 2 is blank; the bad cell is on line 3, the extra column on 4
            assert want[0] is error and want[2].startswith(f"line {4 if extra else 3}:")


def canonical_text(n_rows, m=4, eol="\n", blank_every=0, final_eol=True, seed=0):
    """A canonical trace of n_rows rows of m flows, values spelled with
    varying lengths; a blank line after every blank_every-th row."""
    values = np.random.default_rng(seed).random((n_rows, m)) * 10.0 ** np.arange(m)
    lines = ["t," + ",".join(f"f{i}" for i in range(m))]
    for step, row in enumerate(values.tolist()):
        lines.append(",".join([repr(float(300 * step))] + [repr(v) for v in row]))
        if blank_every and (step + 1) % blank_every == 0:
            lines.append("")
    return eol.join(lines) + (eol if final_eol else "")


@pytest.mark.usefixtures("deadline")
class TestSplitParse:
    """A trace whose parse pays for the forks is parsed in byte ranges, one
    per share, to the serial parse's values, and fails as that does."""

    @staticmethod
    def outcomes(monkeypatch, path, shares, **kwargs):
        """(serial outcome, split outcome over `shares` usable CPUs, forks)."""
        usable_cpus(monkeypatch, 1)
        serial = load_outcome(str(path), **kwargs)
        fork_any_work(monkeypatch)
        usable_cpus(monkeypatch, shares)
        forks = count_forks(monkeypatch)
        split_outcome = load_outcome(str(path), **kwargs)
        assert_no_children()
        return serial, split_outcome, len(forks)

    @pytest.mark.parametrize("shares", [2, 3, 4])
    def test_split_parse_reads_the_serial_values(self, tmp_path, monkeypatch, shares):
        path = tmp_path / "trace.csv"
        path.write_text(canonical_text(40))
        serial, split_outcome, forks = self.outcomes(monkeypatch, path, shares)
        assert isinstance(serial, TmSeries) and serial.n_steps == 40
        assert_same_outcome(split_outcome, serial)
        assert forks == shares - 1  # this process parses the first range

    def test_small_traces_parse_in_this_process(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.csv"
        path.write_text(canonical_text(40))
        usable_cpus(monkeypatch, 4)
        forks = count_forks(monkeypatch)
        load_tm_series(str(path))
        assert forks == []

    def test_a_share_streams_its_text(self, tmp_path):
        # the range is read as np.loadtxt consumes it, not copied whole
        path = tmp_path / "trace.csv"
        path.write_text(canonical_text(40_000))
        size = os.path.getsize(path)
        tracemalloc.start()
        try:
            block = dataset._parse_range(str(path), 0, size, 1, True, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.shape == (40_000, 5)
        assert peak < block.nbytes + size // 4

    def test_a_cut_after_a_carriage_return(self, tmp_path, monkeypatch):
        # a cut aimed between the CR and the LF of a CRLF line moves past the LF
        cases = ((n_rows, seed) for seed in range(50) for n_rows in range(2, 40))
        for n_rows, seed in cases:
            data = canonical_text(n_rows, eol="\r\n", seed=seed).encode()
            if data[len(data) // 2 - 1 : len(data) // 2 + 1] == b"\r\n":
                break
        else:
            pytest.fail("no trace puts the middle of a CRLF at half its size")
        path = tmp_path / "trace.csv"
        path.write_bytes(data)
        # the line of that CR belongs to the first share alone
        half = len(data) // 2
        first = dataset._parse_range(str(path), 0, half, 1, True, 4)
        rest = dataset._parse_range(str(path), half, len(data), 1, True, 4)
        assert first.shape[0] == data[: half + 1].count(b"\n") - 1
        assert first.shape[0] + rest.shape[0] == n_rows
        serial, split_outcome, forks = self.outcomes(monkeypatch, path, 2)
        assert isinstance(serial, TmSeries) and serial.n_steps == n_rows
        assert_same_outcome(split_outcome, serial)
        assert forks == 1

    def test_a_line_longer_than_a_share(self, tmp_path, monkeypatch):
        # the long middle row holds two share ends, which both move to its
        # end: one share is empty and the rows are still read once each
        lines = canonical_text(4).splitlines()
        lines[2] = lines[2].replace(",", ",000000000000000000000000000000000000000000")
        data = ("\n".join(lines) + "\n").encode()
        path = tmp_path / "trace.csv"
        path.write_bytes(data)
        long_row = range(data.index(lines[2].encode()), data.index(lines[3].encode()))
        assert sum(len(data) * i // 4 in long_row for i in range(1, 4)) >= 2
        serial, split_outcome, forks = self.outcomes(monkeypatch, path, 4)
        assert isinstance(serial, TmSeries) and serial.n_steps == 4
        assert_same_outcome(split_outcome, serial)
        assert forks == 3

    @pytest.mark.parametrize("text", [
        canonical_text(9, blank_every=2),
        canonical_text(9, eol="\r\n", blank_every=1),
        canonical_text(9, final_eol=False),
        canonical_text(9, eol="\r\n", final_eol=False),
        canonical_text(1),
        canonical_text(2, blank_every=1, final_eol=False),
        canonical_text(0),
        canonical_text(9).replace("\n", "\n \n", 1),
    ], ids=["blank-lines", "crlf-blank-lines", "no-final-newline", "crlf-no-final-newline",
            "one-row", "two-rows", "no-rows", "whitespace-line"])
    def test_edge_cases_agree_with_the_serial_parse(self, tmp_path, monkeypatch, text):
        path = tmp_path / "trace.csv"
        path.write_bytes(text.encode())
        serial, split_outcome, _ = self.outcomes(monkeypatch, path, 4)
        assert_same_outcome(split_outcome, serial)

    @pytest.mark.parametrize("cell,error", [("x", ParseError), ("", ParseError),
                                            ("-1", ValidationError), ("1_0", None)])
    def test_a_bad_cell_in_the_last_share_fails_as_the_serial_parse_does(
            self, tmp_path, monkeypatch, cell, error):
        lines = canonical_text(30).splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + cell
        path = tmp_path / "trace.csv"
        path.write_text("\n".join(lines) + "\n")
        serial, split_outcome, forks = self.outcomes(monkeypatch, path, 3)
        assert forks == 2
        assert_same_outcome(split_outcome, serial)
        if error is None:
            assert isinstance(serial, TmSeries)
        else:
            assert serial[0] is error and serial[2].startswith("line 31:")
            if error is ParseError:
                assert serial[1] == 31

    def test_geant_rows_split_alike(self, tmp_path, monkeypatch):
        block = np.random.default_rng(5).random((7, 529)) * 1e3
        lines = ["2005-01-01-00-%02d," % (15 * i) + ",".join(repr(float(v)) for v in row)
                 for i, row in enumerate(block)]
        path = tmp_path / "geant-flat.csv"
        path.write_text("\n".join(lines) + "\n")
        serial, split_outcome, forks = self.outcomes(monkeypatch, path, 3, format="geant")
        assert forks == 2
        assert_same_outcome(split_outcome, serial)
        assert np.array_equal(serial.values.reshape(7, 529), block)

    @settings(max_examples=60, deadline=None)
    @given(canonical_files(), st.integers(2, 4))
    def test_generated_traces(self, case, shares):
        text, missing = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            want = load_outcome(path, missing=missing)
            with mock.patch.object(parallel, "_MIN_SHARE_SECONDS", 1e-12), \
                    mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(shares))):
                got = load_outcome(path, missing=missing)
            assert_no_children()
            assert_same_outcome(got, want)
