import json
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import represent_oracle as oracle
from represent_oracle import jsd
from tmcf import represent
from tmcf.cluster import LINKAGES, hac
from tmcf.errors import ValidationError
from tmcf.represent import build_features, default_lags, pairwise_dissimilarity

from forking import (  # noqa: F401 - deadline is a fixture
    assert_no_children, count_forks, deadline, fork_any_work, usable_cpus)

# hand value for jsd([0.5, 0.5], [1, 0]) with base-2 logs:
#   m = [0.75, 0.25]
#   KL(p||m) = 0.5*log2(0.5/0.75) + 0.5*log2(0.5/0.25)
#   KL(q||m) = log2(1/0.75)
JSD_HAND = 0.5 * (0.5 * np.log2(0.5 / 0.75) + 0.5 * np.log2(0.5 / 0.25)) + 0.5 * np.log2(
    1 / 0.75
)


def histogram_pmf(flow, bins=50):
    """build_features on a one-flow block: that flow's pmf."""
    return build_features(np.asarray(flow, dtype=np.float64)[None, :], "histogram",
                          bins=bins).features[0]


def acf_of(flow, lags):
    """build_features on a one-flow block: (rho, degenerate)."""
    reps = build_features(np.asarray(flow, dtype=np.float64)[None, :], "acf", lags=lags)
    return reps.features[0], reps.meta["degenerate_flows"] == [0]


def psd_of(flow, fs, segment_length=None):
    """build_features on a one-flow block, raw power: (power, freqs)."""
    reps = build_features(np.asarray(flow, dtype=np.float64)[None, :], "psd", fs=fs,
                          normalize_power=False, segment_length=segment_length)
    return reps.features[0], np.asarray(reps.meta["freqs"])


class TestHistogram:
    def test_all_zero_flow(self):
        pmf = histogram_pmf(np.zeros(100), bins=50)
        assert pmf[0] == 1.0
        assert pmf[1:].sum() == 0.0

    def test_hand_count_right_closed_top_bin(self):
        pmf = histogram_pmf(np.array([0.0, 0.5, 1.0]), bins=2)
        assert np.allclose(pmf, [1 / 3, 2 / 3])

    def test_uniform_grid(self):
        pmf = histogram_pmf(np.linspace(0.0, 1.0, 1000), bins=50)
        assert np.all(np.abs(pmf - 0.02) <= 1e-3 + 1e-12)

    def test_pmf_sums_to_one_even_out_of_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            flow = rng.normal(0.5, 0.6, size=200)  # spills outside [0, 1]
            pmf = histogram_pmf(flow, bins=50)
            assert abs(pmf.sum() - 1.0) < 1e-9

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            histogram_pmf(np.array([]))


class TestJsd:
    def test_identity_is_zero(self):
        p = histogram_pmf(np.linspace(0, 1, 64), bins=8)
        assert jsd(p, p) == 0.0

    def test_disjoint_one_hot_is_one(self):
        assert jsd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_hand_value(self):
        value = jsd(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert value == pytest.approx(JSD_HAND, abs=1e-12)
        assert value == pytest.approx(0.3113, abs=1e-4)

    def test_symmetry_and_range_random_pmfs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.random(20)
            q = rng.random(20)
            p /= p.sum()
            q /= q.sum()
            a, b = jsd(p, q), jsd(q, p)
            assert abs(a - b) < 1e-12
            assert 0.0 <= a <= 1.0

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        p = rng.random(10)
        p /= p.sum()
        assert jsd(p, p.copy()) < 1e-15
        q = p.copy()
        q[0] += 0.01
        q /= q.sum()
        assert jsd(p, q) > 1e-7

    def test_bin_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            jsd(np.array([1.0]), np.array([0.5, 0.5]))


class TestAcf:
    def test_pure_sine_at_period(self):
        period = 24
        t = np.arange(20 * period)
        flow = np.sin(2 * np.pi * t / period)
        rho, _ = acf_of(flow, [period])
        assert rho[0] == pytest.approx(1.0, abs=0.02)

    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(3)
        rho, _ = acf_of(rng.random(50), [0, 1])
        assert rho[0] == 1.0

    def test_white_noise_bound(self):
        rng = np.random.default_rng(42)
        flow = rng.normal(size=10000)
        rho, _ = acf_of(flow, default_lags(300))
        assert np.max(np.abs(rho)) < 0.05

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        flow = rng.random(300)
        lags = [1, 2, 5, 10]
        base, _ = acf_of(flow, lags)
        scaled, _ = acf_of(3.5 * flow + 11.0, lags)
        assert np.allclose(base, scaled, atol=1e-9)

    def test_constant_flow_degenerate(self):
        rho, degenerate = acf_of(np.full(100, 2.5), [1, 2, 3])
        assert degenerate
        assert np.array_equal(rho, np.zeros(3))

    @pytest.mark.parametrize("value", [0.7, 1.0 / 3.0])
    def test_constant_flow_off_its_computed_mean_is_zero(self, value):
        # the centred copy holds rounding residue that alone would give rho = 1
        for t in (100, 200):
            rho, degenerate = acf_of(np.full(t, value), [0, 1, 2, 3])
            assert degenerate
            assert np.array_equal(rho, np.zeros(4))

    def test_lag_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            acf_of(np.arange(10.0), [10])


class TestDefaultLags:
    def test_five_minute_schedule(self):
        lags = default_lags(300)
        assert lags == list(range(1, 25)) + [36, 48, 60, 72] + [144, 288]
        assert max(lags) == 288  # one day of 5-minute samples

    def test_fifteen_minute_schedule(self):
        lags = default_lags(900)
        assert lags == list(range(1, 9)) + [12, 16, 20, 24] + [48, 96]
        assert max(lags) == 96

    def test_hourly_schedule(self):
        assert default_lags(3600) == [1, 2, 3, 4, 5, 6, 12, 24]

    def test_non_divisor_interval_rejected(self):
        with pytest.raises(ValidationError):
            default_lags(700)


class TestPsd:
    def test_daily_sine_peak_bin(self):
        # 1 cycle/day at 5-minute sampling: 288 steps per period, fs = 12/h
        t = np.arange(4096)
        flow = 2.0 * np.sin(2 * np.pi * t / 288.0) + 3.0
        power, freqs = psd_of(flow, fs=12.0)
        target = 1.0 / 24.0
        nearest = freqs[np.argmin(np.abs(freqs - target))]
        assert freqs[np.argmax(power)] == nearest

    def test_constant_flow_zero_power(self):
        power, _ = psd_of(np.full(512, 9.0), fs=12.0)
        assert np.max(power) == 0.0

    def test_parseval(self):
        t = np.arange(4096)
        flow = 2.0 * np.sin(2 * np.pi * t / 288.0) + 3.0
        power, freqs = psd_of(flow, fs=12.0)
        variance = np.var(flow)
        integral = power.sum() * (freqs[1] - freqs[0])
        assert abs(integral - variance) / variance < 0.05

    def test_constant_offset_invariance(self):
        rng = np.random.default_rng(5)
        flow = rng.random(1024) * 4.0
        a, _ = psd_of(flow, fs=12.0)
        b, _ = psd_of(flow + 123.456, fs=12.0)
        assert np.allclose(a, b, rtol=1e-6, atol=1e-12)

    def test_power_nonnegative(self):
        rng = np.random.default_rng(6)
        power, _ = psd_of(rng.random(700), fs=4.0)
        assert (power >= 0).all()

    def test_short_series_rejected(self):
        with pytest.raises(ValidationError):
            psd_of(np.arange(100.0), fs=12.0, segment_length=256)

    @pytest.mark.parametrize("segment_length", [0, -4])
    def test_segment_length_below_one_rejected(self, segment_length):
        # scipy's welch would raise a ValueError, which no exit code covers
        with pytest.raises(ValidationError, match="segment length must be >= 1"):
            psd_of(np.arange(100.0), fs=12.0, segment_length=segment_length)


class TestPairwise:
    def test_zero_diagonal_and_identical_vectors(self):
        feats = build_features(np.tile(np.linspace(0, 1, 40), (3, 1)), "histogram", bins=10)
        diss = pairwise_dissimilarity(feats)
        assert np.array_equal(np.diag(diss.d), np.zeros(3))
        assert diss.d.max() == 0.0

    def test_hand_euclidean(self):
        from tmcf.represent import ReprMatrix

        feats = ReprMatrix(
            features=np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 8.0]]), kind="acf"
        )
        diss = pairwise_dissimilarity(feats)
        assert np.allclose(diss.d, [[0, 5, 8], [5, 0, 5], [8, 5, 0]])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        flows = rng.random((6, 200))
        perm = rng.permutation(6)
        for kind in ("histogram", "acf", "psd"):
            feats = build_features(flows, kind, bins=10, lags=[1, 2, 3], fs=12.0,
                                   segment_length=64)
            permuted = build_features(flows[perm], kind, bins=10, lags=[1, 2, 3],
                                      fs=12.0, segment_length=64)
            d = pairwise_dissimilarity(feats).d
            dp = pairwise_dissimilarity(permuted).d
            assert np.array_equal(dp, d[np.ix_(perm, perm)])

    def test_jsd_requires_histograms(self):
        feats = build_features(np.random.default_rng(8).random((3, 100)), "acf",
                               lags=[1, 2])
        with pytest.raises(ValidationError):
            pairwise_dissimilarity(feats, metric="jsd")

    def test_unknown_metric_rejected(self):
        feats = build_features(np.random.default_rng(8).random((3, 100)), "histogram", bins=5)
        with pytest.raises(ValidationError, match="metric must be one of"):
            pairwise_dissimilarity(feats, metric="cosine")

    def test_jsd_matrix_within_unit_range(self):
        rng = np.random.default_rng(9)
        feats = build_features(rng.random((8, 300)), "histogram", bins=25)
        diss = pairwise_dissimilarity(feats)
        assert diss.d.min() >= 0.0
        assert diss.d.max() <= 1.0


def feature_corpus():
    """Blocks that stress the edge cases of each representation."""
    rng = np.random.default_rng(10)
    t = 200  # shorter than the default Welch segment
    block = rng.normal(0.5, 0.6, size=(9, t))  # spills outside [0, 1]
    block[0] = 0.0
    block[1] = 0.7  # a constant that is not its own computed mean
    block[2, : t - 3] = 0.25  # constant on the overlap of lag 3 only
    block[3] = np.resize(np.linspace(0.0, 1.0, 51), t)  # every bin edge of 50 bins
    block[4] = np.resize([0.0, 1.0, -0.0, -0.25, 1.5, 0.5], t)
    block[5] = np.round(block[5] * 7.0) / 7.0  # on the edges of 7 bins
    block[8] = 1.0 / 3.0  # as row 1
    return block


ORACLE_CASES = [
    ("histogram", {}),
    ("histogram", {"bins": 7}),
    ("histogram", {"bins": 1}),
    ("acf", {"lags": [5, 0, 3, 3, 1, 5]}),
    ("acf", {"lags": [0]}),
    ("acf", {"interval_seconds": 900}),
    ("psd", {"fs": 12.0}),
    ("psd", {"fs": 4.0, "segment_length": 64}),
    ("psd", {"fs": 12.0, "segment_length": 50, "normalize_power": False}),
]


def assert_matches_oracle(block, kind, kwargs):
    """Histogram features equal the oracle's bit for bit, and so do the
    metadata, PSD frequencies included. The ACF sums each segment in
    another order and correlates by a closed form, so it agrees within 1e-12
    (NaN where the oracle gives NaN). The PSD averages its segments in
    another order than scipy's welch: see assert_psd_close."""
    want = oracle.build_features(block, kind, **kwargs)
    got = build_features(block, kind, **kwargs)
    if kind == "acf":
        np.testing.assert_allclose(got.features, want.features, rtol=0, atol=1e-12)
    elif kind == "psd":
        assert_psd_close(got.features, want.features)
    else:
        assert np.array_equal(got.features, want.features), kind
    assert got.meta == want.meta


def assert_psd_close(got, want):
    """Each row within 1e-14 of its largest oracle value (the run lengths
    of test_psd_at_run_lengths read at most 1.8e-15), zero where the
    oracle's row is zero, and NaN where it is NaN. A positive peak below
    the normal range counts as the smallest normal float: one subnormal
    quantum is already about 2e-13 of such a peak, so no implementation can
    hold 1e-14 of it, and two that sum in another order differ by a few
    quanta (for [[0, 2.78e-155, 0, 0]] by 3.7e-13 of its peak 2.68e-311)."""
    peak = np.abs(want).max(axis=1, keepdims=True, initial=0.0)
    peak[peak == 0.0] = 1.0
    np.maximum(peak, np.finfo(np.float64).tiny, out=peak)
    np.testing.assert_allclose(got / peak, want / peak, rtol=0, atol=1e-14)


def jsd_corpus(kind):
    """Histogram blocks of 2 to 40 flows: random, drawn from a few distinct
    flows (many zero distances and ties), or with runs of all-zero flows."""
    rng = np.random.default_rng(12)
    for _ in range(25):
        m = int(rng.integers(2, 41))
        flows = rng.random((m, 120)) ** 3
        if kind == "duplicated":
            flows = flows[rng.integers(0, 4, size=m)]
        elif kind == "zero":
            flows[rng.random(m) < 0.5] = 0.0
        yield build_features(flows, "histogram", bins=int(rng.integers(1, 60)))


class TestJsdMatrixMatchesKlOracle:
    """The entropy-form JSD matrix against the former KL-form row loop."""

    @pytest.mark.parametrize("kind", ["random", "duplicated", "zero"])
    def test_within_1e12_and_same_merges(self, kind):
        for feats in jsd_corpus(kind):
            got = pairwise_dissimilarity(feats).d
            want = oracle.pairwise_jsd(feats.features)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            assert np.array_equal(got == 0.0, want == 0.0)  # equal pmfs stay at 0
            for linkage in LINKAGES:
                pairs = [merge[:2] for merge in hac(got, linkage).merges]
                assert pairs == [merge[:2] for merge in hac(want, linkage).merges]


def test_no_run_loads_scipy_and_only_a_psd_run_loads_numpy_fft(tmp_path):
    # scipy is a test oracle (scipy.signal.welch of the PSD, scipy.cluster of
    # HAC), never a module of a run. Training forks its worker processes
    # with os alone, so no process-pool module loads either; mmap loads only
    # for a dissimilarity matrix, numpy.random only to seed or draw. The ACF
    # sums its lags directly: numpy.fft, whose first transform leaves its
    # plan cache resident, loads only for the PSD.
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        import tmcf
        from tmcf import cli
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main(["--help"])
            except SystemExit:
                pass
        heavy = ("multiprocessing", "concurrent.futures", "numpy.random", "mmap", "numpy.fft")
        loaded = {"help": [name for name in sys.modules
                           if name.startswith("scipy") or name in heavy]}
        from tmcf.dataset import write_canonical_csv
        from tmcf.pipeline import RunConfig, run_pipeline
        from tmcf.synth import GroupSpec, SynthSpec, generate
        root = sys.argv[1]
        tm, _ = generate(SynthSpec(n_nodes=4, n_steps=400, seed=5, groups=[
            GroupSpec(8, 24, 1.0, 0.1, "sine"), GroupSpec(8, 7, 1.0, 0.1, "square")]))
        write_canonical_csv(tm, root + "/trace.csv")
        for method in ("histogram", "acf", "naive", "psd"):
            run_pipeline(RunConfig(trace=root + "/trace.csv", representation=method, k=2,
                                   epochs=1, profile="desk", out_dir=root + "/" + method))
            loaded[method] = sorted(name for name in sys.modules
                                    if name.startswith("scipy") or name == "numpy.fft")
        print(json.dumps(loaded))
    """)
    src = os.path.dirname(os.path.dirname(represent.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=env, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "help": [], "histogram": [], "acf": [], "naive": [], "psd": ["numpy.fft"]}
    for method in ("histogram", "acf", "naive", "psd"):
        assert os.path.exists(tmp_path / method / "eval_report.json")


class TestBlockFeaturesMatchPerFlowOracle:
    @pytest.mark.parametrize("kind,kwargs", ORACLE_CASES)
    def test_corpus(self, kind, kwargs):
        assert_matches_oracle(feature_corpus(), kind, kwargs)

    @pytest.mark.parametrize("t,segment_length", [
        (806, None), (1008, None), (777, 255), (48_384, None), (300, 300), (200, None),
        (129, 64), (41, 3), (40, 2), (40, 1)])
    def test_psd_at_run_lengths(self, t, segment_length):
        # the benchmark's and the paper's lengths, an odd segment, a single
        # segment (T = 300 = nperseg), T below the default 256, odd T, and
        # one-sample segments, whose window scipy takes as ones
        block = np.random.default_rng(17).lognormal(size=(8, t))
        for normalize_power in (False, True):
            assert_matches_oracle(block, "psd", {"fs": 12.0, "segment_length": segment_length,
                                                 "normalize_power": normalize_power})

    def test_psd_of_a_subnormal_peak(self):
        # a Welch power of about 2.7e-311, which _psd_block and scipy's
        # welch round about two subnormal quanta apart
        assert_matches_oracle(np.array([[0.0, 2.78e-155, 0.0, 0.0]]), "psd",
                              {"fs": 12.0, "normalize_power": False})

    def test_corpus_marks_the_constant_flows_degenerate(self):
        reps = build_features(feature_corpus(), "acf", lags=[0, 2, 3])
        assert reps.meta["degenerate_flows"] == [0, 1, 8]
        for row in (0, 1, 8):
            assert np.array_equal(reps.features[row], [0.0, 0.0, 0.0])
        # lag 3 pairs the constant head with the varying tail
        assert reps.features[2, 0] == 1.0 and reps.features[2, 2] == 0.0

    def test_ill_conditioned_acf_entries_fall_back_to_the_direct_formula(self, monkeypatch):
        rng = np.random.default_rng(11)
        t = 806
        block = rng.random((136, t))  # the adversarial rows sit in the third slab
        block[130] = 0.3 + 1e-8 * rng.standard_normal(t)
        block[130, 3] = 5.0  # flat with an early spike
        block[131] = 0.3 + 1e-8 * rng.standard_normal(t)
        block[131, -4] = 5.0  # the same with a late spike
        block[132] = 1e-3 * np.arange(t) + 1e-7 * rng.standard_normal(t)
        block[133, 100] = np.nan
        block[134, : t - 288] = 0.25  # constant on the overlap of the longest lag
        lags = default_lags(300)
        at_lag, redone = represent._acf_at_lag, []

        def spy(values, lag):
            redone.append(values.copy())
            return at_lag(values, lag)

        monkeypatch.setattr(represent, "_acf_at_lag", spy)
        assert_matches_oracle(block, "acf", {"lags": lags})
        rho = build_features(block, "acf", lags=lags).features
        assert np.isnan(rho[133]).all()
        assert rho[134, -1] == 0.0
        recomputed = {int(np.flatnonzero((block == row).all(axis=1))[0])
                      for values in redone for row in values}
        assert {130, 131, 134} <= recomputed

    def test_acf_at_the_papers_length(self):
        # a few 5-minute flows of about 40,000 steps, with rows whose first
        # or last step holds most of their energy, where segment sums taken
        # as the row total less the steps a lag leaves out lose digits
        block = paper_length_acf_block()
        lags = default_lags(300)
        assert_matches_oracle(block, "acf", {"lags": lags})
        rho = build_features(block, "acf", lags=lags).features
        assert np.isnan(rho[6]).all()
        # each row alone, in a slab of one row, gives the block's bytes
        for i, row in enumerate(block):
            assert build_features(row[None, :], "acf", lags=lags).features.tobytes() \
                == rho[i].tobytes()

    def test_acf_memory_does_not_grow_with_a_padded_transform(self):
        # three (3, T) buffers: the centred slab, its squares, running sums
        block = np.random.default_rng(14).random((4, 40_000))
        tracemalloc.start()
        try:
            build_features(block, "acf", interval_seconds=300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * block.nbytes

    def test_psd_memory_does_not_grow_with_the_block(self):
        # slabs of 64 rows, centred and windowed a segment at a time: the
        # features and their normalized copy (0.40 of the block here), where
        # a centred copy of the block would take it whole
        block = np.random.default_rng(14).random((512, 806))
        tracemalloc.start()
        try:
            build_features(block, "psd", interval_seconds=300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block.nbytes / 2

    @pytest.mark.parametrize("kind,kwargs,block", [
        ("histogram", {}, np.zeros((2, 0))),
        ("psd", {"fs": 12.0}, np.zeros((2, 0))),
        ("histogram", {"bins": 0}, np.ones((2, 5))),
        ("acf", {"lags": []}, np.ones((2, 5))),
        ("acf", {"lags": [2, -1]}, np.ones((2, 5))),
        ("acf", {"lags": [1, 5]}, np.ones((2, 5))),
        ("psd", {"fs": 0.0}, np.ones((2, 5))),
        ("psd", {"fs": 12.0, "segment_length": 256}, np.ones((2, 100))),
    ])
    def test_rejects_what_the_oracle_rejects_with_its_message(self, kind, kwargs, block):
        with pytest.raises(ValidationError) as want:
            oracle.build_features(block, kind, **kwargs)
        with pytest.raises(ValidationError) as got:
            build_features(block, kind, **kwargs)
        assert str(got.value) == str(want.value)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda m: st.integers(2, 40).flatmap(
        lambda t: arrays(np.float64, (m, t), elements=st.one_of(
            st.floats(-2.0, 2.0), st.sampled_from([0.0, 0.1, 0.2, 0.5, 0.6, 1.0]))))),
        st.data())
    def test_random_blocks(self, block, data):
        t = block.shape[1]
        assert_matches_oracle(block, "histogram", {"bins": data.draw(st.integers(1, 60))})
        lags = data.draw(st.lists(st.integers(0, t - 1), min_size=1, max_size=6))
        assert_matches_oracle(block, "acf", {"lags": lags})
        assert_matches_oracle(block, "psd", {
            "fs": 12.0,
            "segment_length": data.draw(st.one_of(st.none(), st.integers(2, t))),
            "normalize_power": data.draw(st.booleans()),
        })


def paper_length_acf_block():
    """Flows of the paper's Abilene length: random, daily, flat with an
    early or a late spike, a slow ramp, NaN, and noise under a spike 1e5
    times its scale at the first or the last step."""
    rng = np.random.default_rng(15)
    t = 40_000
    block = rng.random((9, t))
    block[1] = np.sin(2 * np.pi * np.arange(t) / 288) + 0.1 * rng.standard_normal(t)
    block[2] = 0.3 + 1e-8 * rng.standard_normal(t)
    block[2, 3] = 5.0
    block[3] = 0.3 + 1e-8 * rng.standard_normal(t)
    block[3, -4] = 5.0
    block[4] = 1e-3 * np.arange(t) + 1e-7 * rng.standard_normal(t)
    block[6, 20_000] = np.nan
    block[7] = rng.standard_normal(t)
    block[7, 0] = 1e5
    block[8] = rng.standard_normal(t)
    block[8, -1] = 1e5
    return block


def adversarial_acf_block():
    """Random rows plus the near-constant, spiked and NaN rows that send ACF
    entries to the direct formula."""
    rng = np.random.default_rng(13)
    t = 300
    block = rng.random((23, t))
    block[3] = 0.3 + 1e-8 * rng.standard_normal(t)
    block[3, 3] = 5.0
    block[11] = 1e-3 * np.arange(t) + 1e-7 * rng.standard_normal(t)
    block[12, 100] = np.nan
    block[20, : t - 12] = 0.25
    block[21] = 0.7
    return block


@pytest.mark.usefixtures("deadline")
class TestSplitRows:
    """ACF features and both dissimilarities split their rows over forked
    shares when the work pays for the forks, with the serial bytes;
    histogram and PSD features never split."""

    CASES = [
        ("histogram", {"bins": 7}, "jsd", feature_corpus),
        ("histogram", {}, "euclidean", feature_corpus),
        ("acf", {"lags": [5, 0, 3, 1]}, "euclidean", feature_corpus),
        ("acf", {"lags": default_lags(300)[:14]}, "euclidean", adversarial_acf_block),
        ("psd", {"fs": 12.0}, "euclidean", feature_corpus),
        ("psd", {"fs": 4.0, "segment_length": 64, "normalize_power": False}, "euclidean",
         adversarial_acf_block),
    ]

    @pytest.mark.parametrize("kind,kwargs,metric,make", CASES,
                             ids=lambda v: v.__name__ if callable(v) else None)
    @pytest.mark.parametrize("cpus", [2, 3, 5])
    def test_forked_rows_are_the_serial_rows(self, monkeypatch, kind, kwargs, metric, make,
                                             cpus):
        block = make()
        usable_cpus(monkeypatch, 1)
        serial = build_features(block, kind, **kwargs)
        serial_d = pairwise_dissimilarity(serial, metric).d
        fork_any_work(monkeypatch)
        usable_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        feats = build_features(block, kind, **kwargs)
        # histograms and PSDs stay in this process; each split layer forks
        # a child per share but the first, the ACF features at most one
        # share per row and the dissimilarities per row pair
        feature_forks = 0 if kind != "acf" else min(cpus, len(block)) - 1
        assert len(forks) == feature_forks
        d = pairwise_dissimilarity(feats, metric).d
        assert len(forks) == feature_forks + min(cpus, len(block) // 2) - 1
        assert_no_children()
        assert feats.features.tobytes() == serial.features.tobytes()
        assert feats.meta == serial.meta
        assert d.tobytes() == serial_d.tobytes()

    def test_fewer_rows_than_cpus(self, monkeypatch):
        block = feature_corpus()[:3]
        usable_cpus(monkeypatch, 1)
        serial = build_features(block, "acf", lags=[0, 2])
        fork_any_work(monkeypatch)
        usable_cpus(monkeypatch, 4)
        forks = count_forks(monkeypatch)
        feats = build_features(block, "acf", lags=[0, 2])
        d = pairwise_dissimilarity(feats).d
        assert len(forks) == 2 + 0  # a share per row, then per row pair
        assert feats.features.tobytes() == serial.features.tobytes()
        assert d.tobytes() == pairwise_dissimilarity(serial).d.tobytes()
        assert_no_children()

    @pytest.mark.parametrize("metric", ["jsd", "euclidean"])
    @pytest.mark.parametrize("cpus", [2, 3, 4, 5])
    def test_forked_dissimilarities_of_few_flows_are_the_serial_bytes(self, monkeypatch,
                                                                      metric, cpus):
        reps = [build_features(feature_corpus()[:m], "histogram") for m in range(8)]
        usable_cpus(monkeypatch, 1)
        serial = [pairwise_dissimilarity(r, metric).d for r in reps]
        fork_any_work(monkeypatch)
        usable_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        for r, want in zip(reps, serial):
            assert pairwise_dissimilarity(r, metric).d.tobytes() == want.tobytes()
        # a share per pair of rows {i, M - 2 - i}, at least one
        assert len(forks) == sum(max(min(cpus, m // 2), 1) - 1 for m in range(8))
        assert_no_children()

    def test_small_inputs_stay_serial(self, monkeypatch):
        usable_cpus(monkeypatch, 4)
        forks = count_forks(monkeypatch)
        for kind, kwargs, metric, make in self.CASES:
            pairwise_dissimilarity(build_features(make(), kind, **kwargs), metric)
        assert forks == []

    @pytest.mark.parametrize("kind,shape,shares", [
        ("acf", (576, 806), 1), ("acf", (144, 38_707), 2),
        ("psd", (2304, 806), 1), ("psd", (144, 38_707), 1), ("psd", (288, 38_707), 1)])
    def test_features_split_by_their_estimated_cost(self, monkeypatch, kind, shape, shares):
        # 30 lags: the benchmark's 576-flow ACF block is too little work to
        # fork for, a 144-flow block of the paper's length is not; the Welch
        # PSD never splits, not even at 288 x 38,707, twice the work of
        # Abilene at the paper's length
        block = np.broadcast_to(np.random.default_rng(16).random(shape[1]), shape)
        usable_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        build_features(block, kind, interval_seconds=300)
        assert len(forks) == shares - 1
        assert_no_children()

    def test_psd_features_never_fork(self, monkeypatch):
        block = np.broadcast_to(np.random.default_rng(16).random(38_707), (288, 38_707))
        usable_cpus(monkeypatch, 1)
        serial = build_features(block, "psd", interval_seconds=300)
        fork_any_work(monkeypatch)
        usable_cpus(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        feats = build_features(block, "psd", interval_seconds=300)
        assert forks == []
        assert feats.features.tobytes() == serial.features.tobytes()

    def test_an_error_in_a_share_is_raised_here(self, monkeypatch):
        block = feature_corpus()
        with pytest.raises(ValidationError) as want:
            build_features(block, "acf", lags=[1, 200])
        fork_any_work(monkeypatch)
        usable_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        with pytest.raises(ValidationError) as got:
            build_features(block, "acf", lags=[1, 200])
        assert len(forks) == 1
        assert str(got.value) == str(want.value)
        assert_no_children()


@pytest.mark.parametrize("kind,kwargs,metric,make", TestSplitRows.CASES,
                         ids=lambda v: v.__name__ if callable(v) else None)
def test_rows_in_reused_buffers_equal_rows_of_fresh_temporaries(kind, kwargs, metric, make):
    features = [build_features(make(), kind, **kwargs)]
    if metric == "jsd":
        features += jsd_corpus("zero")
    for feats in features:
        got = pairwise_dissimilarity(feats, metric).d
        assert got.tobytes() == oracle.pairwise_rows(feats.features, metric).tobytes()
