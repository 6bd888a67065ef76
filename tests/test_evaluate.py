import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcf import evaluate
from tmcf.cluster import naive_partition
from tmcf.dataset import ScaleParams
from tmcf.errors import ValidationError
from tmcf.evaluate import (
    SweepCurve,
    ari,
    cluster_stats,
    error_correlation,
    kneedle,
    nmi,
    per_flow_rmse,
    rmse,
    rmse_physical,
)
from tmcf.predict import predictions_in_bytes


def brute_force_ari(a, b):
    """Pair-counting reference: classify every item pair as together/apart
    in each partition, then apply the adjusted index to the four counts."""
    n = len(a)
    n11 = n10 = n01 = n00 = 0
    for i, j in itertools.combinations(range(n), 2):
        sa = a[i] == a[j]
        sb = b[i] == b[j]
        if sa and sb:
            n11 += 1
        elif sa and not sb:
            n10 += 1
        elif sb and not sa:
            n01 += 1
        else:
            n00 += 1
    num = 2.0 * (n11 * n00 - n10 * n01)
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if den == 0.0:
        return 1.0
    return num / den


def kneedle_reference(ks, ys, sensitivity=1.0):
    """Published knee-finding procedure, written independently: normalize,
    flip the decreasing curve vertically, difference against the diagonal,
    then confirm local maxima against the sensitivity threshold."""
    ks = np.asarray(ks, float)
    ys = np.asarray(ys, float)
    x_n = (ks - ks.min()) / (ks.max() - ks.min())
    y_n = 1.0 - (ys - ys.min()) / (ys.max() - ys.min())
    y_d = y_n - x_n
    lmx = [i for i in range(1, len(y_d) - 1) if y_d[i] > y_d[i - 1] and y_d[i] >= y_d[i + 1]]
    dx = float(np.mean(np.diff(x_n)))
    knees = []
    for pos, i in enumerate(lmx):
        threshold = y_d[i] - sensitivity * dx
        end = lmx[pos + 1] if pos + 1 < len(lmx) else len(y_d)
        if any(y_d[j] < threshold for j in range(i + 1, end)):
            knees.append(i)
    if not knees:
        return None
    best = max(knees, key=lambda i: y_d[i])
    return int(ks[best])


class TestRmse:
    def test_identity_is_zero(self):
        x = np.random.default_rng(0).random((7, 3, 3))
        assert rmse(x, x) == 0.0

    def test_constant_offset(self):
        truth = np.zeros((5, 2, 2))
        assert rmse(truth, truth + 4.0) == pytest.approx(4.0)
        assert rmse(truth, truth - 4.0) == pytest.approx(4.0)

    def test_hand_case(self):
        truth = np.zeros((2, 1, 1))
        pred = np.array([3.0, 4.0]).reshape(2, 1, 1)
        assert rmse(truth, pred) == pytest.approx(math.sqrt(25 / 2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            rmse(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        truth = rng.random(24)
        pred = rng.random(24)
        perm = rng.permutation(24)
        assert rmse(truth, pred) == pytest.approx(rmse(truth[perm], pred[perm]), rel=1e-12)

    def test_per_flow_pools_to_scalar(self):
        rng = np.random.default_rng(2)
        truth = rng.random((40, 9))
        pred = rng.random((40, 9))
        flows = per_flow_rmse(truth, pred)
        pooled = math.sqrt(float(np.mean(flows**2)))
        assert pooled == pytest.approx(rmse(truth, pred), rel=1e-12)


class TestRmsePhysical:
    def test_unit_arithmetic(self):
        truth = np.zeros((1, 1, 1))
        pred = np.full((1, 1, 1), 1.25e6)  # bytes over a 5-minute interval
        value = rmse_physical(truth, pred, interval_seconds=300)
        assert value == pytest.approx(1.25e6 * 8 / (300 * 1e6))

    def test_zero_error(self):
        x = np.ones((3, 2, 2))
        assert rmse_physical(x, x, 300) == 0.0

    def test_interval_ratio(self):
        truth = np.zeros((4, 2, 2))
        pred = np.random.default_rng(3).random((4, 2, 2)) * 1e6
        assert rmse_physical(truth, pred, 300) == pytest.approx(
            3.0 * rmse_physical(truth, pred, 900), rel=1e-12
        )

    def test_normalized_predictions_score_as_their_bytes(self, monkeypatch):
        # chunks of 3 rows of 4 flows, so that the conversion spans several
        monkeypatch.setattr(evaluate, "_SCALE_CHUNK", 12)
        rng = np.random.default_rng(4)
        pred_norm = rng.normal(size=(10, 4))  # negative bytes are clipped
        scale = ScaleParams(np.array([0.0, 1e3, 5.0, 7.0]), np.array([1e6, 2e6, 5.0, 9e5]))
        truth = rng.random((10, 4)) * 1e6
        want = rmse_physical(truth, predictions_in_bytes(pred_norm, scale), 300)
        assert rmse_physical(truth, pred_norm, 300, scale) == want
        sq = np.empty(40)
        assert rmse_physical(truth, pred_norm, 300, scale, out=sq) == want


class TestAri:
    def test_identical_partitions(self):
        labels = np.array([1, 1, 2, 3, 3, 3])
        assert ari(labels, labels) == pytest.approx(1.0)
        relabeled = np.array([5, 5, 9, 7, 7, 7])
        assert ari(labels, relabeled) == pytest.approx(1.0)

    def test_one_item_scores_one(self):
        # no pairs to disagree on; was nan with a divide warning
        assert ari(np.array([1]), np.array([4])) == 1.0

    def test_hand_case_negative(self):
        assert ari([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(-0.5, abs=1e-12)

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            m = int(rng.integers(3, 13))
            a = rng.integers(1, rng.integers(2, 5) + 1, size=m)
            b = rng.integers(1, rng.integers(2, 5) + 1, size=m)
            assert ari(a, b) == pytest.approx(brute_force_ari(a, b), abs=1e-12)

    def test_symmetry_and_label_permutation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.integers(1, 5, size=30)
            b = rng.integers(1, 4, size=30)
            assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-15)
            remap = rng.permutation(10)
            assert ari(remap[a], b) == pytest.approx(ari(a, b), abs=1e-15)

    def test_random_vs_random_centers_on_zero(self):
        rng = np.random.default_rng(6)
        values = []
        for _ in range(200):
            a = rng.integers(1, 6, size=100)
            b = rng.integers(1, 6, size=100)
            values.append(ari(a, b))
        assert abs(float(np.mean(values))) < 0.05

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ari([1, 2], [1, 2, 3])


class TestNmi:
    def test_identical_partitions(self):
        labels = np.array([1, 1, 2, 2, 3])
        assert nmi(labels, labels) == pytest.approx(1.0)

    def test_single_cluster_degenerate(self):
        assert nmi([1, 1, 1, 1], [1, 2, 1, 2]) == 0.0
        assert nmi([1, 2, 1, 2], [1, 1, 1, 1]) == 0.0

    def test_independent_labels(self):
        assert nmi([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_contingency(self):
        # a = {1,2},{3,4}; b = {1,2,3},{4}
        # H(a) = ln 2; H(b) = -(3/4 ln 3/4 + 1/4 ln 1/4); MI from the table
        a = [1, 1, 2, 2]
        b = [1, 1, 1, 2]
        pij = np.array([[2 / 4, 0], [1 / 4, 1 / 4]])
        pa = pij.sum(axis=1)
        pb = pij.sum(axis=0)
        mi = sum(
            pij[i, j] * math.log(pij[i, j] / (pa[i] * pb[j]))
            for i in range(2)
            for j in range(2)
            if pij[i, j] > 0
        )
        ha = -sum(p * math.log(p) for p in pa)
        hb = -sum(p * math.log(p) for p in pb)
        assert nmi(a, b) == pytest.approx(mi / (0.5 * (ha + hb)), abs=1e-12)

    def test_symmetry_invariance_and_range(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.integers(1, 5, size=40)
            b = rng.integers(1, 6, size=40)
            v = nmi(a, b)
            assert 0.0 <= v <= 1.0
            assert v == pytest.approx(nmi(b, a), abs=1e-12)
            remap = rng.permutation(10)
            assert nmi(remap[a], b) == pytest.approx(v, abs=1e-12)


class TestClusterStats:
    def test_all_singletons(self):
        part = naive_partition(8, 8, seed=0)
        stats = cluster_stats(part)
        assert stats.min_size == stats.max_size == 1
        assert stats.mean_size == 1.0
        assert stats.singleton_pct == 100.0

    def test_k1_no_singletons(self):
        part = naive_partition(8, 1, seed=0)
        stats = cluster_stats(part)
        assert stats.n_singletons == 0
        assert stats.mean_size == 8.0

    def test_mean_size_times_k_is_m(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = int(rng.integers(5, 200))
            k = int(rng.integers(1, m + 1))
            stats = cluster_stats(naive_partition(m, k, seed=0))
            assert stats.mean_size * stats.k == pytest.approx(m, rel=1e-12)
            assert stats.min_size <= stats.mean_size <= stats.max_size


class TestErrorCorrelation:
    def test_positive_affine(self):
        e = np.array([0.5, 1.0, 2.0, 0.1])
        assert error_correlation(e, 2 * e) == pytest.approx(1.0)

    def test_negative_affine(self):
        e = np.array([0.5, 1.0, 2.0, 0.1])
        assert error_correlation(e, -e + 3.0) == pytest.approx(-1.0)

    def test_hand_value(self):
        # cov = 1.5, sx = 1, sy = sqrt(7/3)
        expected = 1.5 / math.sqrt(7 / 3)
        assert error_correlation([1, 2, 3], [1, 2, 4]) == pytest.approx(expected, rel=1e-12)
        assert error_correlation([1, 2, 3], [1, 2, 4]) == pytest.approx(0.982, abs=1e-3)

    def test_zero_variance_flagged_nan(self):
        assert math.isnan(error_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))


class TestKneedle:
    def test_one_over_k_matches_published_procedure(self):
        ks = np.arange(1, 11)
        ys = 1.0 / ks
        expected = kneedle_reference(ks, ys)
        assert expected == 3  # frozen from the reference procedure
        result = kneedle(ks, ys)
        assert result.k == expected
        assert not result.no_knee

    def test_steep_drop_then_flat(self):
        ks = np.arange(1, 6)
        ys = np.array([10.0, 2.0, 1.9, 1.8, 1.7])
        assert kneedle_reference(ks, ys) == 2
        result = kneedle(ks, ys)
        assert result.k == 2
        assert not result.no_knee

    def test_linear_curve_has_no_knee(self):
        ks = np.arange(1, 8)
        ys = 14.0 - 2.0 * ks
        result = kneedle(ks, ys)
        assert result.no_knee
        assert result.k == 7  # argmin fallback

    def test_flat_curve_has_no_knee(self):
        result = kneedle(np.arange(1, 6), np.ones(5))
        assert result.no_knee

    def test_too_few_points_rejected(self):
        with pytest.raises(ValidationError):
            kneedle(np.array([1, 2]), np.array([2.0, 1.0]))


class TestSweepCurveType:
    def test_column_lengths_must_match(self):
        with pytest.raises(ValidationError):
            SweepCurve([1, 2], [0.5], [0.1, 0.2], [1.0, 1.0], 1)

    def test_k_values_must_increase(self):
        with pytest.raises(ValidationError):
            SweepCurve([2, 1], [0.5, 0.4], [0.1, 0.2], [1.0, 1.0], 1)


@st.composite
def labelled_pair(draw):
    """Two labellings of the same items, and a relabelling of each (a
    bijection of its label values)."""
    n = draw(st.integers(1, 40))
    a = np.array(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
    b = np.array(draw(st.lists(st.integers(1, 7), min_size=n, max_size=n)))
    ra = dict(zip(range(1, 6), draw(st.permutations(range(10, 15)))))
    rb = dict(zip(range(1, 8), draw(st.permutations(range(1, 8)))))
    return a, b, np.array([ra[x] for x in a]), np.array([rb[x] for x in b])


class TestRelabellingInvariance:
    @settings(max_examples=150, deadline=None)
    @given(labelled_pair())
    def test_ari_and_nmi_ignore_label_names(self, pair):
        a, b, a2, b2 = pair
        for score in (ari, nmi):
            base = score(a, b)
            for x, y in ((a2, b), (a, b2), (a2, b2), (b, a)):
                assert score(x, y) == pytest.approx(base, abs=1e-12), score.__name__
