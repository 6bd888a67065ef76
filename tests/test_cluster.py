import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.cluster.hierarchy import linkage as scipy_linkage
from scipy.spatial.distance import squareform

from tmcf import cluster
from tmcf.cluster import (LINKAGES, Dendrogram, Partition, _block_rows, _validate_dissimilarity,
                          cut, hac, naive_partition)
from tmcf.dataset import write_canonical_csv
from tmcf.errors import ValidationError
from tmcf.evaluate import ari
from tmcf.pipeline import RunConfig, prepare, represent
from tmcf.represent import pairwise_dissimilarity
from tmcf.synth import GroupSpec, SynthSpec, generate


def brute_force_hac(dist, linkage):
    """Definitional reference: each step recomputes every cross-cluster
    linkage distance from the original matrix (max for complete, mean over
    all cross pairs for average) and merges the minimum, breaking ties by
    the sorted pair of smallest member indices."""
    m = dist.shape[0]
    clusters = {i: frozenset([i]) for i in range(m)}
    merges = []
    for step in range(m - 1):
        best = None
        for ia, ib in itertools.combinations(sorted(clusters), 2):
            a, b = clusters[ia], clusters[ib]
            pair_ds = [dist[x, y] for x in a for y in b]
            h = max(pair_ds) if linkage == "complete" else sum(pair_ds) / len(pair_ds)
            key = (h, min(min(a), min(b)), max(min(a), min(b)))
            if best is None or key < best[0]:
                best = (key, ia, ib)
        (h, _, _), ia, ib = best
        new_id = m + step
        merged = clusters.pop(ia) | clusters.pop(ib)
        clusters[new_id] = merged
        merges.append((min(ia, ib), max(ia, ib), h, len(merged)))
    return merges


def reference_hac(d, linkage="average"):
    """The former hac(): rescans the whole matrix at every merge, O(M^3).
    Kept as the oracle that the cached-row-minimum hac() must equal exactly."""
    if linkage not in LINKAGES:
        raise ValidationError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    d = _validate_dissimilarity(d)
    m = d.shape[0]
    if m < 2:
        raise ValidationError("need at least 2 items to cluster")

    # work holds the pairwise max (complete) or the cross-distance sum (average)
    work = d.copy()
    np.fill_diagonal(work, np.inf)
    sizes = np.ones(m, dtype=np.int64)
    reps = np.arange(m)  # smallest member index per slot, for tie-breaking
    ids = np.arange(m)  # current dendrogram id per slot
    merges: list[tuple[int, int, float, int]] = []

    for step in range(m - 1):
        if linkage == "complete":
            values = work
        else:
            values = work / np.outer(sizes, sizes)
        best = values.min()
        cand_i, cand_j = np.nonzero(values == best)
        # keep one orientation per pair, choose the tie-break winner
        pick = None
        pick_key = None
        for a, b in zip(cand_i, cand_j):
            if a >= b:
                continue
            key = (min(reps[a], reps[b]), max(reps[a], reps[b]))
            if pick_key is None or key < pick_key:
                pick_key = key
                pick = (a, b)
        a, b = pick
        height = float(values[a, b])
        new_size = int(sizes[a] + sizes[b])
        merges.append((int(min(ids[a], ids[b])), int(max(ids[a], ids[b])), height, new_size))

        if linkage == "complete":
            updated = np.maximum(work[a, :], work[b, :])
        else:
            updated = work[a, :] + work[b, :]
        work[a, :] = updated
        work[:, a] = updated
        work[a, a] = np.inf
        work[b, :] = np.inf
        work[:, b] = np.inf
        sizes[a] = new_size
        reps[a] = min(reps[a], reps[b])
        ids[a] = m + step

    return merges


# hac() as it was before it cached full-row minima, verbatim: each slot's
# minimum over the slots after it. The oracle hac() must equal exactly.
def upper_minimum_hac(d: np.ndarray, linkage: str = "average", overwrite: bool = False) -> Dendrogram:
    """Agglomerate a symmetric nonnegative dissimilarity matrix.

    hac works on a copy of d, or with overwrite on d itself, which it then
    leaves overwritten: the pipeline hands over the matrix it computed, so a
    run holds one M x M matrix, not two.

    Complete linkage propagates cross-pair maxima; average linkage keeps
    the running SUM of original cross-pair distances and divides by the
    member-pair count on demand, so every reported height equals the
    definitional computation (not a rounded running mean).

    Each slot i caches row_min[i] and row_arg[i], the minimum of row i's
    linkage values over the slots j > i and its first argmin, so a merge
    reads the minimum in O(M) instead of rescanning the M x M matrix. The
    surviving slot of a merge is the smaller index, so a slot's index is
    always its smallest member; the tie-break is therefore the
    lexicographically smallest slot pair (a, b), which is
    a = argmin(row_min), b = row_arg[a]. After a merge only row a, the
    rows whose argmin was a or b, and column a change, so only those
    entries are recomputed.
    """
    if linkage not in LINKAGES:
        raise ValidationError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    d = _validate_dissimilarity(d)
    m = d.shape[0]
    if m < 2:
        raise ValidationError("need at least 2 items to cluster")

    # work holds the pairwise max (complete) or the cross-distance sum (average)
    work = d if overwrite else d.copy()
    np.fill_diagonal(work, np.inf)
    sizes = np.ones(m, dtype=np.int64)
    ids = np.arange(m)  # current dendrogram id per slot
    merges: list[tuple[int, int, float, int]] = []

    def linkage_values(w, sizes_i, sizes_j):
        """Linkage values of work entries w: the same int64 product and
        division as work / np.outer(sizes, sizes)."""
        return w if linkage == "complete" else w / (sizes_i * sizes_j)

    cols = np.arange(m)
    row_min = np.empty(m)
    row_arg = np.empty(m, dtype=np.int64)

    block_rows = _block_rows(m)

    def refresh(rows: np.ndarray) -> None:
        """Recompute row_min and row_arg of rows over their columns j > i,
        a block of rows (_block_rows) at a time."""
        for lo in range(0, len(rows), block_rows):
            block = rows[lo : lo + block_rows]
            vals = linkage_values(work[block], sizes[block, None], sizes)
            vals[cols <= block[:, None]] = np.inf
            row_arg[block] = vals.argmin(axis=1)
            row_min[block] = vals.min(axis=1)

    refresh(cols)

    for step in range(m - 1):
        a = int(row_min.argmin())
        b = int(row_arg[a])
        height = float(row_min[a])
        new_size = int(sizes[a] + sizes[b])
        merges.append((int(min(ids[a], ids[b])), int(max(ids[a], ids[b])), height, new_size))

        if linkage == "complete":
            updated = np.maximum(work[a, :], work[b, :])
        else:
            updated = work[a, :] + work[b, :]
        work[a, :] = updated
        work[:, a] = updated
        work[a, a] = np.inf
        work[b, :] = np.inf
        work[:, b] = np.inf
        sizes[a] = new_size
        ids[a] = m + step

        # a dead slot never becomes a minimum again; -1 keeps it out of the
        # argmin tests below
        row_min[b] = np.inf
        row_arg[b] = -1
        above = row_arg[:a]
        stale = (above == a) | (above == b)
        col_a = linkage_values(work[:a, a], sizes[:a], sizes[a])
        better = (col_a < row_min[:a]) | ((col_a == row_min[:a]) & (a < above))
        take = np.flatnonzero(better & ~stale)
        row_min[take] = col_a[take]
        row_arg[take] = a
        between = np.flatnonzero(row_arg[a + 1 : b] == b) + a + 1
        refresh(np.concatenate((np.flatnonzero(stale), [a], between)))

    return Dendrogram(n_leaves=m, merges=merges)


def assert_same_merges(got, want):
    """Exact merge tuples, heights compared bit for bit."""
    assert got == want
    assert [g[2].hex() for g in got] == [w[2].hex() for w in want]


def assert_matches_oracles(d, linkage, reference=True):
    """hac(d) merges exactly as the former hac and, with reference, as the
    rescanning reference_hac; returns its merges."""
    got = hac(d, linkage).merges
    assert_same_merges(got, upper_minimum_hac(d, linkage).merges)
    if reference:
        assert_same_merges(got, reference_hac(d, linkage))
    return got


def line_points_matrix():
    points = np.array([0.0, 1.0, 10.0])
    return np.abs(points[:, None] - points[None, :])


class TestHacHandCases:
    def test_two_items_single_merge(self):
        d = np.array([[0.0, 3.5], [3.5, 0.0]])
        dendro = hac(d, "complete")
        assert dendro.merges == [(0, 1, 3.5, 2)]

    def test_line_points_complete(self):
        dendro = hac(line_points_matrix(), "complete")
        assert dendro.merges[0] == (0, 1, 1.0, 2)
        # {0,1} vs {10}: max(10, 9) = 10
        assert dendro.merges[1] == (2, 3, 10.0, 3)

    def test_line_points_average(self):
        dendro = hac(line_points_matrix(), "average")
        assert dendro.merges[0] == (0, 1, 1.0, 2)
        # {0,1} vs {10}: mean(10, 9) = 9.5
        assert dendro.merges[1][2] == pytest.approx(9.5)

    @pytest.mark.parametrize("m", [0, 1])
    def test_fewer_than_two_items_rejected(self, m):
        with pytest.raises(ValidationError, match="^need at least 2 items to cluster$"):
            hac(np.zeros((m, m)), "average")

    def test_asymmetric_input_rejected(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError):
            hac(d, "complete")

    def test_negative_input_rejected(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValidationError):
            hac(d, "average")


def defective_matrix(defect):
    """A valid 300-flow matrix with one defect placed past the validator's
    first row block."""
    d = random_dissimilarity(np.random.default_rng(7), 300)
    if defect == "nan":
        d[299, 0] = np.nan
    elif defect == "asymmetric":
        d[250, 3] += 1e-9
    elif defect == "negative":
        d[260, 270] = d[270, 260] = -0.5
    else:
        d[299, 299] = 0.1
    return d


# the messages the validator gave when it checked the whole matrix at once
DEFECTS = {
    "nan": "dissimilarity matrix contains NaN or Inf",
    "asymmetric": "dissimilarity matrix is not symmetric within 1e-12",
    "negative": "dissimilarity matrix contains negative entries",
    "diagonal": "dissimilarity matrix has a nonzero diagonal",
}


class TestBlockwiseValidation:
    def test_the_defects_lie_past_the_first_block(self):
        assert cluster._block_rows(300) < 250

    @pytest.mark.parametrize("defect", DEFECTS)
    @pytest.mark.parametrize("overwrite", [False, True])
    def test_each_defect_past_the_first_block_raises_its_message(self, defect, overwrite):
        d = defective_matrix(defect)
        with pytest.raises(ValidationError) as exc:
            hac(d, "average", overwrite=overwrite)
        assert str(exc.value) == DEFECTS[defect]

    def test_the_first_failing_condition_is_reported(self):
        # a negative pair in the first block, a NaN in the last: NaN is checked first
        d = defective_matrix("nan")
        d[1, 2] = d[2, 1] = -1.0
        with pytest.raises(ValidationError, match="NaN or Inf"):
            _validate_dissimilarity(d)

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_hac_leaves_the_callers_matrix_bit_unchanged(self, linkage):
        d = random_dissimilarity(np.random.default_rng(3), 300)
        before = d.tobytes()
        want = hac(d, linkage)
        assert d.tobytes() == before
        # overwrite agglomerates in d itself, with the same merges
        assert hac(d, linkage, overwrite=True).merges == want.merges
        assert d.tobytes() != before


def random_dissimilarity(rng, m, integral=False):
    if integral:
        upper = rng.integers(1, 6, size=(m, m)).astype(float)
    else:
        upper = rng.random((m, m))
    d = np.triu(upper, 1)
    return d + d.T


class TestHacOracle:
    @pytest.mark.parametrize("linkage", ["complete", "average"])
    def test_matches_brute_force(self, linkage):
        rng = np.random.default_rng(100)
        for trial in range(30):
            m = int(rng.integers(2, 9))
            # integer-valued matrices force exact distance ties
            d = random_dissimilarity(rng, m, integral=bool(trial % 2))
            got = hac(d, linkage).merges
            want = brute_force_hac(d, linkage)
            for g, w in zip(got, want):
                assert g[0] == w[0] and g[1] == w[1] and g[3] == w[3], (d, got, want)
                assert g[2] == pytest.approx(w[2], rel=1e-12)

    def test_complete_linkage_heights_monotone(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            d = random_dissimilarity(rng, 12)
            heights = hac(d, "complete").heights()
            assert (np.diff(heights) >= -1e-15).all()

    def test_permutation_invariance_up_to_relabeling(self):
        rng = np.random.default_rng(102)
        d = random_dissimilarity(rng, 10)
        perm = rng.permutation(10)
        dp = d[np.ix_(perm, perm)]
        for linkage in ("complete", "average"):
            for k in (2, 3, 5):
                labels_orig = cut(hac(d, linkage), k).labels
                labels_perm = cut(hac(dp, linkage), k).labels
                # labels_perm[i] describes item perm[i]
                unpermuted = np.empty(10, dtype=int)
                unpermuted[perm] = labels_perm
                assert ari(labels_orig, unpermuted) == pytest.approx(1.0)


def duplicated_points_dissimilarity(rng, m):
    """Euclidean distances of points drawn from a few distinct values, so
    many pairs are at distance zero and many heights tie."""
    points = rng.integers(0, 4, size=(m, 2)).astype(float)
    return np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))


class TestHacReference:
    """hac() against the former hac and the O(M^3) rescan: same merges, ties included."""

    @pytest.mark.parametrize("linkage", LINKAGES)
    @pytest.mark.parametrize("kind", ["random", "integral", "duplicated", "zero"])
    def test_matches_reference(self, linkage, kind):
        rng = np.random.default_rng(200)
        for _ in range(25):
            m = int(rng.integers(2, 40))
            if kind == "random":
                d = random_dissimilarity(rng, m)
            elif kind == "integral":
                d = random_dissimilarity(rng, m, integral=True)
            elif kind == "duplicated":
                d = duplicated_points_dissimilarity(rng, m)
            else:
                d = np.zeros((m, m))
            assert_matches_oracles(d, linkage)

    def test_merged_value_rounding_onto_a_row_minimum(self):
        # After {1, 3} merge, fl((1 + 2**-52 + 1) / 2) == 1.0 ties row 0's
        # cached minimum at column 2; the tie-break must move to slot 1.
        up = 1.0 + 2**-52
        d = np.array([[0, up, 1, 1], [up, 0, 3, 0.5], [1, 3, 0, 3], [1, 0.5, 3, 0]])
        merges = assert_matches_oracles(d, "average")
        assert merges[1] == (0, 4, 1.0, 3)

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_matches_reference_m200(self, linkage):
        rng = np.random.default_rng(201)
        d = random_dissimilarity(rng, 200, integral=True)
        d[:40, :40] = 0.0  # a block of identical flows, as all-zero OD flows give
        assert_matches_oracles(d, linkage)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12).flatmap(
            lambda m: st.lists(
                st.integers(min_value=0, max_value=3),
                min_size=m * (m - 1) // 2,
                max_size=m * (m - 1) // 2,
            ).map(lambda upper: (m, upper))
        ),
        st.sampled_from(LINKAGES),
    )
    def test_property_small_integer_matrices(self, m_upper, linkage):
        m, upper = m_upper
        d = np.zeros((m, m))
        d[np.triu_indices(m, 1)] = upper
        d = d + d.T
        assert_matches_oracles(d, linkage)


# the planted groups of the benchmark's workloads (perfbench/workloads.py):
# (shape, period in steps, amplitude in bytes, noise std), a quarter of the flows each
BENCHMARK_GROUPS = (
    ("sine", 288, 1.0e6, 5.0e4),
    ("square", 96, 8.0e5, 1.0e4),
    ("bursty-lognormal", 12, 2.0e6, 1.0e4),
    ("sine", 144, 6.0e5, 2.4e5),
)


def benchmark_dissimilarity(tmp_path, n_nodes, representation, metric):
    """The matrix a benchmark workload's run clusters, on the trace of seed 1300."""
    groups = [GroupSpec(n_nodes**2 // 4, period, amplitude, noise, shape)
              for shape, period, amplitude, noise in BENCHMARK_GROUPS]
    tm, _ = generate(SynthSpec(n_nodes=n_nodes, n_steps=1008, groups=groups, seed=1300))
    trace = str(tmp_path / "trace.csv")
    write_canonical_csv(tm, trace)
    config = RunConfig(trace=trace, representation=representation, metric=metric)
    flows_norm, _, _, ranges = prepare(config)
    return pairwise_dissimilarity(represent(config, flows_norm, ranges), metric).d


class TestHacOnLargeMatrices:
    @pytest.mark.parametrize("n_nodes,representation,metric", [
        (12, "histogram", "jsd"), (24, "acf", "euclidean"),
    ], ids=["abilene-hist-k16", "wide-acf-k16"])
    def test_a_benchmark_matrix_matches_both_oracles(self, tmp_path, n_nodes, representation,
                                                     metric):
        d = benchmark_dissimilarity(tmp_path, n_nodes, representation, metric)
        assert d.shape == (n_nodes**2, n_nodes**2)
        for linkage in LINKAGES:
            assert_matches_oracles(d, linkage)

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_m2304_matches_the_former_hac(self, linkage):
        d = random_dissimilarity(np.random.default_rng(202), 2304)
        assert_same_merges(hac(d, linkage).merges,
                           upper_minimum_hac(d, linkage, overwrite=True).merges)


class TestHacScipy:
    """scipy's linkage as a second oracle, on tie-free matrices only: scipy
    does not follow hac's smallest-slot-pair rule on ties. Its average
    linkage keeps a running mean, so heights agree within 1e-14 relative."""

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_matches_scipy_on_tie_free_matrices(self, linkage):
        rng = np.random.default_rng(300)
        for m in [3, 4, 5, *rng.integers(6, 201, size=20).tolist()]:
            d = random_dissimilarity(rng, m)
            want = scipy_linkage(squareform(d, checks=False), linkage)
            got = hac(d, linkage).merges
            assert [g[:2] for g in got] == [tuple(sorted(pair)) for pair in
                                            want[:, :2].astype(int).tolist()]
            assert [g[3] for g in got] == want[:, 3].astype(int).tolist()
            heights = np.array([g[2] for g in got])
            if linkage == "complete":
                assert np.array_equal(heights, want[:, 2])
            else:
                np.testing.assert_allclose(heights, want[:, 2], rtol=1e-14, atol=0)


class TestHacOverflow:
    def test_average_linkage_rejects_a_matrix_whose_sum_overflows(self):
        # summed, two clusters' cross distances read inf, a dead slot: the
        # merges were (0, 1), (2, 3), then (4, 4) at height inf
        d = np.full((4, 4), 1e308)
        np.fill_diagonal(d, 0.0)
        with pytest.raises(ValidationError, match="^dissimilarity matrix sum overflows"):
            hac(d, "average")
        # complete linkage takes maxima, which never overflow
        assert hac(d, "complete").merges == [(0, 1, 1e308, 2), (2, 4, 1e308, 3),
                                             (3, 5, 1e308, 4)]

    def test_average_linkage_takes_a_matrix_whose_sum_is_finite(self):
        d = np.full((4, 4), 1e307)
        np.fill_diagonal(d, 0.0)
        assert hac(d, "average").merges == [(0, 1, 1e307, 2), (2, 4, 1e307, 3),
                                            (3, 5, 1e307, 4)]


class TestCut:
    def test_k1_single_cluster(self):
        dendro = hac(line_points_matrix(), "complete")
        part = cut(dendro, 1)
        assert part.k == 1
        assert set(part.labels.tolist()) == {1}

    def test_kM_all_singletons(self):
        dendro = hac(line_points_matrix(), "complete")
        part = cut(dendro, 3)
        assert sorted(part.labels.tolist()) == [1, 2, 3]

    def test_line_points_k2(self):
        part = cut(hac(line_points_matrix(), "complete"), 2)
        assert part.labels[0] == part.labels[1] != part.labels[2]

    def test_labels_ordered_by_smallest_member(self):
        rng = np.random.default_rng(103)
        d = random_dissimilarity(rng, 12)
        part = cut(hac(d, "average"), 4)
        firsts = [int(np.flatnonzero(part.labels == c)[0]) for c in range(1, 5)]
        assert firsts == sorted(firsts)
        assert part.labels[0] == 1

    def test_every_k_yields_k_clusters(self):
        rng = np.random.default_rng(104)
        d = random_dissimilarity(rng, 9)
        dendro = hac(d, "average")
        for k in range(1, 10):
            part = cut(dendro, k)
            assert len(set(part.labels.tolist())) == k
            assert (part.cluster_sizes() > 0).all()

    def test_out_of_range_rejected(self):
        dendro = hac(line_points_matrix(), "complete")
        with pytest.raises(ValidationError):
            cut(dendro, 0)
        with pytest.raises(ValidationError):
            cut(dendro, 4)


class TestNaivePartition:
    def test_abilene_scale_sizes(self):
        part = naive_partition(144, 21, seed=0)
        sizes = part.cluster_sizes()
        assert sizes.min() == 6
        assert sizes.max() == 7
        assert (sizes == 1).sum() == 0

    def test_geant_scale_sizes(self):
        part = naive_partition(529, 50, seed=0)
        sizes = part.cluster_sizes()
        assert sizes.min() == 10
        assert sizes.max() == 11
        assert (sizes == 1).sum() == 0

    def test_k_equals_m_all_singletons(self):
        for seed in (0, 7):
            part = naive_partition(12, 12, seed=seed)
            assert (part.cluster_sizes() == 1).all()

    def test_reproducible_per_seed(self):
        a = naive_partition(100, 7, seed=42)
        b = naive_partition(100, 7, seed=42)
        c = naive_partition(100, 7, seed=43)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.labels, c.labels)

    def test_sizes_differ_by_at_most_one(self):
        rng = np.random.default_rng(105)
        for _ in range(20):
            m = int(rng.integers(2, 200))
            k = int(rng.integers(1, m + 1))
            sizes = naive_partition(m, k, seed=int(rng.integers(1e6))).cluster_sizes()
            assert sizes.max() - sizes.min() <= 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            naive_partition(10, 0, seed=1)
        with pytest.raises(ValidationError):
            naive_partition(10, 11, seed=1)


class TestPartitionType:
    def test_rejects_empty_cluster(self):
        with pytest.raises(ValidationError):
            Partition(labels=np.array([1, 1, 3]), k=3)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValidationError):
            Partition(labels=np.array([0, 1]), k=2)

    def test_round_trip_dict(self):
        part = naive_partition(10, 3, seed=9)
        back = Partition.from_dict(part.to_dict())
        assert np.array_equal(back.labels, part.labels)
        assert back.seed == 9
