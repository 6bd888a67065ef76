"""Hierarchical agglomerative clustering and the random-partition baseline.

hac() starts from singleton clusters and repeatedly merges the pair at
minimal linkage distance. Complete linkage scores a cluster pair by the
maximum pairwise member distance, average linkage by the mean over all
cross pairs (size-weighted). Ties on the minimal distance are broken
deterministically by the sorted pair of cluster representatives (smallest
member index of each side), lexicographically smallest first. A merged
cluster keeps the smaller slot of its two sides, so a slot's index is its
smallest member, and the tie-break is the smallest slot pair (a, b).

hac() caches each live slot's minimum over its whole row, so a merge costs
O(M) reads plus the rows whose minimum it moves, not an O(M^2) rescan; its
merges and heights are bit-identical to the rescanning definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

LINKAGES = ("complete", "average")

# every representation has a conventional linkage; callers may override
DEFAULT_LINKAGE = {"histogram": "complete", "acf": "average", "psd": "average"}

# Floats per row block of the passes over a whole M x M matrix: the checks of
# _validate_dissimilarity and hac's refreshes of its row-minimum cache, whose
# first fill reads every row. A block's temporaries hold about this many
# floats each, so no pass allocates a second M x M matrix, and stay under
# glibc's 128-KiB mmap threshold, so the heap reuses them while they are in
# cache. On the 2-vCPU benchmark host (CPU time, medians of 5) the checks of
# an M=2304 matrix took 45 ms, against 133 ms on whole-matrix temporaries, and
# hac in place with them 0.82 s, against 1.07 s on a copy (M=576: 1.3 against
# 5.4 ms, and 38 against 52 ms).
_BLOCK_FLOATS = 1 << 14


@dataclass
class Dendrogram:
    """Merge history of an agglomerative run.

    merges holds M-1 tuples (cluster_a, cluster_b, height, new_size) where
    leaves are 0..M-1 and merge i creates cluster id M+i; cluster_a < cluster_b.
    """

    n_leaves: int
    merges: list[tuple[int, int, float, int]]

    def __post_init__(self):
        if len(self.merges) != self.n_leaves - 1:
            raise ValidationError(
                f"dendrogram over {self.n_leaves} leaves needs {self.n_leaves - 1} "
                f"merges, got {len(self.merges)}"
            )

    def heights(self) -> np.ndarray:
        return np.array([m[2] for m in self.merges])


@dataclass
class Partition:
    """Assignment of the M flows to clusters labelled 1..K."""

    labels: np.ndarray
    k: int
    method: str = "unknown"
    seed: int | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1:
            raise ValidationError("labels must be a flat vector")
        if self.k < 1 or self.k > self.labels.size:
            raise ValidationError(f"k={self.k} out of range for {self.labels.size} flows")
        present = np.unique(self.labels)
        if present.min() < 1 or present.max() > self.k:
            raise ValidationError(f"labels must lie in 1..{self.k}")
        if present.size != self.k:
            raise ValidationError(f"expected {self.k} nonempty clusters, found {present.size}")

    @property
    def n_items(self) -> int:
        return self.labels.size

    def members(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k + 1)[1:]

    def to_dict(self) -> dict:
        out = {"labels": self.labels.tolist(), "k": int(self.k), "method": self.method}
        if self.seed is not None:
            out["seed"] = int(self.seed)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "Partition":
        labels, k = d["labels"], d["k"]
        if not all(type(v) is int for v in [k, *labels]):  # a bool is no JSON integer
            raise ValidationError("partition k and labels must be JSON integers")
        return cls(
            labels=np.asarray(labels),
            k=k,
            method=d.get("method", "unknown"),
            seed=d.get("seed"),
        )


def _block_rows(m: int) -> int:
    """Rows of an M x M matrix per block of about _BLOCK_FLOATS floats."""
    return max(1, _BLOCK_FLOATS // max(m, 1))


def _validate_dissimilarity(d: np.ndarray) -> np.ndarray:
    """d as float64, checked square, finite, nonnegative, symmetric within
    1e-12 and zero on the diagonal, in this order, so that a matrix with
    several defects fails on the first. Each condition is checked over row
    blocks (_block_rows), the symmetry of block [lo, hi) against the columns
    from lo on, which covers every pair once or twice."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValidationError(f"dissimilarity matrix must be square, got {d.shape}")
    step = _block_rows(d.shape[0])
    blocks = [slice(lo, lo + step) for lo in range(0, d.shape[0], step)]
    if not all(np.isfinite(d[rows]).all() for rows in blocks):
        raise ValidationError("dissimilarity matrix contains NaN or Inf")
    if any((d[rows] < 0).any() for rows in blocks):
        raise ValidationError("dissimilarity matrix contains negative entries")
    for rows in blocks:
        diff = np.subtract(d[rows, rows.start :], d[rows.start :, rows].T)
        if np.abs(diff, out=diff).max() > 1e-12:
            raise ValidationError("dissimilarity matrix is not symmetric within 1e-12")
    if np.diag(d).any():  # not a max, which a 0 x 0 matrix has none of
        raise ValidationError("dissimilarity matrix has a nonzero diagonal")
    return d


def hac(d: np.ndarray, linkage: str = "average", overwrite: bool = False) -> Dendrogram:
    """Agglomerate a symmetric nonnegative dissimilarity matrix.

    hac works on a copy of d, or with overwrite on d itself, which it then
    leaves overwritten: the pipeline hands over the matrix it computed, so a
    run holds one M x M matrix, not two.

    Complete linkage propagates cross-pair maxima; average linkage keeps
    the running SUM of original cross-pair distances and divides by the
    member-pair count on demand, so every reported height equals the
    definitional computation (not a rounded running mean), and rejects a
    matrix whose sum, at least twice any cross-cluster sum, overflows.

    Each live slot i caches row_min[i] and row_arg[i], the minimum of row
    i's linkage values over every other live slot and its first argmin, so
    a merge reads the minimum in O(M) instead of rescanning the M x M
    matrix. The surviving slot of a merge is the smaller index, so a slot's
    index is always its smallest member, and the tie-break, the
    lexicographically smallest slot pair, is a = argmin(row_min),
    b = row_arg[a] > a. A merge rewrites column a and kills column b: rows
    whose argmin was a or b are recomputed, and every other row compares
    its minimum with its new value in column a.
    """
    if linkage not in LINKAGES:
        raise ValidationError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    d = _validate_dissimilarity(d)
    m = d.shape[0]
    if m < 2:
        raise ValidationError("need at least 2 items to cluster")
    with np.errstate(over="ignore"):  # an infinite sum would read as a dead slot
        if linkage == "average" and not np.isfinite(d.sum()):
            raise ValidationError("dissimilarity matrix sum overflows average linkage")

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

    row_min = np.empty(m)
    row_arg = np.empty(m, dtype=np.int64)
    block_rows = _block_rows(m)

    def refresh(rows: np.ndarray) -> None:
        """Recompute row_min and row_arg of rows, a block of rows
        (_block_rows) at a time."""
        for lo in range(0, len(rows), block_rows):
            block = rows[lo : lo + block_rows]
            vals = linkage_values(work[block], sizes[block, None], sizes)
            row_arg[block] = vals.argmin(axis=1)
            row_min[block] = vals.min(axis=1)

    refresh(np.arange(m))

    for step in range(m - 1):
        a = int(row_min.argmin())
        b = int(row_arg[a])
        height = float(row_min[a])
        new_size = int(sizes[a] + sizes[b])
        merges.append((int(min(ids[a], ids[b])), int(max(ids[a], ids[b])), height, new_size))

        # the infinite diagonal and dead slots stay infinite in updated
        if linkage == "complete":
            updated = np.maximum(work[a], work[b])
        else:
            updated = work[a] + work[b]
        work[a] = work[:, a] = updated
        work[b] = work[:, b] = np.inf
        sizes[a] = new_size
        ids[a] = m + step

        # a dead slot never becomes a minimum again; -1 keeps it out of the
        # argmin tests below
        row_min[b], row_arg[b] = np.inf, -1
        col = linkage_values(updated, sizes, new_size)
        stale = (row_arg == a) | (row_arg == b)
        take = ~stale & ((col < row_min) | ((col == row_min) & (a < row_arg)))
        row_min[take] = col[take]
        row_arg[take] = a
        refresh(np.flatnonzero(stale))

    return Dendrogram(n_leaves=m, merges=merges)


def cut(dendrogram: Dendrogram, k: int) -> Partition:
    """Undo the last k-1 merges; clusters are relabelled 1..k in order of
    their smallest member index."""
    m = dendrogram.n_leaves
    if not 1 <= k <= m:
        raise ValidationError(f"k={k} out of range 1..{m}")
    parent = list(range(2 * m - 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step, (a, b, _height, _size) in enumerate(dendrogram.merges[: m - k]):
        new_id = m + step
        parent[find(a)] = new_id
        parent[find(b)] = new_id

    roots = [find(i) for i in range(m)]
    label_of: dict[int, int] = {}
    labels = np.empty(m, dtype=np.int64)
    for i, root in enumerate(roots):
        if root not in label_of:
            label_of[root] = len(label_of) + 1
        labels[i] = label_of[root]
    return Partition(labels=labels, k=k, method="hac")


def naive_partition(m: int, k: int, seed: int) -> Partition:
    """Random balanced assignment: seeded shuffle dealt round-robin into k
    clusters, so sizes differ by at most one and no cluster is empty."""
    if not 1 <= k <= m:
        raise ValidationError(f"k={k} out of range 1..{m}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(m)
    labels = np.empty(m, dtype=np.int64)
    labels[order] = np.arange(m) % k + 1
    return Partition(labels=labels, k=k, method="naive", seed=seed)
