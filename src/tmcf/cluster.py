"""Hierarchical agglomerative clustering and the random-partition baseline.

hac() starts from singleton clusters and repeatedly merges the pair at
minimal linkage distance. Complete linkage scores a cluster pair by the
maximum pairwise member distance, average linkage by the mean over all
cross pairs (size-weighted). Ties on the minimal distance are broken
deterministically by the sorted pair of cluster representatives (smallest
member index of each side), lexicographically smallest first. A merged
cluster keeps the smaller slot of its two sides, so a slot's index is its
smallest member, and the tie-break is the smallest slot pair (a, b).

hac() caches each slot's row minimum over the slots after it, so a merge
costs O(M) reads plus the rows it invalidates, not an O(M^2) rescan; its
merges and heights are bit-identical to the rescanning definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

LINKAGES = ("complete", "average")

# every representation has a conventional linkage; callers may override
DEFAULT_LINKAGE = {"histogram": "complete", "acf": "average", "psd": "average"}

# rows per block when hac() first fills its row-minimum cache, which bounds
# the temporaries to this many rows of the matrix
_REFRESH_ROWS = 256


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


def _validate_dissimilarity(d: np.ndarray) -> np.ndarray:
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValidationError(f"dissimilarity matrix must be square, got {d.shape}")
    if not np.isfinite(d).all():
        raise ValidationError("dissimilarity matrix contains NaN or Inf")
    if (d < 0).any():
        raise ValidationError("dissimilarity matrix contains negative entries")
    if np.abs(d - d.T).max() > 1e-12:
        raise ValidationError("dissimilarity matrix is not symmetric within 1e-12")
    if np.abs(np.diag(d)).max() > 0:
        raise ValidationError("dissimilarity matrix has a nonzero diagonal")
    return d


def hac(d: np.ndarray, linkage: str = "average") -> Dendrogram:
    """Agglomerate a symmetric nonnegative dissimilarity matrix.

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
    work = d.copy()
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

    def refresh(rows: np.ndarray) -> None:
        """Recompute row_min and row_arg of rows over their columns j > i."""
        vals = linkage_values(work[rows], sizes[rows, None], sizes)
        vals[cols <= rows[:, None]] = np.inf
        row_arg[rows] = vals.argmin(axis=1)
        row_min[rows] = vals.min(axis=1)

    for start in range(0, m, _REFRESH_ROWS):
        refresh(cols[start : start + _REFRESH_ROWS])

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
