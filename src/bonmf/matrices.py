"""Dense matrix substrate: validation, column norms, per-cluster sums,
Frobenius objective, cosine similarity.

Samples are columns everywhere in this package (X is m features by n
samples), so per-column slicing is the hot path. All arrays are float64.
Passes over X run in blocks of H_UPDATE_BLOCK_COLS columns, so their
temporaries are m x H_UPDATE_BLOCK_COLS at most, never m x n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Columns per block of every blocked pass over X (the cosine H step, the
# cluster sums, the column norms and the direct binary residual).
H_UPDATE_BLOCK_COLS = 256

# The objective from cluster sums is a difference of terms of size ||X||^2;
# below this fraction of ||X||^2 the residual is summed directly instead.
EXPANSION_FLOOR = 1e-6


class DegenerateVectorError(ValueError):
    """A vector with zero norm was passed where a direction is required."""


class DegenerateModelError(RuntimeError):
    """Every basis column collapsed to zero; the model cannot assign clusters."""


def as_data_matrix(X) -> np.ndarray:
    """Validate and return X as a float64 2-d finite non-negative array."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"data matrix must be 2-d, got ndim={X.ndim}")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"data matrix must be non-empty, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("data matrix has NaN or infinite entries")
    if np.any(X < 0):
        raise ValueError("data matrix has negative entries; NMF requires X >= 0")
    return X


@dataclass(frozen=True, eq=False)
class BinaryAssignment:
    """O(n) encoding of a binary one-hot H: one cluster index per sample.

    The implied k x n matrix H has H[labels[j], j] = 1 and zeros elsewhere,
    so each column sums to one and H @ H.T is diagonal by construction.

    `sums` (m x k, X @ H.T) and `sq_norms` (k, squared column norms of X
    summed per cluster) optionally carry the statistics of the X the
    assignment was computed from; `statistics` returns them instead of
    reading X again. The cosine H step also records `margins` (n, a lower
    bound on each sample's cosine lead over the runner-up), `unit_basis`
    (m x k, the normalized basis it scored against), `zero_counts` (m x k,
    how many members of each cluster have a zero in each feature; None if
    X has no zero entry) and `rescored` (how many samples it scored), so
    that its next call rescores only the samples whose label can change.
    Equality compares `k` and the labels only; the class is unhashable.
    """

    labels: np.ndarray
    k: int
    sums: np.ndarray | None = field(default=None, repr=False)
    sq_norms: np.ndarray | None = field(default=None, repr=False)
    margins: np.ndarray | None = field(default=None, repr=False)
    unit_basis: np.ndarray | None = field(default=None, repr=False)
    zero_counts: np.ndarray | None = field(default=None, repr=False)
    rescored: int | None = None

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, BinaryAssignment):
            return NotImplemented
        return self.k == other.k and np.array_equal(self.labels, other.labels)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.intp)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1:
            raise ValueError("assignment labels must be 1-d")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise ValueError(f"cluster indices must lie in [0, {self.k})")
        if (self.sums is None) != (self.sq_norms is None):
            raise ValueError("sums and sq_norms must be given together")
        if self.sums is not None and (
            np.ndim(self.sums) != 2
            or np.shape(self.sums)[1] != self.k
            or np.shape(self.sq_norms) != (self.k,)
        ):
            raise ValueError(
                f"statistics must be m x {self.k} sums and {self.k} squared norms, "
                f"got {np.shape(self.sums)} and {np.shape(self.sq_norms)}"
            )
        if self.margins is not None and (
            self.sums is None
            or np.shape(self.margins) != labels.shape
            or np.shape(self.unit_basis) != np.shape(self.sums)
            or (
                self.zero_counts is not None
                and np.shape(self.zero_counts) != np.shape(self.sums)
            )
        ):
            raise ValueError(
                f"margins need statistics, {labels.size} entries, an m x {self.k} "
                f"unit basis and zero counts, got {np.shape(self.margins)}, "
                f"{np.shape(self.unit_basis)} and {np.shape(self.zero_counts)}"
            )

    @property
    def n(self) -> int:
        return self.labels.size

    def to_dense(self) -> np.ndarray:
        """Expand to the explicit k x n one-hot matrix (tests/oracles only)."""
        H = np.zeros((self.k, self.n))
        H[self.labels, np.arange(self.n)] = 1.0
        return H

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)

    def statistics(self, X) -> tuple[np.ndarray, np.ndarray]:
        """(X @ H.T, per-cluster squared norms): the stored ones if present,
        else one blocked pass over X."""
        if self.sums is None:
            return cluster_sums(X, self.labels, self.k)
        if self.sums.shape[0] != X.shape[0]:
            raise ValueError(f"sums have {self.sums.shape[0]} rows, X has {X.shape[0]}")
        return self.sums, self.sq_norms


def column_norms(X) -> np.ndarray:
    """np.linalg.norm(X, axis=0), bit for bit, without its m x n temporary."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[1])
    for start in range(0, X.shape[1], H_UPDATE_BLOCK_COLS):
        stop = start + H_UPDATE_BLOCK_COLS
        out[start:stop] = np.linalg.norm(X[:, start:stop], axis=0)
    return out


def cluster_sums(X, labels, k: int, norms=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster sums S = X @ H.T (m x k) and squared norms
    q[c] = sum of ||x_j||^2 over j in cluster c, for the one-hot H given
    by `labels`, in one blocked pass over X. `norms` may hold
    column_norms(X) computed earlier."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (X.shape[1],):
        raise ValueError(f"{labels.size} labels for {X.shape[1]} columns")
    S, q = np.zeros((X.shape[0], k)), np.zeros(k)
    for start in range(0, X.shape[1], H_UPDATE_BLOCK_COLS):
        cols = slice(start, start + H_UPDATE_BLOCK_COLS)
        block = X[:, cols]
        xnorm = column_norms(block) if norms is None else norms[cols]
        _add_cluster_sums(S, q, block, labels[cols], xnorm)
    return S, q


def _add_cluster_sums(S, q, block, labels, xnorm, old=None):
    """Add one column block's share to the cluster sums S and q in place;
    with `old`, move the block's columns from the clusters `old` to
    `labels` instead. Returns the one-hot (difference) matrix applied."""
    k = S.shape[1]
    rows = np.arange(labels.size)
    weights = xnorm * xnorm
    onehot = np.zeros((labels.size, k))
    onehot[rows, labels] = 1.0
    share = np.bincount(labels, weights=weights, minlength=k)
    if old is not None:
        onehot[rows, old] -= 1.0
        share -= np.bincount(old, weights=weights, minlength=k)
    S += block @ onehot
    q += share
    return onehot


def frobenius_objective(X, W, H) -> float:
    """0.5 * ||X - W H||_F^2 with H dense or a BinaryAssignment.

    For a BinaryAssignment the objective follows in O(mk) from the cluster
    statistics S = X H^T and q:
        0.5 * (sum(q) - 2 <S, W> + sum_c n_c ||w_c||^2),
    with no m x n temporary. Near an exact fit that expansion cancels, so
    below EXPANSION_FLOOR * sum(q) the residual X - W[:, labels] is summed
    directly, block by block.
    """
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if isinstance(H, BinaryAssignment):
        if W.shape[1] != H.k:
            raise ValueError(f"W has {W.shape[1]} columns but assignment has k={H.k}")
        if X.shape != (W.shape[0], H.n):
            raise ValueError(f"shape mismatch: X {X.shape} vs W H ({W.shape[0]}, {H.n})")
        S, q = H.statistics(X)
        total = float(q.sum())
        value = (
            total
            - 2.0 * float(np.vdot(S, W))
            + float(H.cluster_sizes() @ np.einsum("ij,ij->j", W, W))
        )
        if value >= EXPANSION_FLOOR * total:
            return 0.5 * value
        value = 0.0
        for start in range(0, H.n, H_UPDATE_BLOCK_COLS):
            stop = start + H_UPDATE_BLOCK_COLS
            R = X[:, start:stop] - W[:, H.labels[start:stop]]
            value += float(np.sum(R * R))
        return 0.5 * value
    H = np.asarray(H, dtype=np.float64)
    if W.shape[1] != H.shape[0] or X.shape != (W.shape[0], H.shape[1]):
        raise ValueError(f"shape mismatch: X {X.shape} vs W {W.shape} @ H {H.shape}")
    R = X - W @ H
    return 0.5 * float(np.sum(R * R))


def cosine_similarity(x, w) -> float:
    """Cosine of the angle between two vectors of equal length.

    Raises DegenerateVectorError if either vector has zero norm; callers
    apply their own zero-column policy.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    w = np.asarray(w, dtype=np.float64).ravel()
    if x.size != w.size:
        raise ValueError(f"vector lengths differ: {x.size} vs {w.size}")
    nx = np.linalg.norm(x)
    nw = np.linalg.norm(w)
    if nx == 0.0 or nw == 0.0:
        raise DegenerateVectorError("cosine similarity undefined for zero-norm vector")
    return float(np.dot(x, w) / (nx * nw))
