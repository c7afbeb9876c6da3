"""Dense matrix substrate: validation, column norms, per-cluster sums and
the Frobenius objective of a dense factorization.

Samples are columns everywhere in this package (X is m features by n
samples), so per-column slicing is the hot path. All arrays are float64.
Passes over X run in blocks of H_UPDATE_BLOCK_COLS columns, so their
temporaries are m x H_UPDATE_BLOCK_COLS at most, never m x n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Columns per block of every blocked pass over X (the cosine H step, the
# cluster sums, the column norms and bonmf's direct residual).
H_UPDATE_BLOCK_COLS = 256

# The objective from X H^T is a difference of terms of size ||X||^2;
# below this fraction of ||X||^2 the residual is summed directly instead.
EXPANSION_FLOOR = 1e-6


class DegenerateModelError(RuntimeError):
    """Every basis column collapsed to zero; the model cannot assign clusters."""


def as_data_matrix(X) -> np.ndarray:
    """Validate and return X as a float64 2-d finite non-negative array."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"data matrix must be 2-d, got ndim={X.ndim}")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"data matrix must be non-empty, got shape {X.shape}")
    # two reductions with no m x n temporary: a NaN propagates into the
    # minimum, an infinity reaches the minimum or the maximum
    lowest, highest = X.min(), X.max()
    if not (np.isfinite(lowest) and np.isfinite(highest)):
        raise ValueError("data matrix has NaN or infinite entries")
    if lowest < 0:
        raise ValueError("data matrix has negative entries; NMF requires X >= 0")
    return X


@dataclass(frozen=True, eq=False)
class BinaryAssignment:
    """O(n) encoding of a binary one-hot H: one cluster index per sample.

    The implied k x n matrix H has H[labels[j], j] = 1 and zeros elsewhere,
    so each column sums to one and H @ H.T is diagonal by construction.

    `sums` (m x k, X @ H.T) and `sq_norms` (k, squared column norms of X
    summed per cluster) optionally carry the statistics of the X the
    assignment was computed from; bonmf's W step and objective read them
    instead of X. The cosine H step returns a subclass that also holds its
    rescoring state (CosineAssignment in bonmf.bonmf).

    Equality compares `k` and the labels only; the class is unhashable.
    """

    labels: np.ndarray
    k: int
    sums: np.ndarray | None = field(default=None, repr=False)
    sq_norms: np.ndarray | None = field(default=None, repr=False)

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
    `labels` instead."""
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


def _dense_sums(X, W, H, sums=None) -> np.ndarray:
    """X @ H.T for a dense H, or `sums` (that product computed earlier)
    once its shape is checked against W."""
    if sums is None:
        return X @ H.T
    if np.shape(sums) != W.shape:
        raise ValueError(f"sums have shape {np.shape(sums)}, expected {W.shape}")
    return sums


def frobenius_objective(X, W, H, *, sums=None) -> float:
    """0.5 * ||X - W H||_F^2 for a dense H, from the k-column statistics
    S = X H^T and the k x k Grams, with no m x n temporary:
        0.5 * (||X||^2 - 2 <S, W> + <W^T W, H H^T>),
    where `sums` may hold S computed earlier (it is X @ H.T otherwise).
    Near an exact fit the expansion cancels, so below
    EXPANSION_FLOOR * ||X||^2 the residual X - W H is summed directly.
    """
    X, W, H = (np.asarray(a, dtype=np.float64) for a in (X, W, H))
    if W.shape[1] != H.shape[0] or X.shape != (W.shape[0], H.shape[1]):
        raise ValueError(f"shape mismatch: X {X.shape} vs W {W.shape} @ H {H.shape}")
    S = _dense_sums(X, W, H, sums)
    x = X.ravel(order="K")  # no copy for C- or F-ordered X, unlike np.vdot
    total = float(x @ x)
    value = total - 2.0 * float(np.vdot(S, W)) + float(np.vdot(W.T @ W, H @ H.T))
    if value >= EXPANSION_FLOOR * total:
        return 0.5 * value
    R = X - W @ H
    return 0.5 * float(np.sum(R * R))
