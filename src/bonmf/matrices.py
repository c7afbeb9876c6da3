"""Dense matrix substrate: validation, Frobenius objective, cosine similarity.

Samples are columns everywhere in this package (X is m features by n
samples), so per-column slicing is the hot path. All arrays are float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


@dataclass(frozen=True)
class BinaryAssignment:
    """O(n) encoding of a binary one-hot H: one cluster index per sample.

    The implied k x n matrix H has H[labels[j], j] = 1 and zeros elsewhere,
    so each column sums to one and H @ H.T is diagonal by construction.
    """

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.intp)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1:
            raise ValueError("assignment labels must be 1-d")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise ValueError(f"cluster indices must lie in [0, {self.k})")

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


def frobenius_objective(X, W, H) -> float:
    """0.5 * ||X - W H||_F^2 with H dense or a BinaryAssignment.

    For a BinaryAssignment the product W H is just column gathering
    (W H)[:, j] = W[:, labels[j]], so no dense H is materialized.
    """
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if isinstance(H, BinaryAssignment):
        if W.shape[1] != H.k:
            raise ValueError(f"W has {W.shape[1]} columns but assignment has k={H.k}")
        if X.shape != (W.shape[0], H.n):
            raise ValueError(f"shape mismatch: X {X.shape} vs W H ({W.shape[0]}, {H.n})")
        R = X - W[:, H.labels]
    else:
        H = np.asarray(H, dtype=np.float64)
        if W.shape[1] != H.shape[0] or X.shape != (W.shape[0], H.shape[1]):
            raise ValueError(
                f"shape mismatch: X {X.shape} vs W {W.shape} @ H {H.shape}"
            )
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
