"""Shared factor initialization used by every factorizer in this package.

W columns are averages of randomly chosen high-norm data columns
(Albright-style seeding); the real-valued H0 comes from the normal
equations with W fixed.
"""

from __future__ import annotations

import numpy as np

from .matrices import column_norms

INIT_SAMPLE_SIZE = 10
INIT_POOL_SIZE = 30


class SingularInitError(np.linalg.LinAlgError):
    """W^T W is (numerically) rank deficient; callers fall back to cosine."""


def init_w(X, k: int, seed: int) -> np.ndarray:
    """Seeded basis initialization.

    Columns of X are ordered by descending norm; each output column is the
    mean of INIT_SAMPLE_SIZE columns drawn uniformly from the first
    min(INIT_POOL_SIZE, n) of them, a fresh draw per column. Drawing is
    without replacement, except when n < INIT_SAMPLE_SIZE where sampling
    with replacement keeps tiny inputs workable.
    """
    X = np.asarray(X, dtype=np.float64)
    m, n = X.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    order = np.argsort(-column_norms(X), kind="stable")
    pool = order[: min(INIT_POOL_SIZE, n)]
    rng = np.random.default_rng(seed)
    replace = n < INIT_SAMPLE_SIZE
    W = np.empty((m, k))
    for j in range(k):
        picks = rng.choice(pool, size=INIT_SAMPLE_SIZE, replace=replace)
        W[:, j] = X[:, picks].mean(axis=1)
    return W


def init_h_real(W, X) -> np.ndarray:
    """Least-squares coefficients H0 = (W^T W)^-1 W^T X.

    Solved as k x k normal equations shared by all columns. Raises
    SingularInitError when W is rank deficient (e.g. duplicated columns).
    """
    W = np.asarray(W, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    k = W.shape[1]
    G = W.T @ W
    if np.linalg.matrix_rank(G) < k:
        raise SingularInitError("W^T W is singular")
    return np.linalg.solve(G, W.T @ X)
