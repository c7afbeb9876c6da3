"""Shared factor initialization used by every factorizer in this package.

W columns are averages of randomly chosen high-norm data columns
(Albright-style seeding); the real-valued H0 is the minimum-norm
least-squares solution of W H = X with W fixed, defined for every W.
"""

from __future__ import annotations

import numpy as np

from .matrices import column_norms

INIT_SAMPLE_SIZE = 10
INIT_POOL_SIZE = 30


def init_w(X, k: int, seed: int, *, norms=None) -> np.ndarray:
    """Seeded basis initialization.

    Columns of X are ordered by descending norm; each output column is the
    mean of INIT_SAMPLE_SIZE columns drawn uniformly from the first
    min(INIT_POOL_SIZE, n) of them, a fresh draw per column. Drawing is
    without replacement, except when n < INIT_SAMPLE_SIZE where sampling
    with replacement keeps tiny inputs workable. `norms` may hold
    column_norms(X) computed earlier.
    """
    X = np.asarray(X, dtype=np.float64)
    m, n = X.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    if norms is None:
        norms = column_norms(X)
    elif np.shape(norms) != (n,):
        raise ValueError(f"norms has shape {np.shape(norms)}, expected ({n},)")
    order = np.argsort(-np.asarray(norms, dtype=np.float64), kind="stable")
    pool = order[: min(INIT_POOL_SIZE, n)]
    rng = np.random.default_rng(seed)
    replace = n < INIT_SAMPLE_SIZE
    W = np.empty((m, k))
    for j in range(k):
        picks = rng.choice(pool, size=INIT_SAMPLE_SIZE, replace=replace)
        W[:, j] = X[:, picks].mean(axis=1)
    return W


def init_h_real(W, X) -> np.ndarray:
    """Minimum-norm least-squares coefficients H0 = pinv(W) X.

    Equals (W^T W)^-1 W^T X when W has full column rank; for a rank
    deficient W (duplicated columns, k > m) it is still defined.
    """
    W = np.asarray(W, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    return np.linalg.pinv(W) @ X
