"""Shared factor initialization used by every factorizer in this package.

W's columns are k columns of X chosen by spherical k-means++ seeding
(Arthur and Vassilvitskii 2007) in its greedy form, which keeps the best
of a few draws per seed; the real-valued H0 is the minimum-norm
least-squares solution of W H = X with W fixed, defined for every W.
least_squares_start gives the pair (W, H0); each factorizer maps H0 to
its own start and accepts the pair computed once for several of them.
"""

from __future__ import annotations

import numpy as np

from .matrices import H_UPDATE_BLOCK_COLS, column_norms


def init_w(X, k: int, seed: int, *, norms=None) -> np.ndarray:
    """Seeded basis: k columns of X by greedy spherical k-means++.

    A column's gap is max(0, 1 - its best cosine to the seeds so far); a
    zero column's gap is 0, and a chosen column's is set to exactly 0. The
    first seed is drawn uniformly from the nonzero columns. Each later seed
    is the best of 2 + floor(ln k) candidates drawn with probability
    proportional to the gap: the one that leaves the smallest sum of gaps,
    the earliest drawn on ties. When no column has a positive gap (X is all
    zero, or every direction in X already has a seed, as when k exceeds
    their number) the candidates are drawn uniformly from the nonzero
    columns, from all columns if X is zero.

    Each seed takes one blocked pass over X with one product of the unit
    candidates and a block; `norms` may hold column_norms(X) computed
    earlier.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[1]
    if k < 1:
        raise ValueError("k must be >= 1")
    if norms is None:
        norms = column_norms(X)
    elif np.shape(norms) != (n,):
        raise ValueError(f"norms has shape {np.shape(norms)}, expected ({n},)")
    live = np.asarray(norms) > 0.0
    uniform = live / live.sum() if live.any() else np.full(n, 1.0 / n)
    safe = np.where(live, norms, 1.0)
    rng = np.random.default_rng(seed)
    gap = live.astype(np.float64)  # before the first seed every best cosine is 0
    trials = 2 + int(np.log(k))
    gaps = np.empty((trials, n))
    chosen = []
    for j in range(k):
        total = gap.sum()
        p = gap / total if total > 0.0 else uniform
        cand = rng.choice(n, size=1 if j == 0 else trials, p=p)
        unit = (X[:, cand] / safe[cand]).T
        new = gaps[: cand.size]
        for start in range(0, n, H_UPDATE_BLOCK_COLS):
            cols = slice(start, start + H_UPDATE_BLOCK_COLS)
            np.minimum(gap[cols], 1.0 - (unit @ X[:, cols]) / safe[cols], out=new[:, cols])
        np.maximum(new, 0.0, out=new)
        new[np.arange(cand.size), cand] = 0.0
        best = int(np.argmin(new.sum(axis=1)))
        gap[:] = new[best]
        chosen.append(cand[best])
    return X[:, chosen]


def init_h_real(W, X) -> np.ndarray:
    """Minimum-norm least-squares coefficients H0 = pinv(W) X.

    Equals (W^T W)^-1 W^T X when W has full column rank; for a rank
    deficient W (duplicated columns, k > m) it is still defined.
    """
    W = np.asarray(W, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    return np.linalg.pinv(W) @ X


def least_squares_start(X, k: int, seed: int, *, norms=None) -> tuple[np.ndarray, np.ndarray]:
    """The start every factorizer maps to its own: (W, H0) with
    W = init_w(X, k, seed, norms=norms) and H0 = init_h_real(W, X)."""
    W = init_w(X, k, seed, norms=norms)
    return W, init_h_real(W, X)


def _start_of(X, k: int, seed: int, start, *, norms=None) -> tuple[np.ndarray, np.ndarray]:
    """`start`, a factorizer's (W, H0) argument, checked against X and k;
    least_squares_start(X, k, seed, norms=norms) when it is None."""
    if start is None:
        return least_squares_start(X, k, seed, norms=norms)
    W, H0 = start
    m, n = np.shape(X)
    if np.shape(W) != (m, k) or np.shape(H0) != (k, n):
        raise ValueError(
            f"start has W {np.shape(W)} and H0 {np.shape(H0)}, expected {(m, k)} and {(k, n)}"
        )
    return W, H0
