"""Semi-binary NMF baseline (Zhang-style sign rule).

H is binary but not one-hot: columns may contain any number of ones.
Each row of H is refreshed by thresholding a linear score built from the
matching basis column against the rest of the factorization.
"""

from __future__ import annotations

import numpy as np

from .init import _start_of
from .matrices import as_data_matrix
from .nmf import FactorizationTrace, FactorizeOptions, NmfModel, _alternate


def update_h_row(X, W, H, row: int) -> np.ndarray:
    """Recompute one row of binary H by the sign rule.

    With z the matching basis column and W', H' the factorization with
    that column/row removed, the new row is the elementwise sign of
    X^T z - (z^T z)/2 - H'^T W'^T z. Other rows are untouched.
    """
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    k = W.shape[1]
    if not 0 <= row < k:
        raise IndexError(f"row {row} outside [0, {k})")
    if H.shape != (k, X.shape[1]) or W.shape[0] != X.shape[0]:
        raise ValueError(f"shape mismatch: X {X.shape}, W {W.shape}, H {H.shape}")

    z = W[:, row]
    others = np.arange(k) != row
    score = X.T @ z - 0.5 * (z @ z) - H[others].T @ (W[:, others].T @ z)
    out = H.copy()
    out[row] = (score > 0).astype(np.float64)
    return out


def _sweep(X, W, H) -> np.ndarray:
    """k successive update_h_row calls, rows in ascending order, from one
    X^T W and G = W^T W: row r's score is
    (X^T W)[:, r] - G[r, r]/2 - H'^T G'[:, r] over the current H, and the
    rows of one copy of H are replaced in place."""
    XtW = X.T @ W
    G = W.T @ W
    H = H.copy()
    for row in range(W.shape[1]):
        g = G[:, row].copy()
        g[row] = 0.0  # drops H[row] from H^T g, leaving H'^T G'[:, row]
        H[row] = XtW[:, row] - 0.5 * G[row, row] - H.T @ g > 0
    return H


def factorize_zhang(X, k: int, opts: FactorizeOptions | None = None, *, start=None) -> NmfModel:
    """Alternate the multiplicative W update with a full ascending row
    sweep of the sign rule.

    The sweep reads X once (one X^T W product) and updates the rows of one
    copy of H in place; it gives the H of k successive update_h_row calls.
    H starts from the H0 of least_squares_start(X, k, opts.seed), or of
    `start` when given (that pair computed once for several factorizers;
    it is only read), thresholded at 1/2. Stops at max_iterations or when
    H is unchanged and the relative objective change is below tolerance.
    """
    opts = opts or FactorizeOptions()
    X = as_data_matrix(X)
    if k < 1:
        raise ValueError("k must be >= 1")

    trace = FactorizationTrace()

    def initial():
        W, H0 = _start_of(X, k, opts.seed, start)
        return W, (H0 > 0.5).astype(np.float64)

    W, H = _alternate(X, initial, lambda W, H: _sweep(X, W, H), opts, trace, stable_h=True)
    return NmfModel(basis=W, coefficients=H, trace=trace)
