"""Semi-binary NMF baseline (Zhang-style sign rule).

H is binary but not one-hot: columns may contain any number of ones.
Each row of H is refreshed by thresholding a linear score built from the
matching basis column against the rest of the factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .init import SingularInitError, init_h_real, init_w
from .matrices import as_data_matrix
from .nmf import FactorizationTrace, FactorizeOptions, _alternate


@dataclass
class SemiBinaryModel:
    basis: np.ndarray
    coefficients: np.ndarray
    trace: FactorizationTrace


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


def factorize_zhang(X, k: int, opts: FactorizeOptions | None = None) -> SemiBinaryModel:
    """Alternate the multiplicative W update with a full ascending row
    sweep of the sign rule.

    H starts from the least-squares H0 thresholded at 1/2. Stops at
    max_iterations or when H is unchanged and the relative objective
    change is below tolerance.
    """
    opts = opts or FactorizeOptions()
    X = as_data_matrix(X)
    if k < 1:
        raise ValueError("k must be >= 1")

    trace = FactorizationTrace()

    def start():
        W = init_w(X, k, opts.seed)
        try:
            return W, (init_h_real(W, X) > 0.5).astype(np.float64)
        except SingularInitError:
            trace.notes.append("init_h_fallback_random")
            rng = np.random.default_rng(opts.seed)
            return W, rng.integers(0, 2, size=(k, X.shape[1])).astype(np.float64)

    def row_sweep(W, H):
        for row in range(k):
            H = update_h_row(X, W, H, row)
        return H

    W, H = _alternate(X, start, row_sweep, opts, trace, stable_h=True)
    return SemiBinaryModel(basis=W, coefficients=H, trace=trace)
