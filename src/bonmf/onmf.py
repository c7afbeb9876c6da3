"""Orthogonal NMF baseline: real-valued H with (approximately) orthogonal rows.

H update follows the multiplicative rule of Ding, Li, Peng & Park,
"Orthogonal nonnegative matrix tri-factorizations for clustering"
(KDD 2006), specialized to two factors with H^T in the role of the
orthogonal factor:

    H_bj <- H_bj * sqrt( (W^T X)_bj / ((W^T X H^T) H)_bj )

The k x k product W^T X H^T keeps the denominator cheap. Orthogonality is
encouraged, not enforced; the off-diagonal mass of H H^T is reported per
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .init import SingularInitError, init_h_real, init_w
from .matrices import as_data_matrix
from .nmf import FactorizationTrace, FactorizeOptions, _alternate


@dataclass
class OnmfModel:
    basis: np.ndarray
    coefficients: np.ndarray
    trace: FactorizationTrace
    orthogonality_residual: list = field(default_factory=list)


def orthogonality_residual(H) -> float:
    """||H H^T - diag(H H^T)||_F, the off-diagonal mass of the row Gram."""
    G = H @ H.T
    off = G - np.diag(np.diag(G))
    return float(np.linalg.norm(off))


def update_h_orthogonal(X, W, H, epsilon_guard: float = 1e-10) -> np.ndarray:
    WtX = W.T @ X
    denom = (WtX @ H.T) @ H + epsilon_guard
    return H * np.sqrt(WtX / denom)


def factorize_onmf(X, k: int, opts: FactorizeOptions | None = None) -> OnmfModel:
    """Alternate the multiplicative W update with the orthogonality-
    preserving H update; stopping rules as in the plain NMF factorizer."""
    opts = opts or FactorizeOptions()
    X = as_data_matrix(X)
    if k < 1:
        raise ValueError("k must be >= 1")

    trace = FactorizationTrace()
    residuals = []

    def start():
        W = init_w(X, k, opts.seed)
        try:
            H0 = init_h_real(W, X)
            # strictly positive start: the sqrt-ratio rule cannot revive zeros
            return W, np.maximum(H0, 1e-3 * max(np.abs(H0).max(), 1.0))
        except SingularInitError:
            trace.notes.append("init_h_fallback_random")
            return W, np.random.default_rng(opts.seed).random((k, X.shape[1])) + 0.1

    W, H = _alternate(
        X,
        start,
        lambda W, H: update_h_orthogonal(X, W, H, opts.epsilon_guard),
        opts,
        trace,
        lambda it, W, H: residuals.append(orthogonality_residual(H)),
    )
    return OnmfModel(basis=W, coefficients=H, trace=trace, orthogonality_residual=residuals)


def encode_sample(x, W, inner_iterations: int = 50, epsilon_guard: float = 1e-10):
    """Coefficient vector h >= 0 with W h ~ x, via multiplicative updates
    with W fixed, from an all-ones start. Deterministic."""
    x = np.asarray(x, dtype=np.float64).ravel()
    W = np.asarray(W, dtype=np.float64)
    if W.shape[0] != x.size:
        raise ValueError(f"W has {W.shape[0]} rows but x has length {x.size}")
    G = W.T @ W
    Wtx = W.T @ x
    h = np.ones(W.shape[1])
    for _ in range(inner_iterations):
        h = h * Wtx / (G @ h + epsilon_guard)
    return h
