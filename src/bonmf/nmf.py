"""Lee-Seung multiplicative-update NMF.

Provides the baseline factorizer and the W update shared with the binary
factorizer. Updates are the classic ratios

    W_ia <- W_ia (X H^T)_ia / (W H H^T)_ia
    H_bj <- H_bj (W^T X)_bj / (W^T W H)_bj

with a small epsilon guard in each denominator so zero products never
produce NaN while zero entries stay locked at zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .init import init_h_real, init_w
from .matrices import BinaryAssignment, as_data_matrix, frobenius_objective


@dataclass
class FactorizeOptions:
    max_iterations: int = 200
    tolerance: float = 1e-4
    seed: int = 0
    epsilon_guard: float = 1e-10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        if self.epsilon_guard <= 0:
            raise ValueError("epsilon_guard must be > 0")


@dataclass
class FactorizationTrace:
    objective_per_iteration: list = field(default_factory=list)
    iterations_run: int = 0
    wall_time_train: float = 0.0
    notes: list = field(default_factory=list)
    # samples the bonmf cosine H step scored, per iteration (bonmf only)
    rescored_per_iteration: list = field(default_factory=list)


@dataclass
class NmfModel:
    basis: np.ndarray
    coefficients: np.ndarray
    trace: FactorizationTrace


def update_w(X, W, H, epsilon_guard: float = 1e-10) -> np.ndarray:
    """One multiplicative W update; H may be dense or a BinaryAssignment.

    For a BinaryAssignment, H H^T is diagonal with the cluster sizes n_c
    and X H^T is the per-cluster column sums S, so the update is
    W * S / (W * n_c + epsilon_guard). S comes from the assignment when the
    H step that made it recorded it (O(mk)), else from one blocked pass
    over X; H is never expanded.
    """
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    m, n = X.shape
    if W.shape[0] != m:
        raise ValueError(f"W has {W.shape[0]} rows, expected {m}")
    if isinstance(H, BinaryAssignment):
        if H.k != W.shape[1] or H.n != n:
            raise ValueError("assignment shape incompatible with X, W")
        numer, _ = H.statistics(X)
        denom = W * H.cluster_sizes()
    else:
        H = np.asarray(H, dtype=np.float64)
        if H.shape != (W.shape[1], n):
            raise ValueError(f"H has shape {H.shape}, expected {(W.shape[1], n)}")
        numer = X @ H.T
        denom = W @ (H @ H.T)
    return W * numer / (denom + epsilon_guard)


def update_h_dense(X, W, H, epsilon_guard: float = 1e-10) -> np.ndarray:
    """One multiplicative update of the dense coefficient matrix."""
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    if W.shape[0] != X.shape[0] or H.shape != (W.shape[1], X.shape[1]):
        raise ValueError(
            f"shape mismatch: X {X.shape}, W {W.shape}, H {H.shape}"
        )
    return H * (W.T @ X) / (W.T @ W @ H + epsilon_guard)


def _converged(prev: float, cur: float, tolerance: float) -> bool:
    return abs(cur - prev) / max(prev, np.finfo(float).tiny) < tolerance


def _alternate(X, start, h_step, opts, trace, on_iteration=None, stable_h=False):
    """The alternation every factorizer runs; returns the final (W, H).

    `start()` gives the initial (W, H). Each iteration applies the
    multiplicative W update and `h_step(W, H)`, records the objective in
    `trace` and calls `on_iteration(iteration, W, H)` if given. It stops at
    opts.max_iterations or when the relative objective change is below
    opts.tolerance and, with `stable_h`, H is unchanged. update_w,
    frobenius_objective and the H step are looked up at call time.
    """
    t0 = time.perf_counter()
    W, H = start()
    prev = None
    for it in range(opts.max_iterations):
        W = update_w(X, W, H, opts.epsilon_guard)
        H_new = h_step(W, H)
        stable = not stable_h or np.array_equal(
            getattr(H_new, "labels", H_new), getattr(H, "labels", H)
        )
        H = H_new  # free the previous H before the objective runs
        obj = frobenius_objective(X, W, H)
        trace.objective_per_iteration.append(obj)
        trace.iterations_run += 1
        if on_iteration is not None:
            on_iteration(it, W, H)
        if stable and prev is not None and _converged(prev, obj, opts.tolerance):
            break
        prev = obj
    trace.wall_time_train = time.perf_counter() - t0
    return W, H


def factorize_nmf(X, k: int, opts: FactorizeOptions | None = None) -> NmfModel:
    """Alternating Lee-Seung factorization X ~ W H with both factors real.

    Stops at max_iterations or when the relative objective change drops
    below opts.tolerance. The objective is recorded once per outer
    iteration, after both half-updates.
    """
    opts = opts or FactorizeOptions()
    X = as_data_matrix(X)
    m, n = X.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > min(m, n):
        import warnings

        warnings.warn(f"rank k={k} exceeds min(m, n)={min(m, n)}", stacklevel=2)

    trace = FactorizationTrace()

    def start():
        W = init_w(X, k, opts.seed)
        try:
            return W, np.maximum(init_h_real(W, X), 0.0)
        except np.linalg.LinAlgError:
            trace.notes.append("init_h_fallback_random")
            return W, np.random.default_rng(opts.seed).random((k, n))

    W, H = _alternate(
        X, start, lambda W, H: update_h_dense(X, W, H, opts.epsilon_guard), opts, trace
    )
    return NmfModel(basis=W, coefficients=H, trace=trace)
