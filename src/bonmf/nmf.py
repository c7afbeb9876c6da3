"""Lee-Seung multiplicative-update NMF and the alternation loop every
factorizer runs.

Provides the baseline factorizer and the W update shared by the dense
baselines. Updates are the classic ratios

    W_ia <- W_ia (X H^T)_ia / (W H H^T)_ia
    H_bj <- H_bj (W^T X)_bj / (W^T W H)_bj

with a small epsilon guard in each denominator so zero products never
produce NaN while zero entries stay locked at zero. bonmf passes the loop
its own closed-form W step and objective instead.

For a dense H an iteration makes two products with X: S = X H^T after the
H step, shared by the objective and the next W update, and the H step's
own W^T X (X^T W for the zhang sweep). The objective follows from S and
the k x k Grams W^T W and H H^T, with no m x n residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .init import init_h_real, init_w
from .matrices import _dense_sums, _squared_norm, as_data_matrix, frobenius_objective

# added to every multiplicative-update denominator
EPSILON_GUARD = 1e-10


@dataclass
class FactorizeOptions:
    max_iterations: int = 200
    tolerance: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")


@dataclass
class FactorizationTrace:
    objective_per_iteration: list = field(default_factory=list)
    # samples the bonmf cosine H step scored, per iteration (bonmf only)
    rescored_per_iteration: list = field(default_factory=list)

    @property
    def iterations_run(self) -> int:
        return len(self.objective_per_iteration)


@dataclass
class NmfModel:
    basis: np.ndarray
    coefficients: np.ndarray
    trace: FactorizationTrace


def update_w(X, W, H, epsilon_guard: float = EPSILON_GUARD, *, sums=None) -> np.ndarray:
    """One multiplicative W update for a dense H. `sums` may hold X @ H.T
    computed earlier; without it the update computes that product."""
    X, W, H = _as_factors(X, W, H)
    return W * _dense_sums(X, W, H, sums) / (W @ (H @ H.T) + epsilon_guard)


def _as_factors(X, W, H):
    """X, W and H as float64 arrays, checked to multiply as X ~ W H."""
    X, W, H = (np.asarray(a, dtype=np.float64) for a in (X, W, H))
    if W.shape[0] != X.shape[0] or H.shape != (W.shape[1], X.shape[1]):
        raise ValueError(f"shape mismatch: X {X.shape}, W {W.shape}, H {H.shape}")
    return X, W, H


def update_h_dense(X, W, H, epsilon_guard: float = EPSILON_GUARD) -> np.ndarray:
    """One multiplicative update of the dense coefficient matrix."""
    X, W, H = _as_factors(X, W, H)
    return H * (W.T @ X) / (W.T @ W @ H + epsilon_guard)


def _converged(prev: float, cur: float, tolerance: float) -> bool:
    return abs(cur - prev) / max(prev, np.finfo(float).tiny) < tolerance


def _alternate(
    X, start, h_step, opts, trace, on_iteration=None, stable_h=False, w_step=None, objective=None
):
    """The alternation every factorizer runs; returns the final (W, H).

    `start()` gives the initial (W, H). Each iteration applies the W step
    and `h_step(W, H)`, records the objective in `trace` and calls
    `on_iteration(iteration, W, H)` if given. It stops at
    opts.max_iterations or when the relative objective change is below
    opts.tolerance and, with `stable_h`, H is unchanged.

    `w_step(W, H)` and `objective(W, H)` are given together or not at all.
    Without them H is dense: the W step is the multiplicative update_w, and
    one X @ H.T per H feeds both frobenius_objective and the next W step;
    ||X||^2 is computed once per call.
    update_w, frobenius_objective and the H step are looked up at call time.
    """
    W, H = start()
    sums = None  # X @ H.T of a dense H, taken with its objective
    sq_norm = _squared_norm(X) if objective is None else None
    prev = None
    for it in range(opts.max_iterations):
        W = update_w(X, W, H, sums=sums) if w_step is None else w_step(W, H)
        H_new = h_step(W, H)
        stable = not stable_h or np.array_equal(
            getattr(H_new, "labels", H_new), getattr(H, "labels", H)
        )
        H = H_new  # free the previous H before the objective runs
        if objective is None:
            sums = X @ H.T
            obj = frobenius_objective(X, W, H, sums=sums, sq_norm=sq_norm)
        else:
            obj = objective(W, H)
        trace.objective_per_iteration.append(obj)
        if on_iteration is not None:
            on_iteration(it, W, H)
        if stable and prev is not None and _converged(prev, obj, opts.tolerance):
            break
        prev = obj
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
        return W, np.maximum(init_h_real(W, X), 0.0)

    W, H = _alternate(X, start, lambda W, H: update_h_dense(X, W, H), opts, trace)
    return NmfModel(basis=W, coefficients=H, trace=trace)
