"""Binary orthogonal NMF: alternating multiplicative W update and
cosine-argmax binary H update.

The coefficient matrix is never materialized: each sample column gets the
index of the basis column it forms the smallest angle with, and the
one-hot structure (single 1 per column, orthogonal rows) holds by
construction. Columns are processed in fixed-size blocks so intermediate
similarity buffers stay O(k), independent of n.
"""

from __future__ import annotations

import base64
import json
import time
from dataclasses import dataclass

import numpy as np

from .init import SingularInitError, init_h_real, init_w
from .matrices import BinaryAssignment, DegenerateModelError, as_data_matrix
from .nmf import FactorizationTrace, FactorizeOptions, _alternate

# Columns per similarity block in the fused H update. Intermediate storage
# is k * H_UPDATE_BLOCK_COLS floats regardless of n.
H_UPDATE_BLOCK_COLS = 256


@dataclass
class BonmfModel:
    basis: np.ndarray
    assignments: BinaryAssignment
    trace: FactorizationTrace
    cluster_labels: list | None = None

    def save(self, path):
        """Lossless JSON dump; W round-trips bit-exact via raw float64 bytes."""
        m, k = self.basis.shape
        payload = {
            "m": m,
            "k": k,
            "basis_b64": base64.b64encode(
                np.ascontiguousarray(self.basis).tobytes()
            ).decode("ascii"),
            "assignments": self.assignments.labels.tolist(),
            "cluster_labels": None
            if self.cluster_labels is None
            else [int(c) for c in self.cluster_labels],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path) -> "BonmfModel":
        with open(path) as fh:
            payload = json.load(fh)
        m, k = payload["m"], payload["k"]
        raw = base64.b64decode(payload["basis_b64"])
        if len(raw) != 8 * m * k:
            raise ValueError(
                f"basis_b64 holds {len(raw)} bytes, expected 8*m*k = {8 * m * k}"
            )
        cluster_labels = payload["cluster_labels"]
        if cluster_labels is not None and len(cluster_labels) != k:
            raise ValueError(
                f"cluster_labels has {len(cluster_labels)} entries, expected k = {k}"
            )
        return cls(
            basis=np.frombuffer(raw, dtype=np.float64).reshape(m, k).copy(),
            assignments=BinaryAssignment(np.array(payload["assignments"]), k),
            trace=FactorizationTrace(),
            cluster_labels=cluster_labels,
        )


def binarize_columns(H) -> BinaryAssignment:
    """Collapse each column of a real coefficient matrix to its argmax index.

    Ties break to the lowest cluster index.
    """
    H = np.asarray(H, dtype=np.float64)
    return BinaryAssignment(np.argmax(H, axis=0), H.shape[0])


def update_h_cosine(X, W, diagnostics: list | None = None) -> BinaryAssignment:
    """Assign every sample column to the basis column of maximal cosine.

    Zero-norm sample columns go to cluster 0 and are flagged in
    `diagnostics` if given. Zero-norm basis columns are never chosen; if
    all basis columns are zero the model is degenerate.
    """
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    m, n = X.shape
    if W.shape[0] != m:
        raise ValueError(f"W has {W.shape[0]} rows, expected {m}")
    k = W.shape[1]

    wnorm = np.linalg.norm(W, axis=0)
    dead = wnorm == 0.0
    if dead.all():
        raise DegenerateModelError("all basis columns have zero norm")
    Wn = np.where(dead, 0.0, W / np.where(dead, 1.0, wnorm))

    labels = np.empty(n, dtype=np.intp)
    for start in range(0, n, H_UPDATE_BLOCK_COLS):
        stop = min(start + H_UPDATE_BLOCK_COLS, n)
        block = X[:, start:stop]
        xnorm = np.linalg.norm(block, axis=0)
        zero_cols = xnorm == 0.0
        sims = (Wn.T @ block) / np.where(zero_cols, 1.0, xnorm)
        sims[dead, :] = -np.inf
        labels[start:stop] = np.argmax(sims, axis=0)
        if zero_cols.any():
            idx = np.nonzero(zero_cols)[0] + start
            labels[idx] = 0
            if diagnostics is not None:
                diagnostics.extend(f"zero_norm_sample_column:{i}" for i in idx)
    return BinaryAssignment(labels, k)


def init_h(W, X, diagnostics: list | None = None) -> BinaryAssignment:
    """Binarized least-squares start for H; cosine fallback if W^T W is singular."""
    try:
        return binarize_columns(init_h_real(W, X))
    except SingularInitError:
        if diagnostics is not None:
            diagnostics.append("init_h_fallback_cosine")
        return update_h_cosine(X, W, diagnostics)


def factorize_bonmf(
    X,
    k: int,
    opts: FactorizeOptions | None = None,
    on_iteration=None,
    restarts: int = 16,
) -> BonmfModel:
    """Alternating binary orthogonal factorization of X.

    Each iteration applies the multiplicative W update (with the diagonal
    H H^T shortcut) and then reassigns every sample by cosine argmax.
    Stops at max_iterations, or when assignments are unchanged between
    consecutive iterations and the relative objective change is below
    tolerance.

    The alternation is a hard-assignment descent and regularly lands in
    poor local optima (merged clusters) from the randomized averaging
    init, so the whole init-plus-loop is run `restarts` times with seeds
    derived from opts.seed and the factorization with the lowest final
    objective is returned. `on_iteration(iteration, W, assignments)` is
    invoked after every iteration of every restart when given.
    """
    opts = opts or FactorizeOptions()
    X = as_data_matrix(X)
    if k < 1:
        raise ValueError("k must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    t0 = time.perf_counter()
    seeds = np.random.SeedSequence(opts.seed).generate_state(restarts)
    best = None
    for restart, seed in enumerate(seeds):
        model = _factorize_once(X, k, opts, int(seed), on_iteration)
        obj = model.trace.objective_per_iteration[-1]
        if best is None or obj < best[0]:
            best = (obj, restart, model)
    _, winner, model = best
    model.trace.notes.append(f"restarts:{restarts};selected:{winner}")
    model.trace.wall_time_train = time.perf_counter() - t0
    return model


def _factorize_once(X, k, opts, seed, on_iteration) -> BonmfModel:
    trace = FactorizationTrace()

    def start():
        W = init_w(X, k, seed)
        return W, init_h(W, X, trace.notes)

    def cosine_step(W, _):
        # X is fixed, so the first cosine assignment (init_h's fallback or
        # the first H step) has already noted every zero-norm column
        noted = any(note.startswith("zero_norm_sample_column:") for note in trace.notes)
        return update_h_cosine(X, W, None if noted else trace.notes)

    W, assign = _alternate(X, start, cosine_step, opts, trace, on_iteration, stable_h=True)
    return BonmfModel(basis=W, assignments=assign, trace=trace)
