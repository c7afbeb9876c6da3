"""Binary orthogonal NMF: alternating multiplicative W update and
cosine-argmax binary H update.

The coefficient matrix is never materialized: each sample column gets the
index of the basis column it forms the smallest angle with, and the
one-hot structure (single 1 per column, orthogonal rows) holds by
construction. The cosine H step walks X in blocks of H_UPDATE_BLOCK_COLS
columns and, besides the labels, adds up each cluster's column sum and
squared norm (the concept vectors of spherical k-means). The next W update
and the objective need only those, so they run in O(mk), and no step
allocates an m x n intermediate.

The H step also records each sample's cosine lead over the runner-up. In
the next iteration a sample whose lead exceeds the drift of the basis
keeps its label unscored, as in the bounds of accelerated k-means
(Hamerly 2010; Schubert, Lang and Feher 2021); only the others are
rescored and moved between the cluster sums. Once the labels settle, an
iteration costs O(n + mk) and reads no column of X. The column norms of X
are computed once per factorization and shared by every restart, its
initialization included.
"""

from __future__ import annotations

import base64
import json
import time
from dataclasses import dataclass

import numpy as np

from .init import SingularInitError, init_h_real, init_w
from .matrices import (
    H_UPDATE_BLOCK_COLS,
    BinaryAssignment,
    DegenerateModelError,
    _add_cluster_sums,
    as_data_matrix,
    cluster_sums,
    column_norms,
)
from .nmf import FactorizationTrace, FactorizeOptions, _alternate

# Restarts whose final objectives lie within this relative distance of the
# lowest one fit equally well; the earliest of them is selected, so the
# choice does not follow the rounding of the objective's summation order.
RESTART_TIE_RTOL = 1e-12

# A sample keeps its label unscored while its cosine lead, less the drift of
# the basis, exceeds this. Each cosine is rounded by about (m + 2) * 2**-53
# (the m-term dot product and the two divisions), so 1e-9 is safe up to
# m ~ 1e6 features.
MARGIN_SLACK = 1e-9

# Stale samples of partly stale blocks are gathered in chunks of at most this
# many columns. A block with at least half its samples stale is rescored whole
# as a view instead: on C-ordered X a gathered column reads one cache line per
# row, and gathering half a block costs about as much as the whole block.
GATHER_COLS = 64


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


def update_h_cosine(
    X, W, diagnostics: list | None = None, *, norms=None, previous=None
) -> BinaryAssignment:
    """Assign every sample column to the basis column of maximal cosine.

    Zero-norm sample columns go to cluster 0 and are flagged in
    `diagnostics` if given. Zero-norm basis columns are never chosen; if
    all basis columns are zero the model is degenerate.

    The same blocked pass records the cluster statistics of X on the
    returned assignment (see BinaryAssignment), with each sample's cosine
    lead over the runner-up and the unit basis scored against. `norms` may
    hold column_norms(X) computed earlier; the result is the same without
    it, the norms are then computed block by block.

    `previous`, the result of an earlier call on the same X (it requires
    `norms`), makes the call incremental. For unit vectors
    |cos(x, a) - cos(x, b)| <= ||a - b||, so with the drift
    d_c = ||unit w_c - previous unit w_c|| a sample keeps its label unscored
    while lead - d[label] - max(d) > MARGIN_SLACK, and that difference
    becomes its recorded lead. Only the other samples are rescored (with
    the rest of their block if it is at least half stale) and moved between
    the cluster sums; the labels are those of a fresh call. After the moves
    a sum whose cluster members are all zero in that feature is set back to
    exactly zero, as a fresh call computes it, and a sum that rounding took
    below zero is set to zero. A `previous` without margins is ignored.
    """
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    m, n = X.shape
    if W.shape[0] != m:
        raise ValueError(f"W has {W.shape[0]} rows, expected {m}")
    if norms is not None and np.shape(norms) != (n,):
        raise ValueError(f"norms has shape {np.shape(norms)}, expected ({n},)")
    k = W.shape[1]
    if previous is not None:
        if norms is None:
            raise ValueError("previous requires norms")
        if (previous.n, previous.k) != (n, k):
            raise ValueError(
                f"previous assigns {previous.n} samples to {previous.k} clusters, "
                f"expected {n} to {k}"
            )
        if previous.margins is not None and previous.unit_basis.shape != (m, k):
            raise ValueError(
                f"previous unit basis has shape {previous.unit_basis.shape}, "
                f"expected {(m, k)}"
            )

    wnorm = np.linalg.norm(W, axis=0)
    dead = wnorm == 0.0
    if dead.all():
        raise DegenerateModelError("all basis columns have zero norm")
    Wn = np.where(dead, 0.0, W / np.where(dead, 1.0, wnorm))

    fresh = previous is None or previous.margins is None
    if fresh:
        labels = np.zeros(n, dtype=np.intp)
        margins = np.empty(n)
        sums, sq_norms, zero_counts = np.zeros((m, k)), np.zeros(k), None
        stale = np.ones(n, dtype=bool)
    else:
        # a column that dies or comes back drifts by 1, which puts every
        # sample with a finite lead up for rescoring
        drift = np.linalg.norm(Wn - previous.unit_basis, axis=0)
        margins = previous.margins - drift[previous.labels] - drift.max()
        stale = margins <= MARGIN_SLACK
        labels = previous.labels.copy()
        sums, sq_norms = previous.sums.copy(), previous.sq_norms.copy()
        zero_counts = None if previous.zero_counts is None else previous.zero_counts.copy()

    rescored = 0
    for cols, chunk in _stale_chunks(X, stale):
        xnorm = column_norms(chunk) if norms is None else norms[cols]
        zero_cols = xnorm == 0.0
        sims = (Wn.T @ chunk) / np.where(zero_cols, 1.0, xnorm)
        sims[dead, :] = -np.inf
        lab = np.argmax(sims, axis=0)
        lab[zero_cols] = 0
        # the lead counts a dead column as cosine 0, the score of its zero
        # unit vector, so that the drift bound covers a column coming back
        rows = np.arange(lab.size)
        best = sims[lab, rows]
        sims[lab, rows] = -np.inf
        sims[dead, :] = 0.0
        lead = best - sims.max(axis=0)
        lead[zero_cols] = np.inf
        old = None if fresh else labels[cols]
        if old is None or (old != lab).any():
            onehot = _add_cluster_sums(sums, sq_norms, chunk, lab, xnorm, old)
            if not chunk.all():
                if zero_counts is None:
                    zero_counts = np.zeros((m, k))
                # a bool @ float product does not reach BLAS: about 5x slower
                zero_counts += (chunk == 0.0).astype(np.float64) @ onehot
        labels[cols] = lab
        margins[cols] = lead
        rescored += lab.size
        if diagnostics is not None and zero_cols.any():
            diagnostics.extend(
                f"zero_norm_sample_column:{i}" for i in np.arange(n)[cols][zero_cols]
            )
    if rescored and not fresh:
        # moves leave rounding residue where every member of a cluster has a
        # zero entry (an emptied cluster included); those sums must be
        # exactly zero, as the W step locks a basis entry at zero only then
        zeros = 0 if zero_counts is None else zero_counts
        exact = np.broadcast_to(zeros == np.bincount(labels, minlength=k), sums.shape)
        sums[exact] = 0.0
        sq_norms[exact.all(axis=0)] = 0.0
        # a sum whose members are tiny but not zero can round below zero,
        # which the W step would turn into a negative basis entry
        np.maximum(sums, 0.0, out=sums)
        np.maximum(sq_norms, 0.0, out=sq_norms)
    return BinaryAssignment(labels, k, sums, sq_norms, margins, Wn, zero_counts, rescored)


def _stale_chunks(X, stale):
    """(columns, X[:, columns]) covering the samples flagged in `stale`:
    blocks of H_UPDATE_BLOCK_COLS at least half stale as views, the stale
    samples of the others gathered lazily in chunks of at most GATHER_COLS
    columns."""
    n = X.shape[1]
    partial = []
    for start in range(0, n, H_UPDATE_BLOCK_COLS):
        cols = slice(start, min(start + H_UPDATE_BLOCK_COLS, n))
        count = np.count_nonzero(stale[cols])
        if 2 * count >= cols.stop - start:
            yield cols, X[:, cols]
        elif count:
            partial.append(np.flatnonzero(stale[cols]) + start)
    if partial:
        partial = np.concatenate(partial)
        for start in range(0, partial.size, GATHER_COLS):
            cols = partial[start : start + GATHER_COLS]
            yield cols, X[:, cols]


def init_h(W, X, diagnostics: list | None = None, *, norms=None) -> BinaryAssignment:
    """Binarized least-squares start for H; cosine fallback if W^T W is singular.

    The assignment carries its cluster statistics (see BinaryAssignment);
    `norms` may hold column_norms(X) computed earlier.
    """
    try:
        labels = np.argmax(init_h_real(W, X), axis=0)
    except SingularInitError:
        if diagnostics is not None:
            diagnostics.append("init_h_fallback_cosine")
        return update_h_cosine(X, W, diagnostics, norms=norms)
    k = np.shape(W)[1]
    return BinaryAssignment(labels, k, *cluster_sums(X, labels, k, norms))


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
    derived from opts.seed. The earliest restart whose final objective is
    within RESTART_TIE_RTOL (relative) of the lowest one is returned.
    `on_iteration(iteration, W, assignments)` is invoked after every
    iteration of every restart when given.
    """
    opts = opts or FactorizeOptions()
    X = as_data_matrix(X)
    if k < 1:
        raise ValueError("k must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    t0 = time.perf_counter()
    seeds = np.random.SeedSequence(opts.seed).generate_state(restarts)
    norms = column_norms(X)
    # (objective, restart, model) with strictly falling objectives, all
    # within the tie tolerance of the lowest; a restart no better than the
    # last entry can never be the earliest tie, so it is dropped at once.
    kept = []
    for restart, seed in enumerate(seeds):
        model = _factorize_once(X, k, opts, int(seed), on_iteration, norms)
        obj = model.trace.objective_per_iteration[-1]
        if kept and obj >= kept[-1][0]:
            continue
        kept = [c for c in kept if c[0] <= obj * (1.0 + RESTART_TIE_RTOL)]
        kept.append((obj, restart, model))
    _, winner, model = kept[0]
    model.trace.notes.append(f"restarts:{restarts};selected:{winner}")
    model.trace.wall_time_train = time.perf_counter() - t0
    return model


def _factorize_once(X, k, opts, seed, on_iteration, norms) -> BonmfModel:
    trace = FactorizationTrace()

    def start():
        W = init_w(X, k, seed, norms=norms)
        return W, init_h(W, X, trace.notes, norms=norms)

    def cosine_step(W, H):
        # X is fixed, so only the first cosine assignment (init_h's fallback
        # or the first H step) notes the zero-norm columns; only
        # update_h_cosine records `rescored`
        notes = trace.notes if H.rescored is None else None
        assign = update_h_cosine(X, W, notes, norms=norms, previous=H)
        trace.rescored_per_iteration.append(assign.rescored)
        return assign

    W, assign = _alternate(X, start, cosine_step, opts, trace, on_iteration, stable_h=True)
    # the model keeps the labels only, not the statistics and bounds
    return BonmfModel(basis=W, assignments=BinaryAssignment(assign.labels, k), trace=trace)
