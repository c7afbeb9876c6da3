"""Binary orthogonal NMF: alternating least-squares W step and
cosine-argmax binary H update.

The coefficient matrix is never materialized: each sample column gets the
index of the basis column it forms the smallest angle with, and the
one-hot structure (single 1 per column, orthogonal rows) holds by
construction. The cosine H step walks X in blocks of H_UPDATE_BLOCK_COLS
columns and, besides the labels, adds up each cluster's column sum S_c and
squared norm (the concept vectors of spherical k-means). For a fixed
one-hot H the least-squares W is the mean of each cluster, S_c / n_c, and
the objective follows from the same sums, so both run in O(mk), and no
step allocates an m x n intermediate. With that W step bonmf is spherical
k-means on the raw columns (Dhillon and Modha 2001): J = sum_c ||S_c||
never falls.

The H step also records each sample's cosine lead over the runner-up. In
the next iteration a sample whose lead exceeds the drift of the basis
keeps its label unscored, as in the bounds of accelerated k-means
(Hamerly 2010; Schubert, Lang and Feher 2021); only the others are
rescored and moved between the cluster sums. Once the labels settle, an
iteration costs O(n + mk) and reads no column of X. The column norms of X
are computed once per factorization and shared by every step, the
initialization included.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from .init import init_h_real, init_w
from .matrices import (
    EXPANSION_FLOOR,
    H_UPDATE_BLOCK_COLS,
    BinaryAssignment,
    DegenerateModelError,
    _add_cluster_sums,
    as_data_matrix,
    cluster_sums,
    column_norms,
)
from .nmf import FactorizationTrace, FactorizeOptions, _alternate

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


@dataclass(frozen=True, eq=False, kw_only=True)
class CosineAssignment(BinaryAssignment):
    """What the cosine H step returns: an assignment with its statistics
    and what the next call needs to rescore only the samples whose label
    can change. `margins` (n) bounds each sample's cosine lead over the
    runner-up from below, `unit_basis` (m x k) is the normalized basis it
    scored against and `rescored` is how many samples it scored."""

    margins: np.ndarray = field(repr=False)
    unit_basis: np.ndarray = field(repr=False)
    rescored: int

    def __post_init__(self):
        super().__post_init__()
        if (
            self.sums is None
            or np.shape(self.margins) != (self.n,)
            or np.shape(self.unit_basis) != np.shape(self.sums)
        ):
            raise ValueError(
                f"margins need statistics, {self.n} entries and an m x {self.k} unit basis, "
                f"got {np.shape(self.margins)} and {np.shape(self.unit_basis)}"
            )


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
        """Inverse of save. Raises ValueError naming the field unless m and k
        are positive integers, the assignments integers in [0, k), the
        cluster labels (if any) k non-negative integers and the basis m x k
        finite, non-negative and not all zero."""
        with open(path) as fh:
            payload = json.load(fh)
        m, k = payload["m"], payload["k"]
        for name, value in (("m", m), ("k", k)):
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        raw = base64.b64decode(payload["basis_b64"])
        if len(raw) != 8 * m * k:
            raise ValueError(
                f"basis_b64 holds {len(raw)} bytes, expected 8*m*k = {8 * m * k}"
            )
        basis = np.frombuffer(raw, dtype=np.float64).reshape(m, k).copy()
        if not np.isfinite(basis).all() or (basis < 0).any():
            raise ValueError("basis_b64 holds NaN, infinite or negative entries")
        if not basis.any():
            raise ValueError("basis_b64 holds an all-zero basis")
        assignments = payload["assignments"]
        if not isinstance(assignments, list) or not all(
            _is_int(c) and 0 <= c < k for c in assignments
        ):
            raise ValueError(f"assignments must be a list of integers in [0, {k})")
        cluster_labels = payload["cluster_labels"]
        if cluster_labels is not None:
            if not isinstance(cluster_labels, list) or len(cluster_labels) != k:
                raise ValueError(f"cluster_labels must be a list of k = {k} entries")
            if not all(_is_int(c) and c >= 0 for c in cluster_labels):
                raise ValueError("cluster_labels must be non-negative integers")
        return cls(
            basis=basis,
            assignments=BinaryAssignment(np.array(assignments, dtype=np.intp), k),
            trace=FactorizationTrace(),
            cluster_labels=cluster_labels,
        )


def _is_int(value) -> bool:
    """A JSON integer: an int, and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def update_h_cosine(X, W, *, norms=None, previous=None) -> CosineAssignment:
    """Assign every sample column to the basis column of maximal cosine.

    Zero-norm sample columns go to cluster 0. Zero-norm basis columns are
    never chosen; if all basis columns are zero the model is degenerate.

    The same blocked pass records the cluster statistics of X on the
    returned CosineAssignment, with each sample's cosine lead over the
    runner-up and the unit basis scored against. `norms` may hold
    column_norms(X) computed earlier; the result is the same without it,
    the norms are then computed block by block.

    A CosineAssignment from an earlier call on the same X as `previous`
    (it requires `norms`) makes the call incremental; any other
    BinaryAssignment only has its shape checked. For unit vectors
    |cos(x, a) - cos(x, b)| <= ||a - b||, so with the drift
    d_c = ||unit w_c - previous unit w_c|| a sample keeps its label unscored
    while lead - d[label] - max(d) > MARGIN_SLACK, and that difference
    becomes its recorded lead. Only the other samples are rescored (with
    the rest of their block if it is at least half stale) and moved between
    the cluster sums; the labels are those of a fresh call. After the moves
    the sums of a cluster left with no nonzero member (an emptied one
    included) are set back to exactly zero, and a sum that rounding took
    below zero is set to zero.
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
        if isinstance(previous, CosineAssignment) and previous.unit_basis.shape != (m, k):
            raise ValueError(
                f"previous unit basis has shape {previous.unit_basis.shape}, "
                f"expected {(m, k)}"
            )

    wnorm = np.linalg.norm(W, axis=0)
    dead = wnorm == 0.0
    if dead.all():
        raise DegenerateModelError("all basis columns have zero norm")
    Wn = np.where(dead, 0.0, W / np.where(dead, 1.0, wnorm))

    fresh = not isinstance(previous, CosineAssignment)
    if fresh:
        labels = np.zeros(n, dtype=np.intp)
        margins = np.empty(n)
        sums, sq_norms = np.zeros((m, k)), np.zeros(k)
        stale = np.ones(n, dtype=bool)
    else:
        # a column that dies or comes back drifts by 1, which puts every
        # sample with a finite lead up for rescoring
        drift = np.linalg.norm(Wn - previous.unit_basis, axis=0)
        margins = previous.margins - drift[previous.labels] - drift.max()
        stale = margins <= MARGIN_SLACK
        labels = previous.labels.copy()
        sums, sq_norms = previous.sums.copy(), previous.sq_norms.copy()

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
            _add_cluster_sums(sums, sq_norms, chunk, lab, xnorm, old)
        labels[cols] = lab
        margins[cols] = lead
        rescored += lab.size
    if rescored and not fresh:
        # moves leave rounding residue in the sums of a cluster they left
        # with zero columns only, or empty; its mean, the W step's basis
        # column, must be exactly zero, or it would score as a live column
        hollow = np.bincount(labels[norms > 0.0], minlength=k) == 0
        sums[:, hollow] = 0.0
        sq_norms[hollow] = 0.0
        # a sum whose members are tiny can round below zero, which the W
        # step would turn into a negative basis entry
        np.maximum(sums, 0.0, out=sums)
        np.maximum(sq_norms, 0.0, out=sq_norms)
    return CosineAssignment(labels, k, sums, sq_norms, margins=margins, unit_basis=Wn,
                            rescored=rescored)


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


def init_h(W, X, *, norms=None) -> BinaryAssignment:
    """Binarized least-squares start for H: each sample goes to its largest
    coefficient in the minimum-norm solution init_h_real(W, X), the lowest
    index on exact ties. Defined for every W, rank deficient ones included.

    The assignment carries its cluster statistics (see BinaryAssignment);
    `norms` may hold column_norms(X) computed earlier.
    """
    labels = np.argmax(init_h_real(W, X), axis=0)
    k = np.shape(W)[1]
    return BinaryAssignment(labels, k, *cluster_sums(X, labels, k, norms))


def _cluster_means(H) -> np.ndarray:
    """The least-squares W for the one-hot H: each cluster's mean S_c / n_c,
    0 for an empty cluster (whose sums are 0)."""
    return H.sums / np.maximum(H.cluster_sizes(), 1)


def _objective(X, W, H) -> float:
    """0.5 * ||X - W H||_F^2 for the one-hot H, in O(mk) from its sums S and
    per-cluster squared norms q:
        0.5 * (sum(q) - 2 <S, W> + sum_c n_c ||w_c||^2).
    Near an exact fit the expansion cancels, so below
    EXPANSION_FLOOR * sum(q) the residual is summed directly, block by block.
    """
    total = float(H.sq_norms.sum())
    value = (
        total
        - 2.0 * float(np.vdot(H.sums, W))
        + float(H.cluster_sizes() @ np.einsum("ij,ij->j", W, W))
    )
    if value >= EXPANSION_FLOOR * total:
        return 0.5 * value
    value = 0.0
    for start in range(0, H.n, H_UPDATE_BLOCK_COLS):
        stop = start + H_UPDATE_BLOCK_COLS
        R = X[:, start:stop] - W[:, H.labels[start:stop]]
        value += float(np.sum(R * R))
    return 0.5 * value


def factorize_bonmf(
    X, k: int, opts: FactorizeOptions | None = None, on_iteration=None
) -> BonmfModel:
    """Alternating binary orthogonal factorization of X.

    W starts from init_w's greedy spherical k-means++ seeds, drawn with
    opts.seed as every factorizer in this package draws its own, and H
    from init_h. Each iteration sets W to the cluster means, the
    least-squares W for the current one-hot H, and then reassigns every
    sample by cosine argmax.
    Stops at max_iterations, or when assignments are unchanged between
    consecutive iterations and the relative objective change is below
    tolerance. `on_iteration(iteration, W, assignments)` is invoked after
    every iteration when given.
    """
    opts = opts or FactorizeOptions()
    X = as_data_matrix(X)
    if k < 1:
        raise ValueError("k must be >= 1")

    norms = column_norms(X)
    trace = FactorizationTrace()

    def start():
        W = init_w(X, k, opts.seed, norms=norms)
        return W, init_h(W, X, norms=norms)

    def cosine_step(W, H):
        assign = update_h_cosine(X, W, norms=norms, previous=H)
        trace.rescored_per_iteration.append(assign.rescored)
        return assign

    W, assign = _alternate(
        X, start, cosine_step, opts, trace, on_iteration, stable_h=True,
        w_step=lambda W, H: _cluster_means(H), objective=lambda W, H: _objective(X, W, H),
    )
    # the model keeps the labels only, not the statistics and bounds
    return BonmfModel(basis=W, assignments=BinaryAssignment(assign.labels, k), trace=trace)
