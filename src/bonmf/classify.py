"""Classification schemes on top of the factorizers, plus accuracy.

Three schemes:
  * basis-angle (binary model): k cosines against the basis columns,
    argmax, then a cluster-to-label map;
  * coefficient-argmax (ONMF default): encode the sample, argmax picks a
    cluster, nearest training member by Euclidean distance gives the label;
  * angle-nearest: either cluster-by-basis-angle then best-cosine member
    (onmf-cos), or compare the encoded coefficient vector against every
    training coefficient column (nmf).
All tie-breaks go to the lowest index.

A sample costs only its own work: what depends only on the model or the
training set (unit basis, Gram, training clusters, column norms) is built
on the first call and kept on that object, and the array it came from is
made read-only (see _derived).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bonmf import _unit_basis
from .matrices import BinaryAssignment
from .onmf import _encode

# instrumentation: number of cosine evaluations issued by classify_bonmf
_similarity_evaluations = 0


def reset_similarity_counter():
    global _similarity_evaluations
    _similarity_evaluations = 0


def similarity_counter() -> int:
    return _similarity_evaluations


@dataclass(frozen=True)
class LabeledDataset:
    data: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.intp)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "labels", labels)
        if labels.size != data.shape[1]:
            raise ValueError(
                f"{labels.size} labels for {data.shape[1]} samples"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= self.class_count):
            raise ValueError(f"labels must lie in [0, {self.class_count})")

    @property
    def n(self) -> int:
        return self.data.shape[1]


def build_label_map(assignments: BinaryAssignment, labels) -> np.ndarray:
    """Majority label per cluster; empty clusters get the global majority."""
    labels = np.asarray(labels, dtype=np.intp)
    if labels.size != assignments.n:
        raise ValueError("assignments and labels must have equal length")
    global_majority = int(np.bincount(labels).argmax())
    out = np.empty(assignments.k, dtype=np.intp)
    for c in range(assignments.k):
        member_labels = labels[assignments.labels == c]
        if member_labels.size == 0:
            out[c] = global_majority
        else:
            out[c] = int(np.bincount(member_labels).argmax())
    return out


def _derived(owner, source, build):
    """build(source), computed on the first call and kept on `owner`, the
    model or training set that holds the array `source`.

    An entry is keyed by `build` and by the identity of `source`, so an
    array assigned in place of `source` gets an entry of its own. Building
    an entry marks `source` read-only: an in-place write after it raises
    instead of leaving the entry stale (a write through another view of
    the same memory is not caught). A source made writeable again is read
    anew.
    """
    memo = vars(owner).setdefault("_derived", {})
    entry = memo.get(build)
    if entry is None or entry[0] is not source or source.flags.writeable:
        source.flags.writeable = False
        entry = memo[build] = (source, build(source))
    return entry[1]


def _gram(W):
    return W.T @ W


def _column_norms(A):
    return np.linalg.norm(A, axis=0)


def _cluster_members(H):
    """Per row of H, the ascending indices of the columns whose argmax it is."""
    clusters = np.argmax(H, axis=0)
    return [np.flatnonzero(clusters == c) for c in range(H.shape[0])]


def _basis_cluster(x, model) -> int:
    """Index of the basis column of maximal cosine to x, scored as
    update_h_cosine scores a one-column X: (Wn^T x) / ||x||, dead columns
    never chosen, a zero x to column 0. Raises ValueError if the norm of
    x is not finite."""
    Wn, dead = _derived(model, model.basis, _unit_basis)
    # the H step's norm expression; np.linalg.norm(x) can differ in the last bit
    xnorm = np.linalg.norm(x[:, None], axis=0)
    # checked before the scores, where an infinity times a zero would warn
    if not math.isfinite(xnorm[0]):
        raise ValueError("sample has NaN or infinite entries, or its norm overflows")
    if xnorm[0] == 0.0:
        return 0
    sims = (Wn.T @ x) / xnorm
    sims[dead] = -np.inf
    return int(sims.argmax())


def classify_bonmf(x, model) -> int:
    """Label a sample with exactly k cosine evaluations against the basis:
    one product with the unit basis, which the first call on the model
    builds (see _derived). A zero sample gets cluster 0's label."""
    global _similarity_evaluations
    if model.cluster_labels is None:
        raise ValueError("model has no cluster label map; run build_label_map first")
    x = np.asarray(x, dtype=np.float64).ravel()
    _similarity_evaluations += model.basis.shape[1]
    return int(model.cluster_labels[_basis_cluster(x, model)])


def _members(model, train: LabeledDataset, cluster: int) -> np.ndarray:
    """Training samples whose largest coefficient is `cluster`, or all of
    them if there are none."""
    members = _derived(model, model.coefficients, _cluster_members)[cluster]
    return members if members.size else np.arange(train.n)


def _encode_sample(x, model) -> np.ndarray:
    """encode_sample(x, model.basis) with the model's Gram kept."""
    W = model.basis
    return _encode(x, W, _derived(model, W, _gram))


def classify_coefficient_argmax(x, model, train: LabeledDataset) -> int:
    """ONMF default scheme: encoded-coefficient argmax picks the cluster,
    the Euclidean-nearest member of that cluster gives the label."""
    x = np.asarray(x, dtype=np.float64).ravel()
    members = _members(model, train, int(np.argmax(_encode_sample(x, model))))
    dists = np.linalg.norm(train.data[:, members] - x[:, None], axis=0)
    return int(train.labels[members[np.argmin(dists)]])


def _best_cosine_index(x, columns, norms) -> int:
    """Index of the column with maximal cosine to x, given the columns'
    norms; zero columns lose. Raises ValueError if the norm of x is not
    finite."""
    xnorm = np.linalg.norm(x)
    # checked before the scores, where an infinity times a zero would warn
    if not math.isfinite(xnorm):
        raise ValueError("sample has NaN or infinite entries, or its norm overflows")
    if xnorm == 0.0:
        return 0
    sims = np.where(norms == 0.0, -np.inf, (columns.T @ x) / np.where(norms == 0, 1, norms))
    return int(np.argmax(sims))


def classify_angle_nearest(x, model, train: LabeledDataset, scheme: str = "onmf-cos") -> int:
    """Angle-based schemes.

    onmf-cos: cluster by cosine to the basis columns, then the member of
    that cluster forming the smallest angle with x gives the label.

    nmf: encode x against the basis and compare the coefficient vector by
    cosine against all n retained training coefficient columns; the best
    match gives the label. The O(nk) training coefficient matrix is kept
    on purpose: its cost is the baseline the k-cosine scheme is measured
    against.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if scheme == "onmf-cos":
        members = _members(model, train, _basis_cluster(x, model))
        norms = _derived(train, train.data, _column_norms)[members]
        best = _best_cosine_index(x, train.data[:, members], norms)
        return int(train.labels[members[best]])
    elif scheme == "nmf":
        C = model.coefficients
        h = _encode_sample(x, model)
        return int(train.labels[_best_cosine_index(h, C, _derived(model, C, _column_norms))])
    raise ValueError(f"unknown scheme {scheme!r}")


def accuracy(predicted, truth) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError("predicted and truth lengths differ")
    return float(np.mean(predicted == truth))
