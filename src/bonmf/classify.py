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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import BinaryAssignment
from .onmf import encode_sample

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


def classify_bonmf(x, model) -> int:
    """Label a sample with exactly k cosine evaluations against the basis."""
    global _similarity_evaluations
    if model.cluster_labels is None:
        raise ValueError("model has no cluster label map; run build_label_map first")
    x = np.asarray(x, dtype=np.float64).ravel()
    _similarity_evaluations += model.basis.shape[1]
    return int(model.cluster_labels[_best_cosine_index(x, model.basis)])


def _coefficient_clusters(model) -> np.ndarray:
    return np.argmax(model.coefficients, axis=0)


def classify_coefficient_argmax(x, model, train: LabeledDataset) -> int:
    """ONMF default scheme: encoded-coefficient argmax picks the cluster,
    the Euclidean-nearest member of that cluster gives the label."""
    x = np.asarray(x, dtype=np.float64).ravel()
    h = encode_sample(x, model.basis)
    cluster = int(np.argmax(h))
    members = np.nonzero(_coefficient_clusters(model) == cluster)[0]
    if members.size == 0:
        members = np.arange(train.n)
    dists = np.linalg.norm(train.data[:, members] - x[:, None], axis=0)
    return int(train.labels[members[np.argmin(dists)]])


def _best_cosine_index(x, columns) -> int:
    """Index of the column with maximal cosine to x; zero columns lose."""
    norms = np.linalg.norm(columns, axis=0)
    xnorm = np.linalg.norm(x)
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
        cluster = _best_cosine_index(x, model.basis)
        members = np.nonzero(_coefficient_clusters(model) == cluster)[0]
        if members.size == 0:
            members = np.arange(train.n)
        best = _best_cosine_index(x, train.data[:, members])
        return int(train.labels[members[best]])
    elif scheme == "nmf":
        h = encode_sample(x, model.basis)
        best = _best_cosine_index(h, model.coefficients)
        return int(train.labels[best])
    raise ValueError(f"unknown scheme {scheme!r}")


def accuracy(predicted, truth) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError("predicted and truth lengths differ")
    return float(np.mean(predicted == truth))
