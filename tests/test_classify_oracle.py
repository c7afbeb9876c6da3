"""The per-sample classifiers, which keep each model's scoring state
between calls, checked against references that recompute everything on
every call (nmf, onmf, onmf-cos) and against the cosine H step itself
(bonmf, zhang)."""

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bonmf import (
    BinaryAssignment,
    FactorizeOptions,
    LabeledDataset,
    classify_angle_nearest,
    classify_bonmf,
    classify_coefficient_argmax,
    update_h_cosine,
)
from bonmf.bench import _train_zhang
from bonmf.bonmf import BonmfModel
from bonmf.matrices import DegenerateModelError
from bonmf.nmf import FactorizationTrace, NmfModel

import reference

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def classifier_problems(draw):
    """(W, H, train, samples): a basis with at least one live column, dead
    and duplicated columns optional; coefficients whose argmax may leave
    clusters empty; a training set and samples, C or F ordered, with zero
    columns and exact copies of basis and training columns among them.
    k goes up to 12 on 1 to 8 features, so k > m occurs, or on up to 400
    features, where numpy and the BLAS sum in blocks."""
    m = draw(st.one_of(st.integers(1, 8), st.integers(9, 400)))
    k = draw(st.integers(1, 12))
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.random((m, k)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    W[rng.random((m, k)) < draw(st.sampled_from([0.0, 0.4]))] = 0.0
    if k > 1 and draw(st.booleans()):
        W[:, rng.integers(0, k)] = 0.0
    if k > 1 and draw(st.booleans()):
        # a copy, or a power-of-two multiple, ties exactly with its source
        W[:, rng.integers(1, k)] = W[:, 0] * draw(st.sampled_from([1.0, 2.0]))
    if not W.any():
        W[rng.integers(0, m), rng.integers(0, k)] = 1.0
    H = rng.random((k, n))
    if draw(st.booleans()):
        H[rng.integers(0, k)] = 0.0  # a cluster no training sample joins
    T = W[:, rng.integers(0, k, n)] + draw(st.sampled_from([0.05, 1.0])) * rng.random((m, n))
    T[rng.random((m, n)) < draw(st.sampled_from([0.0, 0.4]))] = 0.0
    T[:, rng.random(n) < 0.1] = 0.0
    if n > 1 and draw(st.booleans()):
        T[:, rng.integers(1, n)] = T[:, 0]
    S = np.concatenate(
        [np.zeros((m, 1)), W, T[:, :3], rng.random((m, 4)), W[:, :1] + T[:, :1]], axis=1
    )
    order = draw(st.sampled_from("CF"))
    T, S = np.asarray(T, order=order), np.asarray(S, order=order)
    classes = draw(st.integers(1, 4))
    train = LabeledDataset(T, rng.integers(0, classes, n), classes)
    event(f"{order}-ordered data")
    for happened, name in (
        (not np.linalg.norm(W, axis=0).all(), "dead basis column"),
        (len({W[:, c].tobytes() for c in range(k)}) < k, "duplicated basis column"),
        (len({T[:, j].tobytes() for j in range(n)}) < n, "duplicated training column"),
        (np.unique(np.argmax(H, axis=0)).size < k, "empty training cluster"),
        (k > m, "k > m"),
    ):
        if happened:
            event(name)
    return W, H, train, [S[:, j] for j in range(S.shape[1])]


def near_tie(x, columns, a, b) -> bool:
    """Columns a and b form the same angle with x up to rounding."""
    cos_a, cos_b = (reference.cosine_similarity(x, columns[:, j]) for j in (a, b))
    return abs(cos_a - cos_b) <= 1e-12


def onmf_cos_near_tie(x, model, train, cluster) -> bool:
    """onmf-cos may label x otherwise than the reference only through a
    near tie: between basis columns, or, in `cluster` (the cosine H
    step's), between the member the reference picks and the one picked
    with the training set's column norms, computed once."""
    W = model.basis
    old = reference.best_cosine_index(x, W)
    if old != cluster:
        event("onmf-cos cluster differs from the reference")
        return near_tie(x, W, old, cluster)
    event("onmf-cos member differs from the reference")
    members = reference.members_of(model, train, cluster)
    columns = train.data[:, members]
    norms = np.linalg.norm(train.data, axis=0)[members]
    sims = np.where(norms == 0.0, -np.inf, (columns.T @ x) / np.where(norms == 0, 1, norms))
    return near_tie(x, columns, reference.best_cosine_index(x, columns), int(np.argmax(sims)))


@PROPERTY
@given(classifier_problems(), st.integers(0, 2**16))
def test_per_sample_classifiers_match_the_references(problem, seed):
    """nmf and onmf: labels identical to the references. bonmf and zhang:
    the cluster of the cosine H step on the one sample. onmf-cos: the
    reference's label, or a near tie (see onmf_cos_near_tie). Where the
    per-call-norm arithmetic of the references picks another cluster, the
    two tie up to rounding."""
    W, H, train, samples = problem
    k = W.shape[1]
    model = NmfModel(basis=W, coefficients=H, trace=FactorizationTrace())
    binary = BonmfModel(
        basis=W,
        assignments=BinaryAssignment(np.zeros(1, dtype=np.intp), k),
        trace=FactorizationTrace(),
        cluster_labels=list(np.random.default_rng(seed).permutation(k)),
    )
    binary_models = [binary]
    try:
        binary_models.append(_train_zhang(train, k, FactorizeOptions(max_iterations=3, seed=seed)))
    except DegenerateModelError:
        event("zhang basis degenerate")
    for x in samples:
        assert classify_coefficient_argmax(x, model, train) == (
            reference.classify_coefficient_argmax(x, model, train)
        )
        assert classify_angle_nearest(x, model, train, "nmf") == (
            reference.classify_angle_nearest(x, model, train, "nmf")
        )
        # the classifiers score a contiguous copy of a strided sample; the
        # BLAS product with a strided vector can differ in the last bit
        held = np.ravel(x)
        cluster = update_h_cosine(held[:, None], W).labels[0]
        label = classify_angle_nearest(x, model, train, "onmf-cos")
        if label != reference.classify_angle_nearest(x, model, train, "onmf-cos"):
            event("onmf-cos label differs from the reference")
            assert onmf_cos_near_tie(held, model, train, cluster)
        for bmodel in binary_models:
            cluster = update_h_cosine(held[:, None], bmodel.basis).labels[0]
            assert classify_bonmf(x, bmodel) == bmodel.cluster_labels[cluster]
            old = reference.best_cosine_index(x, bmodel.basis)
            if old != cluster:
                event("cluster differs from the per-call-norm reference")
                assert near_tie(x, bmodel.basis, old, cluster)
