import numpy as np
import pytest

from bonmf import (
    BinaryAssignment,
    FactorizeOptions,
    LabeledDataset,
    accuracy,
    build_label_map,
    classify_angle_nearest,
    classify_bonmf,
    classify_coefficient_argmax,
    factorize_bonmf,
)
from bonmf.bonmf import BonmfModel
from bonmf.classify import reset_similarity_counter, similarity_counter
from bonmf.nmf import FactorizationTrace, NmfModel


def model_from(W, labels_map):
    k = W.shape[1]
    return BonmfModel(
        basis=np.asarray(W, dtype=float),
        assignments=BinaryAssignment(np.zeros(1, dtype=int), k),
        trace=FactorizationTrace(),
        cluster_labels=list(labels_map),
    )


def test_build_label_map_majority():
    assign = BinaryAssignment([0, 0, 0, 1], k=2)
    labels = np.array([1, 1, 2, 0])
    assert build_label_map(assign, labels).tolist() == [1, 0]


def test_build_label_map_single_member_clusters():
    assign = BinaryAssignment([0, 1, 2], k=3)
    labels = np.array([2, 0, 1])
    assert build_label_map(assign, labels).tolist() == [2, 0, 1]


def test_build_label_map_empty_cluster_global_majority():
    assign = BinaryAssignment([0, 0, 1], k=3)
    labels = np.array([3, 3, 1])
    assert build_label_map(assign, labels)[2] == 3


def test_classify_bonmf_self_column():
    rng = np.random.default_rng(0)
    W = rng.random((5, 4))
    model = model_from(W, [10, 11, 12, 13])
    assert classify_bonmf(W[:, 2], model) == 12


def test_classify_bonmf_hand_cosines():
    model = model_from(np.eye(2), [7, 8])
    assert classify_bonmf([0.9, 0.1], model) == 7


def test_classify_bonmf_scale_invariant():
    rng = np.random.default_rng(1)
    W = rng.random((6, 3))
    model = model_from(W, [0, 1, 2])
    x = rng.random(6)
    assert classify_bonmf(5.0 * x, model) == classify_bonmf(x, model)


def test_classify_bonmf_exactly_k_similarity_evaluations():
    rng = np.random.default_rng(2)
    for k in (1, 3, 6):
        W = rng.random((5, k))
        model = model_from(W, range(k))
        reset_similarity_counter()
        classify_bonmf(rng.random(5), model)
        assert similarity_counter() == k


def test_classify_bonmf_zero_input_goes_to_first_cluster():
    model = model_from(np.eye(3), [4, 5, 6])
    assert classify_bonmf(np.zeros(3), model) == 4


def test_classify_bonmf_orthogonal_sample_skips_dead_first_column():
    # column 0 is dead and x has cosine 0 to both live columns: the first
    # live column wins the tie, never the dead one
    model = model_from(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]), [4, 5, 6])
    assert classify_bonmf(np.array([0.0, 0.0, 2.0]), model) == 5


def test_classify_bonmf_requires_label_map():
    model = model_from(np.eye(2), [0, 1])
    model.cluster_labels = None
    with pytest.raises(ValueError):
        classify_bonmf([1.0, 0.0], model)


def nmf_toy():
    # identity basis: encoding is exact, coefficient argmax = active feature
    W = np.eye(2)
    train_data = np.array([[1.0, 0.9, 0.0, 0.1], [0.0, 0.1, 1.0, 0.9]])
    H = train_data.copy()  # exact coefficients under identity basis
    model = NmfModel(basis=W, coefficients=H, trace=FactorizationTrace())
    train = LabeledDataset(train_data, np.array([0, 0, 1, 1]), 2)
    return model, train


def test_coefficient_argmax_training_sample_maps_to_itself():
    model, train = nmf_toy()
    for j in range(train.n):
        assert classify_coefficient_argmax(train.data[:, j], model, train) == train.labels[j]


def test_coefficient_argmax_nearest_member():
    model, train = nmf_toy()
    # x in cluster 0; nearest member of {col0, col1} by distance is col1
    assert classify_coefficient_argmax(np.array([0.88, 0.12]), model, train) == 0


def test_coefficient_argmax_empty_cluster_falls_back_global():
    W = np.eye(2)
    train_data = np.array([[1.0, 0.8], [0.0, 0.2]])
    H = np.array([[1.0, 0.8], [0.0, 0.2]])  # all argmax to cluster 0
    model = NmfModel(basis=W, coefficients=H, trace=FactorizationTrace())
    train = LabeledDataset(train_data, np.array([3, 1]), 4)
    # encoded x selects cluster 1, which is empty -> global nearest
    assert classify_coefficient_argmax(np.array([0.0, 1.0]), model, train) == 1


def test_angle_nearest_training_sample_and_scale():
    model, train = nmf_toy()
    for scheme in ("onmf-cos", "nmf"):
        for j in range(train.n):
            x = train.data[:, j]
            assert classify_angle_nearest(x, model, train, scheme) == train.labels[j]
            assert classify_angle_nearest(2 * x, model, train, scheme) == train.labels[j]


def test_angle_nearest_hand_cosine_table():
    W = np.eye(2)
    train_data = np.array([[1.0, 0.6, 0.0], [0.0, 0.8, 1.0]])
    model = NmfModel(basis=W, coefficients=train_data.copy(), trace=FactorizationTrace())
    train = LabeledDataset(train_data, np.array([0, 1, 2]), 3)
    # x leans to e0 -> cluster 0 = {col0}; label 0
    assert classify_angle_nearest(np.array([0.95, 0.05]), model, train, "onmf-cos") == 0
    # coefficient cosines: col1 direction matches x best
    assert classify_angle_nearest(np.array([0.6, 0.8]), model, train, "nmf") == 1


def test_angle_nearest_orthogonal_sample_skips_dead_first_columns():
    # x = e2 has cosine 0 to every live column. First stage: basis column 0
    # is dead, so x goes to cluster 1, not 0. Second stage: cluster 1's
    # first member is a zero column, so its second member gives the label.
    W = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    train_data = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
    # training clusters by coefficient argmax: 0, 1, 1, 2
    H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    model = NmfModel(basis=W, coefficients=H, trace=FactorizationTrace())
    train = LabeledDataset(train_data, np.array([0, 1, 2, 3]), 4)
    assert classify_angle_nearest(np.array([0.0, 0.0, 2.0]), model, train, "onmf-cos") == 2


def test_angle_nearest_unknown_scheme():
    model, train = nmf_toy()
    with pytest.raises(ValueError):
        classify_angle_nearest(train.data[:, 0], model, train, "bogus")


def test_accuracy():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([1, 2], [3, 4]) == 0.0
    assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75
    with pytest.raises(ValueError):
        accuracy([1], [1, 2])


def test_perfect_clustering_training_accuracy():
    rng = np.random.default_rng(3)
    labels = np.arange(40) % 2
    X = np.zeros((10, 40))
    for j in range(40):
        lo = labels[j] * 5
        X[lo : lo + 5, j] = rng.uniform(0.5, 1.5, 5)
    model = factorize_bonmf(X, 2, FactorizeOptions(seed=4))
    model.cluster_labels = build_label_map(model.assignments, labels)
    preds = [classify_bonmf(X[:, j], model) for j in range(40)]
    assert accuracy(preds, labels) == 1.0


NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])


@NON_FINITE
def test_classify_bonmf_rejects_non_finite_sample(bad):
    # cluster 0 is dead, so its score is the one the check reads
    model = model_from(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), [4, 5, 6])
    for x in ([bad, 1.0], [1.0, bad], [bad, bad]):
        with pytest.raises(ValueError, match="NaN or infinite"):
            classify_bonmf(x, model)


@NON_FINITE
def test_coefficient_argmax_rejects_non_finite_sample(bad):
    model, train = nmf_toy()
    with pytest.raises(ValueError, match="NaN or infinite"):
        classify_coefficient_argmax([1.0, bad], model, train)


@NON_FINITE
@pytest.mark.parametrize("scheme", ["nmf", "onmf-cos"])
def test_angle_nearest_rejects_non_finite_sample(bad, scheme):
    model, train = nmf_toy()
    with pytest.raises(ValueError, match="NaN or infinite"):
        classify_angle_nearest([bad, 1.0], model, train, scheme)
