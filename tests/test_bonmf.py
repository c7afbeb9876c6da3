import json

import numpy as np
import pytest

from bonmf import (
    DegenerateModelError,
    FactorizeOptions,
    cosine_similarity,
    factorize_bonmf,
    init_h,
    update_h_cosine,
)
from bonmf.bonmf import BonmfModel, binarize_columns


def brute_force_assignments(X, W):
    """Independent oracle: all k*n cosines via explicit loops, argmax with
    lowest-index tie-break, zero X columns to cluster 0, zero W columns
    never win."""
    m, n = X.shape
    k = W.shape[1]
    labels = []
    for i in range(n):
        x = X[:, i]
        if np.linalg.norm(x) == 0:
            labels.append(0)
            continue
        best, best_sim = 0, -np.inf
        for j in range(k):
            w = W[:, j]
            sim = -np.inf if np.linalg.norm(w) == 0 else cosine_similarity(x, w)
            if sim > best_sim:
                best, best_sim = j, sim
        labels.append(best)
    return np.array(labels)


def test_update_h_cosine_identity():
    assign = update_h_cosine(np.eye(2), np.eye(2))
    assert assign.labels.tolist() == [0, 1]


def test_update_h_cosine_hand_value():
    X = np.array([[2.0], [0.0]])
    W = np.array([[1.0, 1.0], [0.0, 1.0]])
    # cos = {1, 1/sqrt(2)} -> cluster 0
    assert update_h_cosine(X, W).labels.tolist() == [0]


def test_update_h_cosine_scale_invariance():
    rng = np.random.default_rng(0)
    X = rng.random((5, 8))
    W = rng.random((5, 3))
    base = update_h_cosine(X, W).labels
    X2 = X.copy()
    X2[:, 2] *= 5.0
    assert np.array_equal(update_h_cosine(X2, W).labels, base)


def test_update_h_cosine_oracle_equivalence():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = rng.integers(2, 12)
        n = rng.integers(1, 40)
        k = rng.integers(1, 6)
        X = rng.random((m, n))
        W = rng.random((m, k))
        got = update_h_cosine(X, W).labels
        assert np.array_equal(got, brute_force_assignments(X, W))


def test_update_h_cosine_spherical_kmeans_equivalence():
    # unit-norm columns: max cosine == min Euclidean distance to centroid
    rng = np.random.default_rng(2)
    for _ in range(30):
        X = rng.random((6, 20))
        W = rng.random((6, 4))
        X /= np.linalg.norm(X, axis=0)
        W /= np.linalg.norm(W, axis=0)
        got = update_h_cosine(X, W).labels
        dists = np.linalg.norm(X[:, :, None] - W[:, None, :], axis=0)
        assert np.array_equal(got, np.argmin(dists, axis=1))


def test_update_h_cosine_zero_sample_column_flagged():
    X = np.array([[0.0, 1.0], [0.0, 0.0]])
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    diag = []
    assign = update_h_cosine(X, W, diagnostics=diag)
    assert assign.labels[0] == 0
    assert assign.labels[1] == 1
    assert diag == ["zero_norm_sample_column:0"]


def test_update_h_cosine_dead_basis_column_never_chosen():
    rng = np.random.default_rng(3)
    X = rng.random((4, 10))
    W = rng.random((4, 3))
    W[:, 1] = 0.0
    assert 1 not in update_h_cosine(X, W).labels


def test_update_h_cosine_all_dead_raises():
    with pytest.raises(DegenerateModelError):
        update_h_cosine(np.ones((3, 2)), np.zeros((3, 2)))


def test_init_h_identity_case():
    rng = np.random.default_rng(4)
    W = rng.random((3, 3)) + np.eye(3)
    assert init_h(W, W).labels.tolist() == [0, 1, 2]


def test_init_h_scalar_case():
    assign = init_h(np.array([[1.0], [0.0]]), np.array([[3.0], [0.0]]))
    assert assign.labels.tolist() == [0]


def test_init_h_singular_falls_back_to_cosine():
    W = np.ones((4, 2))
    X = np.abs(np.random.default_rng(5).random((4, 6)))
    diag = []
    assign = init_h(W, X, diagnostics=diag)
    assert "init_h_fallback_cosine" in diag
    assert assign.n == 6


def test_binarize_columns_lowest_index_tie_break():
    H = np.array([[0.5, 0.2], [0.5, 0.7]])
    assert binarize_columns(H).labels.tolist() == [0, 1]


def make_blocks(m, n, k, seed, noise=0.0):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % k
    X = rng.uniform(0, noise, (m, n)) if noise else np.zeros((m, n))
    for j in range(n):
        lo, hi = labels[j] * m // k, (labels[j] + 1) * m // k
        X[lo:hi, j] += rng.uniform(0.5, 1.5, hi - lo)
    return X, labels


def partitions_equal(a, b):
    """Same partition up to cluster relabeling."""
    mapping = {}
    for x, y in zip(a, b):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


def test_factorize_recovers_separated_blocks():
    X, labels = make_blocks(10, 40, 2, seed=6)
    model = factorize_bonmf(X, 2, FactorizeOptions(seed=6))
    assert partitions_equal(model.assignments.labels, labels)


def test_factorize_k1_single_cluster():
    rng = np.random.default_rng(7)
    model = factorize_bonmf(rng.random((4, 9)), 1, FactorizeOptions(seed=0))
    assert np.all(model.assignments.labels == 0)
    H = model.assignments.to_dense()
    assert np.all(H.sum(axis=0) == 1.0)


def test_factorize_single_iteration():
    rng = np.random.default_rng(8)
    seen = []
    model = factorize_bonmf(
        rng.random((5, 12)), 2,
        FactorizeOptions(max_iterations=1, seed=1),
        on_iteration=lambda it, W, a: seen.append(it),
        restarts=1,
    )
    assert model.trace.iterations_run == 1
    assert seen == [0]


def test_factorize_iterates_one_hot_and_orthogonal():
    rng = np.random.default_rng(9)
    def check(it, W, assign):
        H = assign.to_dense()
        assert np.all(H.sum(axis=0) == 1.0)
        G = H @ H.T
        assert np.array_equal(G, np.diag(np.diag(G)))
        assert np.all(W >= 0)
    factorize_bonmf(
        rng.random((8, 30)), 3,
        FactorizeOptions(max_iterations=15, tolerance=0, seed=2),
        on_iteration=check,
    )


def test_model_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    model = factorize_bonmf(rng.random((6, 20)), 3, FactorizeOptions(seed=3))
    model.cluster_labels = [2, 0, 1]
    path = tmp_path / "model.json"
    model.save(path)
    loaded = BonmfModel.load(path)
    assert loaded.basis.tobytes() == model.basis.tobytes()  # bit-exact
    assert np.array_equal(loaded.assignments.labels, model.assignments.labels)
    assert loaded.assignments.k == model.assignments.k
    assert loaded.cluster_labels == [2, 0, 1]


@pytest.mark.parametrize(
    "field, edit",
    [
        ("basis_b64", {"m": 5}),
        ("cluster_labels", {"cluster_labels": [2, 0]}),
        ("cluster_labels", {"cluster_labels": [2, 0, 1, 1]}),
    ],
)
def test_model_load_rejects_inconsistent_fields(tmp_path, field, edit):
    rng = np.random.default_rng(11)
    model = factorize_bonmf(rng.random((6, 20)), 3, FactorizeOptions(seed=4), restarts=1)
    model.cluster_labels = [2, 0, 1]
    path = tmp_path / "model.json"
    model.save(path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    with pytest.raises(ValueError, match=field):
        BonmfModel.load(path)


def test_zero_sample_columns_noted_once_per_run():
    rng = np.random.default_rng(12)
    X = rng.random((8, 160))
    zero = np.sort(rng.choice(160, size=100, replace=False))
    X[:, zero] = 0.0
    model = factorize_bonmf(
        X, 3, FactorizeOptions(max_iterations=20, tolerance=0, seed=5), restarts=1
    )
    assert model.trace.iterations_run == 20
    noted = [n for n in model.trace.notes if n.startswith("zero_norm_sample_column:")]
    assert noted == [f"zero_norm_sample_column:{i}" for i in zero]
