import tracemalloc

import numpy as np
import pytest

from bonmf import BinaryAssignment, frobenius_objective
from bonmf.bonmf import _objective
from bonmf.matrices import as_data_matrix, cluster_sums


def with_statistics(X, labels, k):
    """The assignment `labels` carrying the cluster statistics of X, as
    bonmf's H step returns it."""
    return BinaryAssignment(labels, k, *cluster_sums(X, labels, k))


def test_objective_exact_factorization_is_zero():
    rng = np.random.default_rng(0)
    W = rng.random((4, 2))
    H = rng.random((2, 5))
    assert frobenius_objective(W @ H, W, H) == 0.0


def test_objective_hand_value_scalar():
    # 0.5 * (2 - 1)^2
    assert frobenius_objective([[2.0]], [[1.0]], [[1.0]]) == 0.5


def test_objective_hand_value_binary():
    # X = I2, W = ones column, both samples in cluster 0:
    # residual entries (0, -1, -1, 0) -> 0.5 * 2 = 1.0
    X = np.eye(2)
    W = np.ones((2, 1))
    assert _objective(X, W, with_statistics(X, [0, 0], 1)) == 1.0


def test_objective_binary_matches_dense_expansion():
    rng = np.random.default_rng(1)
    for _ in range(10):
        X = rng.random((6, 8))
        W = rng.random((6, 3))
        assign = with_statistics(X, rng.integers(0, 3, size=8), 3)
        dense = frobenius_objective(X, W, assign.to_dense())
        assert _objective(X, W, assign) == pytest.approx(dense, rel=1e-12)


def test_objective_shape_mismatch():
    with pytest.raises(ValueError):
        frobenius_objective(np.ones((3, 3)), np.ones((3, 2)), np.ones((3, 3)))


def test_objective_nonnegative_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        val = frobenius_objective(rng.random((5, 6)), rng.random((5, 2)), rng.random((2, 6)))
        assert val >= 0.0


def test_binary_assignment_validation():
    with pytest.raises(ValueError):
        BinaryAssignment([0, 3], k=3)
    with pytest.raises(ValueError):
        BinaryAssignment([-1], k=2)
    a = BinaryAssignment([0, 2, 1], k=3)
    assert a.n == 3
    H = a.to_dense()
    assert H.sum(axis=0).tolist() == [1.0, 1.0, 1.0]
    G = H @ H.T
    assert np.allclose(G, np.diag(np.diag(G)))


def test_binary_assignment_is_index_storage():
    a = BinaryAssignment(np.zeros(1000, dtype=np.intp), k=50)
    # Theta(n) indices, never a dense k x n array
    assert a.labels.shape == (1000,)
    assert a.labels.nbytes == 1000 * a.labels.itemsize


def test_as_data_matrix_rejects_negative_and_empty():
    with pytest.raises(ValueError):
        as_data_matrix([[1.0, -0.5]])
    with pytest.raises(ValueError):
        as_data_matrix(np.ones(3))


@pytest.mark.parametrize(
    "entries, message",
    [
        pytest.param([np.nan, -1.0], "NaN or infinite", id="nan-before-negative"),
        pytest.param([-np.inf, 1.0], "NaN or infinite", id="-inf"),
        pytest.param([np.inf, -1.0], "NaN or infinite", id="inf-before-negative"),
        pytest.param([-1.0, 1.0], "negative", id="negative"),
    ],
)
def test_as_data_matrix_reports_non_finite_before_negative(entries, message):
    X = np.ones((3, 4))
    X[1, 2], X[2, 0] = entries
    with pytest.raises(ValueError, match=message):
        as_data_matrix(X)


def test_as_data_matrix_allocates_no_matrix_sized_mask():
    X = np.random.default_rng(14).random((1000, 1000))
    tracemalloc.start()
    assert as_data_matrix(X) is X
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < X.nbytes / 100, f"peak {peak} B"


def random_dense_problem(rng):
    m, n, k = (int(v) for v in rng.integers(1, 40, size=3))
    X = rng.random((m, n)) * rng.choice([1e-3, 1.0, 1e3])
    X[:, rng.random(n) < 0.2] = 0.0
    if rng.random() < 0.5:
        X = np.asfortranarray(X)
    return X, rng.random((m, k)), rng.random((k, n))


def test_objective_dense_expansion_matches_residual():
    rng = np.random.default_rng(3)
    for _ in range(200):
        X, W, H = random_dense_problem(rng)
        R = X - W @ H
        assert frobenius_objective(X, W, H) == pytest.approx(0.5 * float(np.sum(R * R)), rel=1e-9)


def test_objective_dense_exact_fit_takes_direct_residual():
    rng = np.random.default_rng(4)
    for order in ("C", "F"):
        for _ in range(20):
            _, W, H = random_dense_problem(rng)
            X = np.asarray(W @ H, order=order)
            assert frobenius_objective(X, W, H) == 0.0


def test_objective_dense_given_sums_is_bit_identical():
    rng = np.random.default_rng(5)
    for _ in range(50):
        X, W, H = random_dense_problem(rng)
        assert frobenius_objective(X, W, H, sums=X @ H.T) == frobenius_objective(X, W, H)
        assert frobenius_objective(X, W, H, gram=H @ H.T) == frobenius_objective(X, W, H)


def test_objective_sums_checked():
    X, W, H = np.ones((3, 4)), np.ones((3, 2)), np.ones((2, 4))
    with pytest.raises(ValueError, match="sums have shape"):
        frobenius_objective(X, W, H, sums=np.ones((2, 3)))
    with pytest.raises(ValueError, match="gram has shape"):
        frobenius_objective(X, W, H, gram=np.ones((3, 3)))
