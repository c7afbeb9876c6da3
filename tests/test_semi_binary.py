import numpy as np
import pytest

from bonmf import FactorizeOptions, factorize_zhang, update_h_row


def brute_force_row(X, W, H, row):
    """Elementwise oracle for the sign rule."""
    m, n = X.shape
    k = W.shape[1]
    z = W[:, row]
    h = np.zeros(n)
    for j in range(n):
        acc = float(X[:, j] @ z) - 0.5 * float(z @ z)
        for b in range(k):
            if b != row:
                acc -= H[b, j] * float(W[:, b] @ z)
        h[j] = 1.0 if acc > 0 else 0.0
    out = H.copy()
    out[row] = h
    return out


def test_update_h_row_scalar_cases():
    # k = 1: empty W', H'; score = x*z - z^2/2
    assert update_h_row([[1.0]], [[1.0]], [[0.0]], 0)[0, 0] == 1.0
    assert update_h_row([[0.2]], [[1.0]], [[1.0]], 0)[0, 0] == 0.0


def test_update_h_row_zero_basis_column():
    rng = np.random.default_rng(0)
    X = rng.random((4, 6))
    W = rng.random((4, 3))
    W[:, 1] = 0.0
    H = rng.integers(0, 2, (3, 6)).astype(float)
    assert np.all(update_h_row(X, W, H, 1)[1] == 0.0)


def test_update_h_row_leaves_other_rows_untouched():
    rng = np.random.default_rng(1)
    X = rng.random((5, 7))
    W = rng.random((5, 4))
    H = rng.integers(0, 2, (4, 7)).astype(float)
    out = update_h_row(X, W, H, 2)
    others = np.arange(4) != 2
    assert np.array_equal(out[others], H[others])


def test_update_h_row_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = rng.integers(1, 8)
        n = rng.integers(1, 10)
        k = rng.integers(1, 5)
        X = rng.random((m, n))
        W = rng.random((m, k))
        H = rng.integers(0, 2, (k, n)).astype(float)
        row = int(rng.integers(0, k))
        assert np.array_equal(update_h_row(X, W, H, row), brute_force_row(X, W, H, row))


def test_update_h_row_bad_row_index():
    with pytest.raises(IndexError):
        update_h_row(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)), 2)


def test_exact_instance_is_sweep_fixed_point():
    rng = np.random.default_rng(3)
    W = rng.random((6, 3)) + 0.5
    H = rng.integers(0, 2, (3, 10)).astype(float)
    X = W @ H
    out = H
    for row in range(3):
        out = update_h_row(X, W, out, row)
    assert np.array_equal(out, H)


def test_factorize_single_iteration():
    rng = np.random.default_rng(4)
    model = factorize_zhang(rng.random((6, 8)), 2, FactorizeOptions(max_iterations=1, seed=0))
    assert model.trace.iterations_run == 1


def test_factorize_h_stays_binary():
    rng = np.random.default_rng(5)
    model = factorize_zhang(rng.random((8, 10)), 3, FactorizeOptions(max_iterations=25, seed=1))
    assert set(np.unique(model.coefficients)) <= {0.0, 1.0}
    assert np.all(model.basis >= 0)
