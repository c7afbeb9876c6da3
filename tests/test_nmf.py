import numpy as np
import pytest

from bonmf import (
    FactorizeOptions,
    factorize_nmf,
    factorize_onmf,
    factorize_zhang,
    frobenius_objective,
    update_h_dense,
    update_w,
)


def test_update_w_hand_value():
    W1 = update_w([[2.0]], [[1.0]], [[1.0]], epsilon_guard=1e-14)
    assert W1[0, 0] == pytest.approx(2.0, rel=1e-12)


def test_update_w_fixed_point():
    rng = np.random.default_rng(0)
    W = rng.random((5, 2)) + 0.1
    H = rng.random((2, 6)) + 0.1
    W1 = update_w(W @ H, W, H, epsilon_guard=1e-14)
    assert np.allclose(W1, W, rtol=1e-9)


def test_update_w_zero_locking():
    rng = np.random.default_rng(1)
    W = rng.random((4, 3))
    W[2, 1] = 0.0
    H = rng.random((3, 5))
    X = rng.random((4, 5))
    assert update_w(X, W, H)[2, 1] == 0.0


def test_update_w_shape_mismatch():
    with pytest.raises(ValueError):
        update_w(np.ones((3, 4)), np.ones((3, 2)), np.ones((3, 4)))
    with pytest.raises(ValueError):
        update_w(np.ones((3, 4)), np.ones((2, 2)), np.ones((2, 4)))


def test_update_h_hand_value():
    H1 = update_h_dense([[2.0]], [[1.0]], [[1.0]], epsilon_guard=1e-14)
    assert H1[0, 0] == pytest.approx(2.0, rel=1e-12)


def test_update_h_fixed_point_and_zero_locking():
    rng = np.random.default_rng(3)
    W = rng.random((5, 2)) + 0.1
    H = rng.random((2, 6)) + 0.1
    assert np.allclose(update_h_dense(W @ H, W, H, epsilon_guard=1e-14), H, rtol=1e-9)
    H[1, 3] = 0.0
    assert update_h_dense(rng.random((5, 6)), W, H)[1, 3] == 0.0


def test_factorize_rank_one_recovery():
    rng = np.random.default_rng(4)
    u = rng.random(8) + 0.1
    v = rng.random(10) + 0.1
    X = np.outer(u, v)
    model = factorize_nmf(X, 1, FactorizeOptions(max_iterations=500, tolerance=0, seed=0))
    assert model.trace.objective_per_iteration[-1] < 1e-6 * np.linalg.norm(X) ** 2


def test_factorize_single_iteration_trace():
    rng = np.random.default_rng(5)
    model = factorize_nmf(rng.random((6, 7)), 2, FactorizeOptions(max_iterations=1, seed=0))
    assert model.trace.iterations_run == 1
    assert len(model.trace.objective_per_iteration) == 1


def test_factorize_monotone_objective():
    rng = np.random.default_rng(6)
    for _ in range(20):
        X = rng.random((10, 12))
        model = factorize_nmf(X, 3, FactorizeOptions(max_iterations=200, tolerance=0, seed=1))
        t = np.array(model.trace.objective_per_iteration)
        assert np.all(t[1:] <= t[:-1] * (1 + 1e-9))


def test_factorize_nonnegativity_closure():
    rng = np.random.default_rng(7)
    model = factorize_nmf(rng.random((8, 10)), 3, FactorizeOptions(max_iterations=50, seed=2))
    assert np.all(model.basis >= 0)
    assert np.all(model.coefficients >= 0)


def test_factorize_warns_on_large_k():
    rng = np.random.default_rng(8)
    with pytest.warns(UserWarning):
        factorize_nmf(rng.random((3, 4)), 5, FactorizeOptions(max_iterations=2, seed=0))


def test_objective_consistent_with_final_factors():
    rng = np.random.default_rng(9)
    X = rng.random((7, 9))
    model = factorize_nmf(X, 2, FactorizeOptions(max_iterations=30, seed=3))
    assert model.trace.objective_per_iteration[-1] == pytest.approx(
        frobenius_objective(X, model.basis, model.coefficients), rel=1e-12
    )


def test_options_validation():
    with pytest.raises(ValueError):
        FactorizeOptions(max_iterations=0)
    with pytest.raises(ValueError):
        FactorizeOptions(tolerance=-1)


def test_update_w_given_sums_is_bit_identical():
    rng = np.random.default_rng(10)
    for _ in range(50):
        m, n, k = (int(v) for v in rng.integers(1, 30, size=3))
        X, W, H = rng.random((m, n)), rng.random((m, k)), rng.random((k, n))
        assert np.array_equal(update_w(X, W, H, sums=X @ H.T), update_w(X, W, H))
        assert np.array_equal(update_w(X, W, H, gram=H @ H.T), update_w(X, W, H))
        assert np.array_equal(update_w(X, W, H, sums=X @ H.T, gram=H @ H.T), update_w(X, W, H))


def test_recorded_objective_is_bit_identical_to_a_fresh_one():
    # the alternation computes ||X||^2 once per factorization; what it
    # records must still be what frobenius_objective computes on its own
    rng = np.random.default_rng(11)
    for _ in range(20):
        m, n = (int(v) for v in rng.integers(2, 30, size=2))
        k = int(rng.integers(1, min(m, n) + 1))
        wide = rng.random((m, 2 * n))
        for X in (wide[:, :n], np.ascontiguousarray(wide[:, :n]), np.asfortranarray(wide[:, :n])):
            for factorize in (factorize_nmf, factorize_onmf, factorize_zhang):
                model = factorize(X, k, FactorizeOptions(max_iterations=3, seed=1))
                assert model.trace.objective_per_iteration[-1] == (
                    frobenius_objective(X, model.basis, model.coefficients)
                )


def test_update_w_sums_checked():
    X, W, H = np.ones((3, 4)), np.ones((3, 2)), np.ones((2, 4))
    with pytest.raises(ValueError, match="sums have shape"):
        update_w(X, W, H, sums=np.ones((3, 4)))
    with pytest.raises(ValueError, match="gram has shape"):
        update_w(X, W, H, gram=np.ones((2, 4)))
