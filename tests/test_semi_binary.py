import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bonmf import FactorizeOptions, factorize_zhang, semi_binary, update_h_row
from bonmf.semi_binary import _sweep


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


PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def row_by_row(X, W, H):
    for row in range(W.shape[1]):
        H = update_h_row(X, W, H, row)
    return H


@st.composite
def small_integer_sweeps(draw):
    """(X, W, H) with small-integer X and W, so every score is computed
    exactly and many land on 0, where the `> 0` rule decides; some basis
    columns dead, k from 1 to above m, C or F order."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, m + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, draw(st.integers(1, 4)), (m, n)).astype(float)
    W = rng.integers(0, 3, (m, k)).astype(float)
    W[:, rng.random(k) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    H = rng.integers(0, 2, (k, n)).astype(float)
    if draw(st.booleans()):
        X, W, H = (np.asfortranarray(a) for a in (X, W, H))
    return X, W, H


# row 0 scores 6 - 2 - 4 = 0 and drops to 0; row 1 then scores 4 (not 0),
# so the sweep must read the row it has just replaced
@example((np.array([[3.0]]), np.array([[2.0, 2.0]]), np.ones((2, 1))))
@example((np.array([[1.0]]), np.array([[2.0]]), np.zeros((1, 1))))
@PROPERTY
@given(small_integer_sweeps())
def test_one_pass_sweep_equals_row_by_row(problem):
    X, W, H = problem
    before = H.copy()
    got = _sweep(X, W, H)
    assert np.array_equal(got, row_by_row(X, W, H))
    assert np.array_equal(H, before)  # the input H is left as it was


def test_factorize_zhang_equals_row_by_row_alternation(monkeypatch):
    rng = np.random.default_rng(6)
    X = rng.random((30, 25))
    X[:, :3] = 0.0
    opts = FactorizeOptions(max_iterations=15, tolerance=0.0, seed=2)
    fast = factorize_zhang(X, 6, opts)
    monkeypatch.setattr(semi_binary, "_sweep", row_by_row)
    slow = factorize_zhang(X, 6, opts)
    assert np.array_equal(fast.basis, slow.basis)
    assert np.array_equal(fast.coefficients, slow.coefficients)
    assert fast.trace.objective_per_iteration == slow.trace.objective_per_iteration
