import numpy as np
import pytest

from bonmf import FactorizeOptions, encode_sample, factorize_onmf, init_w
from bonmf.init import init_h_real
from bonmf.onmf import orthogonality_residual, update_h_orthogonal


def test_identity_instance_becomes_orthogonal():
    model = factorize_onmf(
        np.eye(2), 2, FactorizeOptions(max_iterations=500, tolerance=0, seed=3)
    )
    G = model.coefficients @ model.coefficients.T
    total = np.abs(G).sum()
    off = total - np.trace(np.abs(G))
    assert off < 1e-3 * total


def test_residual_non_increasing_at_tail():
    model = factorize_onmf(
        np.eye(2), 2, FactorizeOptions(max_iterations=200, tolerance=0, seed=3)
    )
    tail = model.orthogonality_residual[-10:]
    for a, b in zip(tail, tail[1:]):
        assert b <= a + 1e-6


def test_single_iteration_trace():
    rng = np.random.default_rng(0)
    model = factorize_onmf(rng.random((5, 7)), 2, FactorizeOptions(max_iterations=1, seed=0))
    assert len(model.trace.objective_per_iteration) == 1


def test_start_is_floored_not_clamped():
    # the least-squares start has negative entries; floored at a positive
    # value they stay alive, where clamped at 0 the sqrt-ratio rule would
    # keep them at 0 for good
    X = np.random.default_rng(13).random((8, 30))
    opts = FactorizeOptions(max_iterations=1, seed=2)
    assert (init_h_real(init_w(X, 3, opts.seed), X) < 0).any()
    assert (factorize_onmf(X, 3, opts).coefficients > 0).all()


def test_nonnegativity_closure():
    rng = np.random.default_rng(1)
    model = factorize_onmf(rng.random((8, 10)), 3, FactorizeOptions(max_iterations=60, seed=1))
    assert np.all(model.basis >= 0)
    assert np.all(model.coefficients >= 0)


def test_orthogonality_residual_helper():
    H = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert orthogonality_residual(H) == 0.0
    H = np.ones((2, 2))
    assert orthogonality_residual(H) == pytest.approx(np.sqrt(8.0))


def test_encode_sample_recovers_basis_direction():
    # orthonormal columns: encoding of W[:, 0] concentrates on entry 0
    W = np.eye(4)[:, :3]
    h = encode_sample(W[:, 0], W)
    assert int(np.argmax(h)) == 0
    assert h[0] == pytest.approx(1.0, rel=1e-6)


def test_encode_sample_zero_input():
    W = np.abs(np.random.default_rng(2).random((4, 2))) + 0.1
    assert np.allclose(encode_sample(np.zeros(4), W, inner_iterations=1), 0.0)


def test_encode_sample_zero_iterations_returns_start():
    W = np.ones((3, 2))
    assert np.array_equal(encode_sample(np.ones(3), W, inner_iterations=0), np.ones(2))


def test_encode_sample_argmax_scale_equivariant():
    rng = np.random.default_rng(3)
    W = rng.random((6, 4)) + 0.1
    x = rng.random(6)
    for lam in (0.01, 3.0, 250.0):
        assert int(np.argmax(encode_sample(lam * x, W))) == int(np.argmax(encode_sample(x, W)))


def test_update_h_orthogonal_shape_mismatch():
    rng = np.random.default_rng(4)
    X, W = rng.random((5, 6)), rng.random((5, 3))
    for H in (rng.random((1, 6)), rng.random((3, 5)), rng.random(6)):
        with pytest.raises(ValueError, match="shape mismatch"):
            update_h_orthogonal(X, W, H)
    with pytest.raises(ValueError, match="shape mismatch"):
        update_h_orthogonal(X, rng.random((4, 3)), rng.random((3, 6)))
