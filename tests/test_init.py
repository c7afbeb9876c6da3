import numpy as np
import pytest

from bonmf.init import INIT_POOL_SIZE, INIT_SAMPLE_SIZE, init_h_real, init_w


def test_init_w_identical_columns():
    v = np.array([1.0, 2.0, 3.0])
    X = np.tile(v[:, None], (1, 15))
    W = init_w(X, 4, seed=0)
    assert np.allclose(W, v[:, None])


def test_init_w_deterministic():
    rng = np.random.default_rng(5)
    X = rng.random((6, 30))
    assert np.array_equal(init_w(X, 3, seed=42), init_w(X, 3, seed=42))
    assert not np.array_equal(init_w(X, 3, seed=42), init_w(X, 3, seed=43))


def test_init_w_matches_replayed_sampler():
    rng = np.random.default_rng(7)
    X = rng.random((4, 40))
    seed = 11
    W = init_w(X, 3, seed=seed)
    # replay: same ordering and draws, averaging done independently
    order = np.argsort(-np.linalg.norm(X, axis=0), kind="stable")
    pool = order[:INIT_POOL_SIZE]
    replay = np.random.default_rng(seed)
    for j in range(3):
        picks = replay.choice(pool, size=INIT_SAMPLE_SIZE, replace=False)
        expected = sum(X[:, p] for p in picks) / INIT_SAMPLE_SIZE
        assert np.allclose(W[:, j], expected, rtol=1e-12)


def test_init_w_small_n_samples_with_replacement():
    rng = np.random.default_rng(8)
    X = rng.random((3, 4))
    W = init_w(X, 2, seed=0)
    assert W.shape == (3, 2)
    assert np.all(W >= 0)


def test_init_h_real_identity():
    rng = np.random.default_rng(9)
    W = rng.random((3, 3)) + np.eye(3)
    H0 = init_h_real(W, W)
    assert np.allclose(H0, np.eye(3), atol=1e-8)


def test_init_h_real_scalar():
    H0 = init_h_real(np.array([[1.0], [0.0]]), np.array([[3.0], [0.0]]))
    assert np.allclose(H0, [[3.0]])


def test_init_h_real_singular():
    # rank deficient W: duplicated columns, then also more columns than rows
    rng = np.random.default_rng(10)
    for m, k in [(6, 3), (4, 7)]:
        W = rng.random((m, k))
        W[:, 1] = W[:, 0]
        X = rng.random((m, 9))
        expected = np.linalg.lstsq(W, X, rcond=None)[0]
        assert np.allclose(init_h_real(W, X), expected, rtol=0, atol=1e-10)
