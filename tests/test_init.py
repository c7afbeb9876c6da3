import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bonmf import DegenerateModelError, factorize_bonmf
from bonmf.bench import synth_dataset
from bonmf.init import init_h_real, init_w
from bonmf.matrices import H_UPDATE_BLOCK_COLS

from reference import init_w_replay

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


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


def column_indices(X, W):
    """For each column of W, the index of the first column of X equal to it;
    fails unless every column of W is a column of X."""
    return [int(np.flatnonzero((X == W[:, [j]]).all(axis=0))[0]) for j in range(W.shape[1])]


@PROPERTY
@given(
    st.integers(2, 12),
    st.integers(1, H_UPDATE_BLOCK_COLS + 40),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.2]),
    st.booleans(),
)
def test_init_w_matches_reference(m, n, k, seed, zero_share, fortran):
    # continuous values on two or more features: no two columns share a
    # direction, so W determines the seed indices
    rng = np.random.default_rng(seed)
    X = rng.random((m, k))[:, rng.integers(0, k, n)] + 0.3 * rng.random((m, n))
    X[:, rng.random(n) < zero_share] = 0.0
    assume(X.any())
    if fortran:
        X = np.asfortranarray(X)
    seeds = column_indices(X, init_w(X, k, seed))
    for chosen, (candidates, sums) in zip(seeds, init_w_replay(X, k, seed, seeds), strict=True):
        assert chosen in candidates
        assert sums[candidates.index(chosen)] <= min(sums) * (1 + 1e-12) + n * 1e-15


@PROPERTY
@given(
    st.integers(2, 10),
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
def test_init_w_seeds_distinct_directions(m, directions, k, seed):
    # X holds `directions` distinct directions, each in several columns of
    # different scale, and zero columns; the seeds are columns of X, and
    # distinct directions while X has k of them
    rng = np.random.default_rng(seed)
    base = rng.random((m, directions)) + 0.05
    X = base[:, rng.integers(0, directions, 3 * directions + 5)]
    X = X * rng.choice([0.5, 1.0, 2.0], X.shape[1])
    X[:, rng.random(X.shape[1]) < 0.2] = 0.0
    live = X[:, X.any(axis=0)]
    distinct = len({tuple(c) for c in (live / live.max(axis=0)).round(9).T})
    W = init_w(X, k, seed)
    assert W.shape == (m, k)
    column_indices(X, W)
    if distinct >= k:
        unit = W / np.linalg.norm(W, axis=0)
        cos = unit.T @ unit
        assert (cos[~np.eye(k, dtype=bool)] < 1.0 - 1e-9).all()


def test_init_w_k_above_n_and_all_zero_X():
    rng = np.random.default_rng(8)
    X = rng.random((3, 4))
    X[:, 1] = 0.0
    W = init_w(X, 9, seed=0)
    # every nonzero column is a seed, then the draws are uniform over them
    assert set(column_indices(X, W)) == {0, 2, 3}
    assert np.array_equal(init_w(np.zeros((3, 4)), 5, seed=0), np.zeros((3, 5)))
    with pytest.raises(DegenerateModelError):
        factorize_bonmf(np.zeros((3, 4)), 2)


def test_init_w_seeds_every_class_of_separable_blocks():
    covered = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 11))
        ds = synth_dataset("noisy-blocks", 5 * k, int(rng.integers(5 * k, 30 * k)), k, 0.1, seed)
        seeds = column_indices(ds.data, init_w(ds.data, k, seed))
        covered += len(set(ds.labels[seeds])) == k
    # 296 of 300 cover every class; one draw per seed (plain k-means++) covers 175
    assert covered >= 285


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
