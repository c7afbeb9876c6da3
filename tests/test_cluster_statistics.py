"""Property tests for the one-pass bonmf iteration: the cluster statistics
recorded by the cosine H step, and the W update and objective computed
from them, against dense and direct oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bonmf import BinaryAssignment, FactorizeOptions, factorize_bonmf, update_h_cosine
from bonmf.bonmf import _cluster_means, _objective
from bonmf.matrices import H_UPDATE_BLOCK_COLS, cluster_sums, column_norms

from test_bonmf import brute_force_assignments
from test_reference import bonmf_problems

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def problems(draw, max_n=2 * H_UPDATE_BLOCK_COLS + 40):
    """(X, W, labels): non-negative X with some zero columns, W with some
    dead (all-zero) columns, labels drawn from a subset of the clusters so
    that some clusters may be empty; optionally an exact or near-exact fit
    X = W[:, labels] (+ small noise)."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.random((m, k)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    W[:, rng.random(k) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
    used = rng.choice(k, size=draw(st.integers(1, k)), replace=False)
    labels = rng.choice(used, size=n)
    fit = draw(st.sampled_from(["random", "exact", "near"]))
    if fit == "random":
        X = rng.random((m, n))
    else:
        X = W[:, labels].copy()
        if fit == "near":
            X += draw(st.sampled_from([1e-2, 1e-3, 1e-4])) * rng.random((m, n))
    X[:, rng.random(n) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    return X, W, labels, fit


def direct_objective(X, W, labels):
    R = X - W[:, labels]
    return 0.5 * float(np.sum(R * R))


@PROPERTY
@given(problems())
def test_update_h_cosine_records_cluster_statistics(problem):
    X, W, _, _ = problem
    if not np.linalg.norm(W, axis=0).any():
        W = W + 1.0
    assign = update_h_cosine(X, W)
    assert np.array_equal(assign.labels, brute_force_assignments(X, W))
    H = assign.to_dense()
    np.testing.assert_allclose(assign.sums, X @ H.T, rtol=1e-12, atol=1e-12 * X.max(initial=0))
    np.testing.assert_allclose(
        assign.sq_norms, H @ np.sum(X * X, axis=0), rtol=1e-12, atol=0
    )


@PROPERTY
@given(problems())
def test_cluster_sums_match_update_h_cosine(problem):
    X, W, _, _ = problem
    if not np.linalg.norm(W, axis=0).any():
        W = W + 1.0
    assign = update_h_cosine(X, W)
    S, q = cluster_sums(X, assign.labels, assign.k)
    assert S.tobytes() == assign.sums.tobytes()
    assert q.tobytes() == assign.sq_norms.tobytes()


@PROPERTY
@given(problems())
def test_objective_from_statistics_matches_direct_residual(problem):
    X, W, labels, fit = problem
    k = W.shape[1]
    got = _objective(X, W, BinaryAssignment(labels, k, *cluster_sums(X, labels, k)))
    assert got >= 0.0
    assert got == pytest.approx(direct_objective(X, W, labels), rel=1e-9, abs=0)
    if fit == "exact" and np.array_equal(X, W[:, labels]):
        # the expansion cancels to rounding noise; only the direct
        # residual gives the exact zero
        assert got == 0.0


@PROPERTY
@given(problems())
def test_update_w_from_statistics_matches_dense_expansion(problem):
    # bonmf's W step, the cluster means, is the minimum-norm least-squares
    # W = X H^T (H H^T)^+ of the dense H: 0 for an empty cluster
    X, W, labels, _ = problem
    k = W.shape[1]
    assign = BinaryAssignment(labels, k, *cluster_sums(X, labels, k))
    H = assign.to_dense()
    want = (X @ H.T) @ np.linalg.pinv(H @ H.T)
    got = _cluster_means(assign)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * X.max(initial=0))
    assert not got[:, assign.cluster_sizes() == 0].any()


@PROPERTY
@given(problems())
def test_update_h_cosine_same_with_precomputed_norms(problem):
    X, W, _, _ = problem
    if not np.linalg.norm(W, axis=0).any():
        W = W + 1.0
    plain = update_h_cosine(X, W)
    cached = update_h_cosine(X, W, norms=column_norms(X))
    assert np.array_equal(plain.labels, cached.labels)
    assert plain.sums.tobytes() == cached.sums.tobytes()
    assert plain.sq_norms.tobytes() == cached.sq_norms.tobytes()


@PROPERTY
@given(
    st.integers(1, 9),
    st.integers(1, 3 * H_UPDATE_BLOCK_COLS + 7),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_column_norms_bit_identical_to_linalg_norm(m, n, seed, fortran):
    rng = np.random.default_rng(seed)
    X = rng.random((m, n)) * rng.choice([1e-3, 1.0, 1e3], size=(m, 1))
    if fortran:
        X = np.asfortranarray(X)
    assert column_norms(X).tobytes() == np.linalg.norm(X, axis=0).tobytes()


@pytest.mark.parametrize("m, n", [(45, 1537), (57, 2561)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_column_norms_one_column_past_a_block(m, n, order):
    # n = 1 mod 256: numpy sums a lone strided last column pairwise, the
    # whole C-ordered X row by row; seed 1 gives differing bits for both
    X = np.asarray(np.random.default_rng(1).random((m, n)), order=order)
    assert column_norms(X).tobytes() == np.linalg.norm(X, axis=0).tobytes()


@PROPERTY
@given(
    st.integers(1, 64),
    st.integers(0, 6),
    st.integers(-2, 2),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_column_norms_near_block_multiples(m, blocks, offset, seed, fortran):
    n = max(1, blocks * H_UPDATE_BLOCK_COLS + offset)
    rng = np.random.default_rng(seed)
    X = rng.random((m, n)) * rng.choice([1e-3, 1.0, 1e3], size=(m, 1))
    if fortran:
        X = np.asfortranarray(X)
    assert column_norms(X).tobytes() == np.linalg.norm(X, axis=0).tobytes()


def test_statistics_of_wrong_shape_rejected():
    X = np.ones((3, 4))
    W = np.ones((3, 2))
    labels = [0, 1, 1, 0]
    with pytest.raises(ValueError):
        BinaryAssignment(labels, 2, np.zeros((3, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        BinaryAssignment(labels, 2, np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        BinaryAssignment(labels, 2, np.zeros(6), np.zeros(2))
    with pytest.raises(ValueError):
        BinaryAssignment(labels, 2, np.zeros((3, 2)), None)
    with pytest.raises(ValueError):
        update_h_cosine(X, W, norms=np.ones(3))
    with pytest.raises(ValueError):
        cluster_sums(X, labels[:3], 2)


def sparse_clusters(seed, m=12, n=200, k=4):
    """k noisy clusters with 80% of the entries zeroed."""
    rng = np.random.default_rng(seed)
    X = rng.random((m, k))[:, rng.integers(0, k, n)] + 0.5 * rng.random((m, n))
    X[rng.random((m, n)) < 0.8] = 0.0
    return X


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bonmf_problems())
# J fell here under the multiplicative W step, which kept zero basis entries at zero
@example((sparse_clusters(11), 4, FactorizeOptions(max_iterations=40, tolerance=0, seed=11)))
def test_spherical_kmeans_objective_never_falls(problem):
    # with the cluster means as W step and the cosine argmax as H step,
    # bonmf is spherical k-means on the raw columns: J = sum_c ||S_c||
    # never falls
    X, k, opts = problem
    J = []
    factorize_bonmf(
        X, k, opts,
        on_iteration=lambda it, W, H: J.append(float(np.linalg.norm(H.sums, axis=0).sum())),
    )
    J = np.array(J)
    assert np.all(J[1:] >= J[:-1] * (1.0 - 1e-12))
