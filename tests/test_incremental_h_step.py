"""Property tests for the incremental cosine H step: given the previous
result, update_h_cosine rescores only the samples whose label can change,
and must still give the labels of a fresh call and the cluster sums of the
new assignment."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bonmf import BinaryAssignment, FactorizeOptions, factorize_bonmf, update_h_cosine
from bonmf.matrices import H_UPDATE_BLOCK_COLS, column_norms

from test_bonmf import brute_force_assignments, make_blocks

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _live(W):
    return np.linalg.norm(W, axis=0) > 0


@st.composite
def drifting_bases(draw, max_n=2 * H_UPDATE_BLOCK_COLS + 40):
    """(X, [W1, W2, ...]): clustered non-negative X, optionally with zero
    columns and sparse zero entries, and a chain of bases, each a small
    drift, a large drift or a column zeroed from the one before. W1 may
    hold dead columns, and duplicated columns that tie exactly."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.random((m, k))
    X = centers[:, rng.integers(0, k, n)] + draw(st.sampled_from([0.05, 0.5])) * rng.random((m, n))
    X[rng.random((m, n)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    X[:, rng.random(n) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    W = centers * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if k > 1 and draw(st.booleans()):
        W[:, rng.integers(1, k)] = W[:, 0]
    if k > 1 and draw(st.booleans()):
        W[:, rng.integers(0, k)] = 0.0
    bases = [W]
    steps = st.lists(st.sampled_from(["small", "large", "zero"]), min_size=1, max_size=3)
    for step in draw(steps):
        W = bases[-1].copy()
        if step == "small":
            W *= 1.0 + 1e-3 * rng.uniform(-1.0, 1.0, W.shape)
        elif step == "large":
            W = rng.random((m, k))
        elif _live(W).sum() > 1:
            W[:, rng.choice(np.flatnonzero(_live(W)))] = 0.0
        bases.append(W)
    return X, bases


@PROPERTY
@given(drifting_bases())
def test_chained_h_steps_match_a_fresh_call(problem):
    X, bases = problem
    norms = column_norms(X)
    assign = update_h_cosine(X, bases[0], norms=norms)
    for W in bases[1:]:
        assign = update_h_cosine(X, W, norms=norms, previous=assign)
        fresh = update_h_cosine(X, W)
        assert np.array_equal(assign.labels, fresh.labels)
        # the recorded leads stay lower bounds of the exact ones
        assert np.all(assign.margins <= fresh.margins + 1e-12)
        H = assign.to_dense()
        np.testing.assert_allclose(
            assign.sums, X @ H.T, rtol=1e-12, atol=1e-12 * X.max(initial=0)
        )
        np.testing.assert_allclose(assign.sq_norms, H @ norms**2, rtol=1e-12, atol=0)
        assert (assign.sums >= 0.0).all() and (assign.sq_norms >= 0.0).all()
        # a cluster with no nonzero member (an empty one included) has
        # exactly zero sums: its mean, the W step's basis column, must be
        # exactly zero
        hollow = H @ (norms > 0) == 0
        assert not assign.sums[:, hollow].any() and not assign.sq_norms[hollow].any()
    assert np.array_equal(assign.labels, brute_force_assignments(X, bases[-1]))


@st.composite
def departing_groups(draw):
    """(X, [W1, W2, ...]): feature 0 holds large values in samples of groups
    1..G (indicator features 1..G) and tiny positive values in samples of
    indicator feature G+1, whose value may be tiny too. Each basis after the
    first sends one more group from cluster 0 to cluster 1, so the sums of
    cluster 0 in feature 0, and possibly its squared norms, lose their large
    terms call by call and keep only the tiny ones."""
    groups = draw(st.integers(1, 4))
    large = draw(
        st.lists(st.floats(1e-3, 1.0), min_size=groups, max_size=3 * groups)
    )
    tiny = draw(st.lists(st.floats(1e-20, 1e-15), min_size=1, max_size=4))
    member = draw(st.permutations(list(range(len(large)))))
    m, n = groups + 2, len(large) + len(tiny)
    X = np.zeros((m, n))
    for j, value in enumerate(large):
        X[0, j] = value
        X[1 + member[j] % groups, j] = 1.0
    X[0, len(large) :] = tiny
    X[groups + 1, len(large) :] = draw(st.sampled_from([1.0, 1e-9]))
    bases = []
    for left in range(groups + 1):
        W = np.zeros((m, 2))
        W[1 + left : groups + 2, 0] = 1.0
        W[1 : 1 + left, 1] = 1.0
        bases.append(W)
    return X, bases


@PROPERTY
@given(departing_groups())
@example((np.array([[0.1, 0.7, 1e-18], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]),
          [np.array([[0, 0], [1, 0], [1, 0], [1, 0]], dtype=float),
           np.array([[0, 0], [1, 0], [0, 1], [1, 0]], dtype=float),
           np.array([[0, 0], [0, 1], [0, 1], [1, 0]], dtype=float)]))
def test_moves_leave_no_negative_sum(problem):
    X, bases = problem
    norms = column_norms(X)
    assign = update_h_cosine(X, bases[0], norms=norms)
    for W in bases[1:]:
        assign = update_h_cosine(X, W, norms=norms, previous=assign)
        assert np.array_equal(assign.labels, update_h_cosine(X, W).labels)
        assert (assign.sums >= 0.0).all() and (assign.sq_norms >= 0.0).all()
        np.testing.assert_allclose(assign.sums, X @ assign.to_dense().T, rtol=1e-12, atol=1e-12)
    # every large sample has left cluster 0
    assert (assign.labels[X[0] >= 1e-3] == 1).all()


def test_unchanged_basis_rescores_nothing():
    X, _ = make_blocks(12, 300, 3, seed=1)
    norms = column_norms(X)
    W = X[:, :3].copy()
    first = update_h_cosine(X, W, norms=norms)
    again = update_h_cosine(X, W, norms=norms, previous=first)
    assert first.rescored == X.shape[1] and again.rescored == 0
    assert again == first
    assert again.sums.tobytes() == first.sums.tobytes()


def test_dying_column_rescores_every_nonzero_sample():
    rng = np.random.default_rng(2)
    X = rng.random((6, 50))
    X[:, [3, 7]] = 0.0
    norms = column_norms(X)
    W = rng.random((6, 3))
    first = update_h_cosine(X, W, norms=norms)
    W[:, 1] = 0.0
    after = update_h_cosine(X, W, norms=norms, previous=first)
    # the 48 nonzero samples are stale, so their block is rescored whole
    assert after.rescored == 50
    assert 1 not in after.labels
    assert not after.sums[:, 1].any() and after.sq_norms[1] == 0.0
    assert np.array_equal(after.labels, update_h_cosine(X, W).labels)


def test_column_coming_back_rescores_every_nonzero_sample():
    # with one live column every lead is over a dead one; a dead column
    # scores 0 in the lead, so its return drifts it by 1 and forces a rescore
    rng = np.random.default_rng(5)
    X = rng.random((6, 50))
    norms = column_norms(X)
    W = rng.random((6, 2))
    W[:, 1] = 0.0
    first = update_h_cosine(X, W, norms=norms)
    assert not first.labels.any() and np.isfinite(first.margins).all()
    W[:, 1] = X[:, 0]
    after = update_h_cosine(X, W, norms=norms, previous=first)
    assert after.rescored == 50
    assert np.array_equal(after.labels, update_h_cosine(X, W).labels)
    assert after.labels.any()


def test_previous_without_margins_is_ignored():
    rng = np.random.default_rng(3)
    X, W = rng.random((5, 40)), rng.random((5, 3))
    norms = column_norms(X)
    plain = update_h_cosine(X, W)
    given_labels = update_h_cosine(
        X, W, norms=norms, previous=BinaryAssignment(rng.integers(0, 3, 40), 3)
    )
    assert given_labels.rescored == 40
    assert np.array_equal(given_labels.labels, plain.labels)
    assert given_labels.sums.tobytes() == plain.sums.tobytes()


def test_previous_checked():
    rng = np.random.default_rng(4)
    X, W = rng.random((5, 40)), rng.random((5, 3))
    norms = column_norms(X)
    previous = update_h_cosine(X, W, norms=norms)
    with pytest.raises(ValueError, match="norms"):
        update_h_cosine(X, W, previous=previous)
    with pytest.raises(ValueError):
        update_h_cosine(X[:, :30], W, norms=norms[:30], previous=previous)
    with pytest.raises(ValueError):
        update_h_cosine(X, W[:, :2], norms=norms, previous=previous)
    taller = np.vstack([X, X[:1]])
    with pytest.raises(ValueError):
        update_h_cosine(taller, np.vstack([W, W[:1]]), norms=norms, previous=previous)


def test_converged_restart_rescores_nothing():
    X, labels = make_blocks(20, 100, 4, seed=0)
    model = factorize_bonmf(
        X, 4, FactorizeOptions(max_iterations=10, tolerance=0, seed=0)
    )
    rescored = model.trace.rescored_per_iteration
    assert len(rescored) == model.trace.iterations_run == 10
    assert rescored[0] == 100 and rescored[-3:] == [0, 0, 0]
    # the returned model keeps the labels only
    kept = model.assignments
    assert type(kept) is BinaryAssignment and kept.sums is None


def test_assignment_equality_ignores_recorded_statistics():
    a = BinaryAssignment([0, 1], 2)
    assert a == BinaryAssignment([0, 1], 2)
    assert a == BinaryAssignment([0, 1], 2, np.ones((3, 2)), np.ones(2))
    assert a != BinaryAssignment([1, 0], 2)
    assert a != BinaryAssignment([0, 1], 3)
    assert a != BinaryAssignment([0, 1, 1], 2)
    assert a != [0, 1]


def test_assignment_is_unhashable():
    with pytest.raises(TypeError):
        hash(BinaryAssignment([0, 1], 2))
