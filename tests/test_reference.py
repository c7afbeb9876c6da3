"""The reference implementations in reference.py, and factorize_bonmf
checked against the reference loop iteration by iteration."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bonmf import FactorizeOptions, factorize_bonmf
from bonmf.matrices import H_UPDATE_BLOCK_COLS

from reference import (
    DegenerateVectorError,
    bonmf_reference,
    brute_force_assignments,
    cosine_argmax,
    cosine_similarity,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def test_cosine_examples():
    assert cosine_similarity([1, 0], [1, 0]) == pytest.approx(1.0)
    assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cosine_similarity([2, 0], [1, 1]) == pytest.approx(1 / np.sqrt(2))


def test_cosine_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = rng.random(7)
        w = rng.random(7)
        lam = rng.uniform(1e-3, 1e3)
        assert cosine_similarity(lam * x, w) == pytest.approx(
            cosine_similarity(x, w), rel=1e-12
        )


def test_cosine_zero_norm_raises():
    with pytest.raises(DegenerateVectorError):
        cosine_similarity([0, 0], [1, 0])
    with pytest.raises(DegenerateVectorError):
        cosine_similarity([1, 0], [0, 0])


def test_cosine_length_mismatch():
    with pytest.raises(ValueError):
        cosine_similarity([1, 0], [1, 0, 0])


def test_cosine_argmax_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m, n, k = (int(v) for v in rng.integers(1, 9, size=3))
        X, W = rng.random((m, n)), rng.random((m, k))
        X[:, rng.random(n) < 0.2] = 0.0
        W[:, rng.random(k) < 0.3] = 0.0
        if W.any():
            assert np.array_equal(cosine_argmax(X, W), brute_force_assignments(X, W))


@st.composite
def bonmf_problems(draw, zero_fractions=(0.0, 0.3, 0.7), max_iterations=15):
    """(X, k, opts): clustered non-negative X with a share of
    zero entries drawn from `zero_fractions` and optionally zero columns,
    C or F ordered, k up to 6 on 1 to 12 features (so k > m occurs),
    tolerance 0 or 1e-4. Values are continuous, so an exact cosine tie has
    probability zero."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 2 * H_UPDATE_BLOCK_COLS + 40))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.random((m, k))
    X = centers[:, rng.integers(0, k, n)] + draw(st.sampled_from([0.1, 0.5])) * rng.random((m, n))
    X[rng.random((m, n)) < draw(st.sampled_from(zero_fractions))] = 0.0
    X[:, rng.random(n) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    assume(X.any())
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    opts = FactorizeOptions(
        max_iterations=draw(st.integers(1, max_iterations)),
        tolerance=draw(st.sampled_from([0.0, 1e-4])),
        seed=draw(st.integers(0, 2**16)),
    )
    return X, k, opts


@PROPERTY
@given(bonmf_problems())
def test_factorize_bonmf_matches_reference_loop(problem):
    X, k, opts = problem
    got = []
    model = factorize_bonmf(
        X, k, opts, on_iteration=lambda it, W, H: got.append((H.labels.copy(), W.copy()))
    )
    want = bonmf_reference(X, k, opts)
    assert len(got) == len(want)
    objectives = model.trace.objective_per_iteration
    for (labels, W), obj, (ref_labels, ref_W, ref_obj) in zip(got, objectives, want):
        assert np.array_equal(labels, ref_labels)
        assert np.abs(W - ref_W).max() <= 1e-12 * np.abs(ref_W).max()
        assert obj == pytest.approx(ref_obj, rel=1e-9, abs=0)
