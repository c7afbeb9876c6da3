"""The alternation every factorizer shares: input checks and the stop rule."""

import numpy as np
import pytest

from bonmf import (
    FactorizeOptions,
    factorize_bonmf,
    factorize_nmf,
    factorize_onmf,
    factorize_zhang,
)

from test_bonmf import make_blocks


def bonmf_single_start(X, k, opts):
    return factorize_bonmf(X, k, opts, restarts=1)


FACTORIZERS = {
    "bonmf": bonmf_single_start,
    "nmf": factorize_nmf,
    "onmf": factorize_onmf,
    "zhang": factorize_zhang,
}
# methods that also need H unchanged from the previous iteration to stop
NEEDS_STABLE_H = {"bonmf", "zhang"}


def final_h(model):
    return model.assignments.labels if hasattr(model, "assignments") else model.coefficients


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", FACTORIZERS)
def test_non_finite_input_rejected(name, bad):
    X = np.random.default_rng(0).random((6, 10))
    X[2, 3] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        FACTORIZERS[name](X, 2, FactorizeOptions())


# Seeded noisy-block inputs (m, n, k, seed, noise). At tolerance 1e-4 bonmf
# on the first and zhang on the second pass an iteration whose objective
# change is below tolerance while H still changes.
STOP_RULE_INPUTS = [(20, 100, 4, 23, 0.3), (20, 200, 4, 29, 0.6)]


@pytest.mark.parametrize("data", STOP_RULE_INPUTS)
@pytest.mark.parametrize("tolerance", [0.0, 1e-4])
@pytest.mark.parametrize("name", FACTORIZERS)
def test_stop_rule(name, tolerance, data):
    factorize = FACTORIZERS[name]
    m, n, k, seed, noise = data
    X, _ = make_blocks(m, n, k, seed, noise)

    def run(max_iterations):
        opts = FactorizeOptions(max_iterations=max_iterations, tolerance=tolerance, seed=seed)
        return factorize(X, k, opts)

    max_iterations = 60
    model = run(max_iterations)
    obj = model.trace.objective_per_iteration
    iterations = model.trace.iterations_run
    assert len(obj) == iterations
    if name == "onmf":
        assert len(model.orthogonality_residual) == iterations

    # The factorizers are deterministic, so the H of iteration i (0-based)
    # is what a run capped at i + 1 iterations returns.
    def stops_after(i):
        if abs(obj[i] - obj[i - 1]) / obj[i - 1] >= tolerance:
            return False
        return name not in NEEDS_STABLE_H or np.array_equal(
            final_h(run(i + 1)), final_h(run(i))
        )

    expected = next((i + 1 for i in range(1, iterations) if stops_after(i)), max_iterations)
    assert iterations == expected
    if tolerance == 0.0:
        assert iterations == max_iterations
