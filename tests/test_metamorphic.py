"""Metamorphic checks: relations between the outputs for related inputs,
which hold whatever the right output is."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bonmf import BinaryAssignment, classify_angle_nearest, classify_bonmf
from bonmf.bonmf import BonmfModel
from bonmf.nmf import FactorizationTrace, NmfModel

from test_classify_oracle import classifier_problems

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(classifier_problems(), st.integers(-64, 64))
def test_sample_scaled_by_a_power_of_two_keeps_its_label(problem, e):
    # scaling by 2**e is exact in every product, norm and quotient the
    # cosine schemes compute, so not even a near tie may flip
    W, H, train, samples = problem
    k = W.shape[1]
    binary = BonmfModel(
        basis=W,
        assignments=BinaryAssignment(np.zeros(1, dtype=np.intp), k),
        trace=FactorizationTrace(),
        cluster_labels=list(range(k)),
    )
    model = NmfModel(basis=W, coefficients=H, trace=FactorizationTrace())
    for x in samples:
        scaled = 2.0**e * x
        assert classify_bonmf(scaled, binary) == classify_bonmf(x, binary)
        assert classify_angle_nearest(scaled, model, train, "onmf-cos") == (
            classify_angle_nearest(x, model, train, "onmf-cos")
        )
