"""Property test of the sparking-voltage root finder over the emission
region gamma > 1/a, b > 4a/e."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import numpy as np

from spark_branch.electron import (NoSignChange, SolverFailure, ROOT_TOL_DEFAULT,
                                   critical_gamma, sparking_voltage)
from spark_branch.grid import RadialGrid
from spark_branch.model import Parameters, in_gamma_region

GRID = RadialGrid(129)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(a=st.floats(0.5, 5.0),
       b_ratio=st.floats(1.01, 4.0),
       gamma_ratio=st.floats(1.01, 5.0))
def test_sparking_voltage_is_a_root_of_B_or_a_typed_failure(a, b_ratio, gamma_ratio):
    p = Parameters(a, b_ratio * 4.0 * a / np.e, gamma_ratio / a)
    assert in_gamma_region(p)
    try:
        sp = sparking_voltage(p, GRID)
    except (NoSignChange, SolverFailure):
        return
    assert abs(sp.residual_B) <= ROOT_TOL_DEFAULT
    assert sp.bracket[0] <= sp.lambda_dagger <= sp.bracket[1]
    assert critical_gamma(sp.lambda_dagger, p, GRID) == pytest.approx(p.gamma, rel=1e-8)
