"""Electron eigenprofile, boundary functional, sparking voltage, and the
closed-form comparison profile U."""

import numpy as np
import pytest

from conftest import CONTINUUM, PARAMS
from oracles import (auxiliary_U_cathode_value, auxiliary_U_stencil_residual,
                     boundary_B_of_U)
from spark_branch.model import Parameters, harmonic_H
from spark_branch.grid import RadialGrid, boundary_derivative
from spark_branch.electron import (NoSignChange, SolverFailure, solve_electron,
                                   boundary_functional, boundary_B, dB_dlambda,
                                   critical_gamma, sparking_voltage,
                                   emission_kernel, auxiliary_U,
                                   auxiliary_U_cathode_slope,
                                   auxiliary_U_solve_gap)
from spark_branch.validation import richardson, convergence_orders


@pytest.mark.parametrize("key", sorted(PARAMS))
def test_sparking_voltage_matches_continuum_reference(key, cache):
    g = cache.grid(257)
    sp = cache.spark(key, 257)
    ref = CONTINUUM[key]["lambda_dagger"]
    assert sp.lambda_dagger > 0.0
    assert abs(sp.residual_B) <= 1e-10
    assert sp.bracket[0] <= sp.lambda_dagger <= sp.bracket[1]
    # collocation root sits within a second-order window of the continuum one
    assert abs(sp.lambda_dagger - ref) <= 10.0 * g.delta ** 2


def test_sparking_voltage_grid_order(cache):
    # the root itself converges at the stencil order
    order, extrapolated = richardson(
        lambda g: cache.spark("(2,3,1)", g.n).lambda_dagger,
        [cache.grid(n) for n in (129, 257, 513)])
    assert order >= 1.8
    assert abs(extrapolated - CONTINUUM["(2,3,1)"]["lambda_dagger"]) <= 1e-6


def test_oracle_script_still_reproduces_frozen_value():
    # guards the frozen table in conftest against drift in oracles.py
    import oracles

    lam = oracles.sparking_voltage(2.0, 3.0, 1.0)
    assert lam == pytest.approx(CONTINUUM["(2,3,1)"]["lambda_dagger"], abs=1e-9)


@pytest.mark.parametrize("key", sorted(PARAMS))
def test_scanned_profiles_stay_positive(key, cache):
    sp = cache.spark(key, 257)
    assert np.all(sp.scan_positive)
    assert sp.u_dagger.positive
    assert np.all(sp.u_dagger.u[1:] > 0.0)


def test_boundary_functional_zero_voltage_harmonic():
    # B(0, 2 - 2/r) = 1/2: the gamma term integrates the kernel against the
    # harmonic profile and the slope term contributes H'(2) = 1/2
    p = PARAMS["(2,3,1)"]
    errs = []
    for n in (129, 257):
        g = RadialGrid(n)
        errs.append(abs(boundary_functional(0.0, harmonic_H(g.r), p, g) - 0.5))
    assert errs[-1] <= 1e-6
    # third-order cathode stencil: one refinement shrinks the error ~8x
    assert errs[0] / errs[-1] >= 6.0


def test_no_sign_change_reports_scan(cache):
    p = Parameters(2.0, 3.0, 1e-6)
    with pytest.raises(NoSignChange) as exc:
        sparking_voltage(p, cache.grid(65))
    assert exc.value.scan_lambdas.size == exc.value.scan_B.size
    assert exc.value.scan_lambdas.size >= 8
    assert np.all(exc.value.scan_B > 0.0)


@pytest.mark.parametrize("key", sorted(PARAMS))
def test_sparking_voltage_solves_each_voltage_once(key, cache, monkeypatch):
    from spark_branch import electron

    g = cache.grid(257)
    p = PARAMS[key]
    seen = []
    original = electron.solve_electron

    def recording(lam, *args, **kwargs):
        seen.append(float(lam))
        return original(lam, *args, **kwargs)

    monkeypatch.setattr(electron, "solve_electron", recording)
    sp = sparking_voltage(p, g)
    assert len(seen) == len(set(seen))
    # the returned profile is the root's own solve, not a re-solve
    assert seen[-1] == sp.lambda_dagger == sp.u_dagger.lam
    fresh = original(sp.lambda_dagger, p, g)
    assert np.array_equal(sp.u_dagger.u, fresh.u)
    assert sp.residual_B == fresh.B_value == boundary_B(fresh, p, g)


@pytest.mark.parametrize("n", [257, 1025])
@pytest.mark.parametrize("key", sorted(PARAMS))
def test_sparking_voltage_refines_in_few_solves(key, n, cache, monkeypatch):
    # safeguarded Newton needs a handful of solves beyond the scan
    from spark_branch import electron

    calls = []
    original = electron.solve_electron

    def counting(lam, *args, **kwargs):
        calls.append(lam)
        return original(lam, *args, **kwargs)

    monkeypatch.setattr(electron, "solve_electron", counting)
    sp = sparking_voltage(PARAMS[key], cache.grid(n))
    assert len(calls) - sp.scan_lambdas.size <= 6
    assert sp.lambda_dagger == pytest.approx(cache.spark(key, n).lambda_dagger,
                                             abs=1e-9)


# "slope": the profiles carry the imposed cathode slope u'(2) = 1
@pytest.mark.parametrize("key", sorted(PARAMS),
                         ids=[f"{key}-slope" for key in sorted(PARAMS)])
def test_dB_dlambda_matches_central_differences(key, cache):
    p = PARAMS[key]
    g = cache.grid(257)
    for lam in (cache.spark(key, 257).lambda_dagger, 1.0, 20.0):
        h = 1e-5 * lam
        fd = (solve_electron(lam + h, p, g).B_value
              - solve_electron(lam - h, p, g).B_value) / (2.0 * h)
        exact = dB_dlambda(solve_electron(lam, p, g), p, g)
        assert abs(exact - fd) <= 1e-6 * abs(exact)


@pytest.mark.parametrize("key", sorted(PARAMS))
def test_transversality_is_four_times_dB_dlambda(key, cache):
    # third certificate of the crossing: F = psi_b B_lambda with psi_b = 4 w(2),
    # independent of the null triple; the gap is second order in delta
    from spark_branch.adjoint import transversality_F

    p = PARAMS[key]
    errs = []
    for n in (129, 257):
        g = cache.grid(n)
        sp = cache.spark(key, n)
        F = transversality_F(sp.lambda_dagger, sp.u_dagger, cache.wsol(key, n), p, g)
        errs.append(abs(F / dB_dlambda(sp.u_dagger, p, g) - 4.0))
        assert errs[-1] <= 5.0 * g.delta ** 2
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_critical_gamma_round_trip(cache):
    p = PARAMS["(2,3,1)"]
    g = cache.grid(257)
    lam = cache.spark("(2,3,1)", 257).lambda_dagger
    # at the sparking voltage the critical yield is the actual yield
    assert critical_gamma(lam, p, g) == pytest.approx(p.gamma, abs=1e-9)
    # monotone consequence: below the root the needed yield exceeds gamma
    assert critical_gamma(lam - 0.5, p, g) > p.gamma


def test_emission_kernel_positive(cache):
    g = cache.grid(129)
    for lam in (0.5, 3.574, 20.0):
        kern = emission_kernel(lam, g, PARAMS["(2,3,1)"])
        assert kern.shape == (g.n,)
        assert np.all(kern > 0.0)


# ---------------------------------------------------------------------------
# comparison profile U
# ---------------------------------------------------------------------------

def test_auxiliary_U_cathode_identities(cache):
    g = cache.grid(257)
    for lam in (1.0, 5.0, 20.0, 60.0):
        # the closed-form slope expression collapses to 1 identically
        assert abs(auxiliary_U_cathode_slope(lam) - 1.0) <= 1e-12
        U = auxiliary_U(lam, g)
        assert U[0] == 0.0
        assert abs(U[-1] - auxiliary_U_cathode_value(lam)) <= 1e-13
    with pytest.raises(ValueError):
        auxiliary_U_cathode_slope(0.0)
    with pytest.raises(ValueError):
        auxiliary_U_cathode_slope(-3.0)


def test_auxiliary_U_solve_gap_second_order(cache):
    # collocation re-solve of the U problem lands within 5 delta^2 of the
    # closed form, at every voltage including the stiff lambda = 60
    for n in (129, 257, 513):
        g = cache.grid(n)
        for lam in (1.0, 5.0, 20.0, 60.0):
            assert auxiliary_U_solve_gap(lam, g) <= 5.0 * g.delta ** 2


def test_auxiliary_U_stencil_residual_order(cache):
    # the raw interior stencil residual of the closed form converges at
    # order 2 with a lambda-dependent constant (large at lambda = 60)
    for lam in (1.0, 5.0, 60.0):
        errs = [auxiliary_U_stencil_residual(lam, cache.grid(n))
                for n in (129, 257, 513)]
        assert np.all(convergence_orders(errs) > 1.9)


def test_boundary_B_of_U_negative_at_high_voltage(cache):
    val = boundary_B_of_U(60.0, PARAMS["(2,3,1)"], cache.grid(257))
    assert val < 0.0
    assert np.isfinite(val)


def test_solution_dominates_U(cache):
    # normalized the same way (unit cathode slope), the solved profile lies
    # above the comparison profile at every node
    g = cache.grid(257)
    p = PARAMS["(2,3,1)"]
    for lam in (5.0, 20.0, 60.0):
        u = solve_electron(lam, p, g).u
        U = auxiliary_U(lam, g)
        assert np.min(u - U) >= -1e-10
