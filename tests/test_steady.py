"""Steady nonlinear system: residual, Jacobian, Newton, diagnostics."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import PARAMS
from oracles import cathode_flux_gap, trivial_linearization_reference
from spark_branch.model import Parameters, townsend_h, harmonic_H, harmonic_dH
from spark_branch.grid import RadialGrid, weighted_inner
from spark_branch.electron import solve_electron
from spark_branch.adjoint import nullspace_triple
from spark_branch.steady import (State, trivial_state, pack, pack_weights,
                                 unpack, field, residual, residual_vector,
                                 norm_Y, jacobian, dresidual_dlambda,
                                 admissibility, ion_consistency, densities,
                                 newton_solve,
                                 AdmissibilityError, NewtonError,
                                 MaxIterExceeded)
from spark_branch.validation import fd_jacobian, convergence_orders

P1 = PARAMS["(2,3,1)"]


def _smooth_state(g, lam, rng):
    """Random smooth admissible state with pinned boundary entries."""
    r = g.r
    c = rng.standard_normal(3)
    rho = 0.05 * (c[0] * np.sin(np.pi * (r - 1)) + c[1] * (r - 1) * (2 - r)
                  + c[2] * (r - 1) ** 2 * np.exp(-r))
    c = rng.standard_normal(3)
    Re = 0.04 * (c[0] * np.sin(np.pi * (r - 1)) + c[1] * (r - 1) * np.exp(-r)
                 + c[2] * (r - 1) * (2.2 - r))
    c = rng.standard_normal(2)
    V = 0.02 * (c[0] * np.sin(np.pi * (r - 1)) + c[1] * np.sin(2 * np.pi * (r - 1)))
    rho[0] = Re[0] = V[0] = V[-1] = 0.0
    return State(lam, rho, Re, V)


def test_pack_unpack_round_trip():
    g = RadialGrid(65)
    st = _smooth_state(g, 2.5, np.random.default_rng(0))
    back = unpack(st.lam, pack(st), g)
    assert np.array_equal(back.rho_i, st.rho_i)
    assert np.array_equal(back.R_e, st.R_e)
    assert np.array_equal(back.V, st.V)
    with pytest.raises(ValueError):
        unpack(2.5, np.zeros(3 * g.n), g)


def test_pack_weights_align_with_pack():
    g = RadialGrid(65)
    st = _smooth_state(g, 2.5, np.random.default_rng(0))
    pw = pack_weights(g)
    assert pw is pack_weights(g)
    np.testing.assert_array_equal(pw, pack(State(st.lam, g.r2w, g.r2w,
                                                 g.r2w)))
    blocks = sum(weighted_inner(u, u, g) for u in (st.rho_i, st.R_e, st.V))
    x = pack(st)
    assert np.dot(pw * x, x) == pytest.approx(blocks, rel=1e-14)


def test_trivial_family_residual_is_exactly_zero():
    g = RadialGrid(129)
    rng = np.random.default_rng(1)
    for lam in 50.0 * rng.uniform(size=20):
        lam = max(lam, 1e-3)
        res = residual_vector(trivial_state(lam, g), P1, g)
        assert np.max(np.abs(res)) == 0.0


def test_field_of_trivial_state_is_background():
    g = RadialGrid(65)
    st = trivial_state(3.0, g)
    assert np.allclose(field(st, g), 3.0 * harmonic_dH(g.r), atol=1e-14)


def test_manufactured_truncation_orders():
    """Each residual block against its hand-derived continuum value:
    upwind ion transport is first order, the rest second order."""
    lam = 2.0

    def blocks(n):
        g = RadialGrid(n)
        r = g.r
        rho = np.sin(np.pi * (r - 1))
        Re = (r - 1) * np.exp(-r)
        V = 0.3 * np.sin(np.pi * (r - 1))
        res = residual(State(lam, rho, Re, V), P1, g)
        Vp = 0.3 * np.pi * np.cos(np.pi * (r - 1))
        Vpp = -0.3 * np.pi ** 2 * np.sin(np.pi * (r - 1))
        lapV = Vpp + 2 * Vp / r
        Rep = np.exp(-r) * (2.0 - r)
        lapRe = np.exp(-r) * (r - 3.0) + 2 * Rep / r
        rhop = np.pi * np.cos(np.pi * (r - 1))
        dH = harmonic_dH(r)
        emh = np.exp(-0.5 * lam * harmonic_H(r))
        E = Vp + lam * dH
        Ep = Vpp - 2 * lam * dH / r
        hE = townsend_h(np.abs(E), P1)
        fluxp = 2 * r * rho * E + r ** 2 * rhop * E + r ** 2 * rho * Ep
        F1c = (P1.k_i / r ** 2) * fluxp - P1.k_e * hE * emh * Re
        c = 0.5 * lam * Vp * dH - lapV + 0.25 * lam ** 2 * dH ** 2 - hE
        F2c = -lapRe - Vp * Rep + c * Re
        F3c = lapV - rho + emh * Re
        F4c = Rep[-1] + (0.25 * lam + Vp[-1]) * Re[-1] \
            - P1.gamma * (P1.k_i / P1.k_e) * np.exp(0.5 * lam) \
            * (Vp[-1] + 0.5 * lam) * rho[-1]
        return (np.max(np.abs(res.F1 - F1c[1:])),
                np.max(np.abs(res.F2 - F2c[1:-1])),
                np.max(np.abs(res.F3 - F3c[1:-1])),
                abs(res.F4 - F4c))

    errs = np.array([blocks(n) for n in (65, 129, 257)])
    o1, o2, o3, o4 = (convergence_orders(errs[:, k]) for k in range(4))
    assert 0.9 <= o1[-1] <= 1.1
    assert np.all(o2 > 1.9)
    assert np.all(o3 > 1.9)
    assert np.all(o4 > 1.9)


def test_jacobian_at_trivial_equals_trivial_linearization(cache):
    """The Jacobian at the trivial state against the linearized operator
    composed block by block from scipy.sparse stencil matrices: same
    pattern, entries equal up to one rounding of the largest entry."""
    eps = np.finfo(float).eps
    for n in (33, 129, 257, 1025):
        g = cache.grid(n)
        for key, p in PARAMS.items():
            for lam in (1.0, cache.spark(key, n).lambda_dagger, 20.0):
                J = jacobian(trivial_state(lam, g), p, g)
                ref = trivial_linearization_reference(lam, p, g)
                assert J.shape == ref.shape
                np.testing.assert_array_equal(J.indptr, ref.indptr)
                np.testing.assert_array_equal(J.indices, ref.indices)
                scale = np.abs(J.data).max()
                assert np.abs(J.data - ref.data).max() <= eps * scale


def test_jacobian_matches_finite_differences():
    g = RadialGrid(65)
    rng = np.random.default_rng(11)
    for _ in range(3):
        st = _smooth_state(g, 1.0 + 5.0 * rng.uniform(), rng)
        assert admissibility(st, g).ok
        Ja = jacobian(st, P1, g).toarray()
        Jf = fd_jacobian(st, P1, g)
        scale = max(1.0, np.max(np.abs(Ja)))
        assert np.max(np.abs(Ja - Jf)) / scale <= 1e-6


def test_lambda_derivative_matches_finite_differences():
    g = RadialGrid(65)
    st = _smooth_state(g, 3.0, np.random.default_rng(5))
    col = dresidual_dlambda(st, P1, g)
    full = fd_jacobian(st, P1, g, include_lambda=True)
    assert np.max(np.abs(col - full[:, -1])) <= 1e-5


def test_admissibility_examples():
    g = RadialGrid(129)
    rep = admissibility(trivial_state(1.0, g), g)
    assert rep.ok and rep.min_field == pytest.approx(0.5)
    rep = admissibility(trivial_state(1e-8, g), g)
    assert not rep.ok and rep.min_field == pytest.approx(5e-9)


def test_newton_from_trivial_returns_immediately(cache):
    g = cache.grid(129)
    res = newton_solve(trivial_state(2.0, g), P1, g)
    assert res.iters == 0
    assert res.residual_norm == 0.0


def test_newton_rejects_inadmissible_guess():
    g = RadialGrid(65)
    with pytest.raises(AdmissibilityError):
        newton_solve(trivial_state(1e-8, g), P1, g)


def test_newton_bootstrap_basin(cache):
    # seeded with the bifurcation direction at amplitudes 0.6 to 2.0, the
    # corrector lands on the same nontrivial state just past onset
    g = cache.grid(129)
    lam = cache.spark("(2,3,1)", 129).lambda_dagger + 0.05
    tri = cache.triple("(2,3,1)", 129)
    sups = []
    for amp in (0.6, 1.0, 2.0):
        res = newton_solve(State(lam, amp * tri.phi_i, amp * tri.phi_e,
                                 amp * tri.phi_v), P1, g)
        assert res.residual_norm <= 1e-10
        assert np.all(res.state.R_e[1:] >= 0.0)
        sups.append(np.max(res.state.rho_i))
    assert np.ptp(sups) <= 1e-8
    assert 0.2 <= sups[0] <= 0.35


def test_newton_quadratic_contraction_near_branch(branch129_long, cache):
    # undamped iteration from a perturbed branch point: the residual norm
    # must contract quadratically until it hits the rounding floor
    g = cache.grid(129)
    bp = branch129_long.points[60]
    rng = np.random.default_rng(3)
    x = pack(bp.state) + 1e-2 * rng.standard_normal(3 * g.n - 4)
    norms = []
    for _ in range(8):
        st = unpack(bp.state.lam, x, g)
        res = residual_vector(st, P1, g)
        nrm = norm_Y(res, g)
        norms.append(nrm)
        if nrm < 1e-11:
            break
        x = x - spla.spsolve(jacobian(st, P1, g).tocsc(), res)
    assert norms[-1] < 1e-9
    for a, b in zip(norms, norms[1:]):
        if 1e-8 < a < 1.0:
            assert b <= a ** 2


def test_newton_max_iter_exception_carries_state(cache):
    g = cache.grid(65)
    lam = 3.6
    tri_g = RadialGrid(65)
    rng = np.random.default_rng(7)
    guess = _smooth_state(tri_g, lam, rng)
    with pytest.raises(NewtonError) as exc:
        newton_solve(guess, P1, g, max_iter=1, tol=1e-15)
    assert hasattr(exc.value, "state")
    assert np.isfinite(exc.value.residual_norm)


def test_ion_consistency_scales_linearly(branch129_long, cache):
    # the first-order upwind flux leaves an O(delta) gap in the ion balance
    g = cache.grid(129)
    pt = min(branch129_long.points[1:], key=lambda q: abs(q.s - 1.0))
    gap = ion_consistency(pt.state, P1, g)
    assert gap <= 0.5 * g.delta
    # corrupting the density must be flagged much larger than the clean gap
    bad = pt.state.copy()
    bad.rho_i = bad.rho_i * 1.05
    assert ion_consistency(bad, P1, g) >= 5.0 * gap


def test_densities_and_cathode_flux(branch129_long, cache):
    g = cache.grid(129)
    pt = min(branch129_long.points[1:], key=lambda q: abs(q.s - 1.0))
    rep = densities(pt.state, g)
    assert np.all(rep.rho_e >= -1e-12)
    assert np.max(rep.rho_e) > 0.0
    assert np.max(pt.state.rho_i) > 0.0
    assert cathode_flux_gap(pt.state, P1, g) <= 0.5 * g.delta
