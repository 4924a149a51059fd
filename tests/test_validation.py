"""Independent crosscheck machinery: shooting, FD Jacobians, Richardson."""

import numpy as np
import pytest

from conftest import PARAMS
from oracles import shoot_adjoint_w, shoot_electron, shoot_linear_robin
from spark_branch.grid import RadialGrid
from spark_branch.electron import auxiliary_U, solve_electron
from spark_branch.adjoint import nullspace_triple
from spark_branch.steady import (State, dresidual_dlambda, pack, pack_weights,
                                 trivial_linearization, unpack)
from spark_branch.validation import (fd_jacobian, richardson,
                                     convergence_orders,
                                     discrete_bifurcation_pair)

P1 = PARAMS["(2,3,1)"]


def test_shoot_linear_robin_reproduces_closed_form():
    # the comparison-profile equation has a closed solution; the shooting
    # integrator must hit it to integrator accuracy, with no grid error
    g = RadialGrid(257)
    for lam in (1.0, 5.0, 20.0):
        u = shoot_linear_robin(g, lambda r: -lam ** 2 / r ** 4, None, 1.0)
        assert np.max(np.abs(u - auxiliary_U(lam, g))) <= 1e-9


def test_shoot_electron_matches_collocation_at_stencil_order():
    errs = []
    for n in (65, 129, 257):
        g = RadialGrid(n)
        m = shoot_electron(5.0, P1, g).match_norm
        assert m <= 3.0 * g.delta ** 2
        errs.append(m)
    assert np.all(convergence_orders(errs) > 1.9)


def test_shoot_electron_rejects_nonpositive_voltage():
    with pytest.raises(ValueError):
        shoot_electron(0.0, P1, RadialGrid(65))


def test_richardson_on_synthetic_quadratic_sequence():
    grids = [RadialGrid(n) for n in (65, 129, 257)]
    vals = [4.0 + 3.0 * g.delta ** 2 for g in grids]
    order, extrapolated = richardson(lambda g: vals[grids.index(g)], grids)
    assert order == pytest.approx(2.0, abs=1e-6)
    assert extrapolated == pytest.approx(4.0, abs=1e-9)
    with pytest.raises(ValueError):
        richardson(lambda g: 0.0, grids[:2])


def test_convergence_orders_basic():
    orders = convergence_orders([1.0, 0.25, 0.0625])
    assert np.allclose(orders, 2.0)


def test_fd_jacobian_lambda_column(cache):
    g = RadialGrid(65)
    r = g.r
    st = State(2.0, 0.05 * (r - 1) * (2 - r), 0.04 * (r - 1) * np.exp(-r),
               0.02 * np.sin(np.pi * (r - 1)))
    full = fd_jacobian(st, P1, g, include_lambda=True)
    assert full.shape == (3 * g.n - 4, 3 * g.n - 3)
    assert np.max(np.abs(full[:, -1] - dresidual_dlambda(st, P1, g))) <= 1e-5


def test_discrete_bifurcation_pair_properties(cache):
    offsets = {}
    for n in (129, 257):
        g = cache.grid(n)
        lam = cache.spark("(2,3,1)", n).lambda_dagger
        tri = cache.triple("(2,3,1)", n)
        guess = pack(State(lam, tri.phi_i, tri.phi_e, tri.phi_v))
        lam_star, phi = discrete_bifurcation_pair(lam, guess, P1, g)
        offsets[n] = lam_star - lam
        # unit weighted norm and proximity to the scanned root
        pw = pack_weights(g)
        assert np.dot(pw * phi, phi) == pytest.approx(1.0, abs=1e-9)
        assert abs(offsets[n]) <= 5.0 * g.delta
    # the pair voltage approaches the scanned root at first order: the
    # offset is the upwind flavor gap and halves with delta
    assert offsets[129] / offsets[257] == pytest.approx(2.0, abs=0.4)


@pytest.mark.parametrize("n", [65, 257])
@pytest.mark.parametrize("key", sorted(PARAMS))
def test_pair_lambda_column_is_derivative_of_trivial_linearization(key, n,
                                                                    cache):
    # the pair's exact lambda column: dresidual_dlambda at (lam, phi_i,
    # phi_e, 0) is (d/dlam L) phi for every phi, also with a nonzero V block
    p, g = PARAMS[key], cache.grid(n)
    rng = np.random.default_rng(n)
    for lam in (1.0, cache.spark(key, n).lambda_dagger, 20.0):
        phi = rng.standard_normal(3 * n - 4)
        state = unpack(lam, phi, g)
        state.V[:] = 0.0
        col = dresidual_dlambda(state, p, g)
        h = 1e-5 * lam
        fd = (trivial_linearization(lam + h, p, g) @ phi
              - trivial_linearization(lam - h, p, g) @ phi) / (2.0 * h)
        assert np.max(np.abs(col - fd)) <= 1e-7 * np.max(np.abs(col))


@pytest.mark.parametrize("n", [129, 257])
@pytest.mark.parametrize("key", sorted(PARAMS))
def test_discrete_bifurcation_pair_assembles_once_per_iteration(key, n, cache,
                                                                monkeypatch):
    from spark_branch import steady

    calls = {"L": 0, "lu": 0}
    assemble, factor = steady.trivial_linearization, steady.BandLU

    def counting_assemble(*args):
        calls["L"] += 1
        return assemble(*args)

    def counting_factor(*args):
        calls["lu"] += 1
        return factor(*args)

    monkeypatch.setattr(steady, "trivial_linearization", counting_assemble)
    monkeypatch.setattr(steady, "BandLU", counting_factor)
    g = cache.grid(n)
    lam = cache.spark(key, n).lambda_dagger
    tri = cache.triple(key, n)
    guess = pack(State(lam, tri.phi_i, tri.phi_e, tri.phi_v))
    discrete_bifurcation_pair(lam, guess, PARAMS[key], g)
    # one factorization per Newton iteration, one assembly per iteration
    # plus the final residual check
    assert calls["lu"] >= 1
    assert calls["L"] == calls["lu"] + 1


def test_discrete_bifurcation_pair_nullvector_quality(cache):
    from spark_branch.steady import trivial_state, jacobian

    g = cache.grid(129)
    lam = cache.spark("(2,3,1)", 129).lambda_dagger
    tri = cache.triple("(2,3,1)", 129)
    guess = pack(State(lam, tri.phi_i, tri.phi_e, tri.phi_v))
    lam_star, phi = discrete_bifurcation_pair(lam, guess, P1, g)
    # L is the matrix the pair iterates on, so phi is a null vector to
    # the pair's own stopping tolerance
    L = jacobian(trivial_state(lam_star, g), P1, g)
    tol = max(1e-9, 200.0 * np.finfo(float).eps / g.delta ** 2)
    assert np.max(np.abs(L @ phi)) <= tol


def test_discrete_bifurcation_pair_stall_is_a_newton_error(cache):
    # one step cannot converge from the continuum pair: the failure is a
    # typed corrector error carrying the last iterate and its residual
    from spark_branch.steady import MaxIterExceeded, NewtonError

    g = cache.grid(129)
    lam = cache.spark("(2,3,1)", 129).lambda_dagger
    tri = cache.triple("(2,3,1)", 129)
    guess = pack(State(lam, tri.phi_i, tri.phi_e, tri.phi_v))
    with pytest.raises(MaxIterExceeded) as info:
        discrete_bifurcation_pair(lam, guess, P1, g, max_iter=1)
    assert isinstance(info.value, NewtonError)
    last = info.value.state
    assert last.lam != lam and abs(last.lam - lam) <= 5.0 * g.delta
    assert last.V[0] == last.V[-1] == last.rho_i[0] == 0.0
    assert np.all(np.isfinite(pack(last)))
    assert info.value.residual_norm > 1e-9
