"""Nullspace triple, adjoint profile w, duality identity, transversality."""

import numpy as np
import pytest

from conftest import CONTINUUM, PARAMS, LAMBDA_REF_231
from oracles import shoot_adjoint_w, svd_probe_reference
from spark_branch.electron import solve_electron
from spark_branch.adjoint import (solve_adjoint_w, adjoint_forcing,
                                  nullspace_triple, nullspace_residual,
                                  pack_triple, linearized_matrix, svd_probe,
                                  transversality_F, transversality_crosscheck,
                                  adjoint_identity_check,
                                  pairing_with_left_null, _forward_rows)


@pytest.mark.parametrize("key", sorted(PARAMS))
def test_adjoint_profile_normalization(key, cache):
    for n in (257, 1025):
        w = cache.wsol(key, n)
        # w(1) = 0 pinned exactly, w(2) = 1 drops out of the construction to
        # O(delta^2)
        assert w.w[0] == 0.0
        assert abs(w.w[-1] - 1.0) <= 2e-4
        assert w.robin_residual <= 1e-10


def test_adjoint_profile_against_shooting(cache):
    # independent DOP853 integration of the same inhomogeneous problem;
    # the gap is the collocation truncation error, constant ~9 delta^2
    p = PARAMS["(2,3,1)"]
    for n in (129, 257):
        g = cache.grid(n)
        gap = np.max(np.abs(shoot_adjoint_w(5.0, p, g) - solve_adjoint_w(5.0, p, g).w))
        assert gap <= 15.0 * g.delta ** 2


def test_adjoint_forcing_scales_with_gamma(cache):
    g = cache.grid(129)
    f1 = adjoint_forcing(3.0, PARAMS["(2,3,1)"], g)
    import dataclasses
    p_small = dataclasses.replace(PARAMS["(2,3,1)"], gamma=1e-12)
    f2 = adjoint_forcing(3.0, p_small, g)
    assert np.max(np.abs(f2)) <= 1e-12 * np.max(np.abs(f1)) * 1.0001


@pytest.mark.parametrize("key", sorted(PARAMS))
def test_nullspace_triple_annihilated(key, cache):
    g = cache.grid(257)
    res = nullspace_residual(cache.spark(key, 257).lambda_dagger,
                             cache.triple(key, 257), PARAMS[key], g)
    assert set(res) >= {"transport", "electron", "potential", "emission", "total"}
    assert res["total"] <= 5.0 * g.delta ** 2
    # at the discrete level the triple is a true null vector, far below
    # the truncation budget
    assert res["total"] <= 1e-8


@pytest.mark.parametrize("key", sorted(PARAMS))
def test_linearization_has_simple_kernel(key, cache):
    g = cache.grid(257)
    s1, s2 = svd_probe(cache.spark(key, 257).lambda_dagger, PARAMS[key], g)
    assert s1 <= 5.0 * g.delta ** 2
    assert s2 >= 0.01


@pytest.mark.parametrize("n", [129, 257])
@pytest.mark.parametrize("key", sorted(PARAMS))
def test_svd_probe_matches_dense_reference(key, n, cache):
    # band-LU inverse iteration against a full dense SVD; s1 sits at the
    # rounding floor on both routes (measured <= 5.3e-12)
    g = cache.grid(n)
    lam = cache.spark(key, n).lambda_dagger
    s1, s2 = svd_probe(lam, PARAMS[key], g)
    ref1, ref2 = svd_probe_reference(lam, PARAMS[key], g)
    assert abs(s2 - ref2) <= 1e-10 * ref2
    assert max(s1, ref1) <= 1e-10


@pytest.mark.parametrize("key", sorted(PARAMS))
def test_svd_probe_on_fine_grids(key, cache):
    # no grid cap: s1 stays within the truncation budget, and s2 converges
    # in n at first order (its successive differences about halve)
    s2 = []
    for n in (513, 1025, 2049, 4097):
        g = cache.grid(n)
        s1, s = svd_probe(cache.spark(key, n).lambda_dagger, PARAMS[key], g)
        assert s1 <= 5.0 * g.delta ** 2
        s2.append(s)
    diffs = np.abs(np.diff(s2))
    assert np.all(diffs[:-1] / diffs[1:] >= 1.8)


@pytest.mark.parametrize("key", sorted(PARAMS))
def test_transversality_matches_continuum_reference(key, cache):
    g = cache.grid(257)
    lam = cache.spark(key, 257).lambda_dagger
    p = PARAMS[key]
    u = solve_electron(lam, p, g)
    F = transversality_F(lam, u, cache.wsol(key, 257), p, g)
    assert abs(F - CONTINUUM[key]["F"]) <= 10.0 * g.delta ** 2
    assert abs(F) > max(10.0 * g.delta ** 2, 1e-6)


@pytest.mark.parametrize("key", sorted(PARAMS))
def test_transversality_double_evaluation(key, cache):
    g = cache.grid(257)
    lam = cache.spark(key, 257).lambda_dagger
    p = PARAMS[key]
    u = solve_electron(lam, p, g)
    F = transversality_F(lam, u, cache.wsol(key, 257), p, g)
    Fx = transversality_crosscheck(lam, cache.triple(key, 257),
                                   cache.wsol(key, 257), p, g)
    assert abs(F - Fx) <= 5.0 * g.delta ** 2


def test_transversality_double_evaluation_order(cache):
    # at a fixed voltage (so the moving root cannot mask errors) the two
    # assemblies agree to O(delta^2): constants 7.2 and 5.8 measured at
    # n = 129 and 257, order ~2.3
    p = PARAMS["(2,3,1)"]
    gaps = []
    for n in (129, 257):
        g = cache.grid(n)
        u = solve_electron(LAMBDA_REF_231, p, g)
        w = solve_adjoint_w(LAMBDA_REF_231, p, g)
        tri = nullspace_triple(LAMBDA_REF_231, u, p, g)
        gap = abs(transversality_F(LAMBDA_REF_231, u, w, p, g)
                  - transversality_crosscheck(LAMBDA_REF_231, tri, w, p, g))
        assert gap <= 20.0 * g.delta ** 2
        gaps.append(gap)
    assert np.log2(gaps[0] / gaps[1]) >= 2.0


def test_crosscheck_detects_wrong_profile(cache):
    # feeding a non-solution triple must break the agreement; this is what
    # makes carrying both assemblies worthwhile
    g = cache.grid(257)
    key = "(2,3,1)"
    lam = cache.spark(key, 257).lambda_dagger
    p = PARAMS[key]
    u = solve_electron(lam, p, g)
    tri = cache.triple(key, 257)
    import dataclasses
    bad = dataclasses.replace(tri, phi_e=tri.phi_e * (1.0 + 0.05 * (g.r - 1.0)))
    F = transversality_F(lam, u, cache.wsol(key, 257), p, g)
    Fx_bad = transversality_crosscheck(lam, bad, cache.wsol(key, 257), p, g)
    assert abs(F - Fx_bad) > 50.0 * g.delta ** 2


def test_duality_identity_and_refinement(cache):
    p = PARAMS["(2,3,1)"]
    lam = cache.spark("(2,3,1)", 257).lambda_dagger
    e257 = adjoint_identity_check(lam, p, cache.grid(257), n_trials=10, seed=0)
    e513 = adjoint_identity_check(lam, p, cache.grid(513), n_trials=10, seed=0)
    assert e257 <= 1e-3
    # quadrature and stencils are matched, so halving delta divides the
    # defect by ~4 (measured ratio 4.09)
    assert e257 / e513 >= 4.0


def test_pairing_with_left_null_small_for_any_smooth_triple(cache):
    # <L S, Psi> collapses to a pure boundary term for the left null vector;
    # for arbitrary smooth S it is O(delta^2), not just for the nullspace
    g = cache.grid(257)
    p = PARAMS["(2,3,1)"]
    lam = cache.spark("(2,3,1)", 257).lambda_dagger
    w = cache.wsol("(2,3,1)", 257)
    r = g.r
    S_i = 0.3 * (r - 1.0) * (2.2 - r)
    S_e = 0.4 * (r - 1.0) * np.exp(-r)
    W = 0.2 * np.sin(np.pi * (r - 1.0))
    rows = _forward_rows(lam, S_i, S_e, W, p, g)
    assert abs(pairing_with_left_null(lam, rows, w, p, g)) <= g.delta ** 2


def test_pack_triple_layout(cache):
    tri = cache.triple("(2,3,1)", 129)
    v = pack_triple(tri)
    n = cache.grid(129).n
    assert v.shape == (3 * n - 4,)
    assert np.allclose(v[: n - 1], tri.phi_i[1:])
    # the packed layout is steady.pack's, bit for bit
    assert np.array_equal(v, np.concatenate(
        [tri.phi_i[1:], tri.phi_e[1:], tri.phi_v[1:-1]]))
