"""Acceptance gate: twelve pinned criteria, one printed line each.

Each test computes its measured quantities, prints a single PASS/FAIL
line through conftest.record_criterion (echoed again in the terminal
summary), and then asserts.  Tolerances are pinned here and nowhere
else; the per-module tests probe the same machinery more broadly.
"""

import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import CONTINUUM, PARAMS, record_criterion
from oracles import boundary_B_of_U
from spark_branch.model import Parameters, harmonic_H, g_fn, in_gamma_region
from spark_branch.grid import RadialGrid
from spark_branch.electron import (solve_electron, boundary_functional,
                                   auxiliary_U, auxiliary_U_cathode_slope,
                                   auxiliary_U_solve_gap)
from spark_branch.adjoint import (nullspace_residual, svd_probe,
                                  transversality_F, transversality_crosscheck,
                                  adjoint_identity_check)
from spark_branch.steady import (State, trivial_state, pack, unpack,
                                 residual_vector, norm_Y, jacobian,
                                 admissibility, ion_consistency,
                                 pack_weights)
from spark_branch.validation import (fd_jacobian, richardson,
                                     discrete_bifurcation_pair)
from spark_branch.continuation import trace_branch
from spark_branch.cli import branch_csv

TERMINATION_KINDS = {"DensityBlowup", "VoltageBlowup", "HalfLoop",
                     "FieldDegeneracy", "PositivityLoss", "MaxSteps",
                     "NewtonFailure"}


def test_criterion_01_trivial_family_exact():
    t0 = time.perf_counter()
    g = RadialGrid(257)
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        lam = max(50.0 * rng.uniform(), 1e-3)
        res = residual_vector(trivial_state(lam, g), PARAMS["(2,3,1)"], g)
        worst = max(worst, float(np.max(np.abs(res))))
    dt = time.perf_counter() - t0
    ok = worst == 0.0 and dt < 1.0
    record_criterion(1, "trivial family residual exactly zero", ok,
                     f"max |F| = {worst:.1e} over 20 voltages, {dt:.2f}s")
    assert ok


def test_criterion_02_zero_voltage_boundary_functional(cache):
    t0 = time.perf_counter()
    g = cache.grid(257)
    err = abs(boundary_functional(0.0, harmonic_H(g.r), PARAMS["(2,3,1)"], g)
              - 0.5)
    dt = time.perf_counter() - t0
    ok = err <= 1e-6 and dt < 1.0
    record_criterion(2, "B(0, 2-2/r) = 1/2 at n=257", ok,
                     f"|B - 1/2| = {err:.2e} <= 1e-6, {dt:.2f}s")
    assert ok


def test_criterion_03_g_negative_in_gamma_region():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = -np.inf
    for _ in range(1000):
        a = np.exp(rng.uniform(np.log(0.2), np.log(50.0)))
        b = 4.0 * a / np.e * (1.0 + np.exp(rng.uniform(np.log(1e-4), np.log(10.0))))
        p = Parameters(a, b, 1.0)
        ell = np.exp(rng.uniform(np.log(1e-6), np.log(1e3), size=8))
        worst = max(worst, float(np.max(g_fn(ell, p))))
    dt = time.perf_counter() - t0
    ok = worst < 0.0 and dt < 1.0
    record_criterion(3, "g < 0 throughout the emission region", ok,
                     f"max g = {worst:.2e} over 1000 samples, {dt:.2f}s")
    assert ok


def test_criterion_04_comparison_profile_identities(cache):
    t0 = time.perf_counter()
    g = cache.grid(257)
    slope_err = max(abs(auxiliary_U_cathode_slope(lam) - 1.0)
                    for lam in (1.0, 5.0, 20.0, 60.0))
    solve_gap = max(auxiliary_U_solve_gap(lam, g)
                    for lam in (1.0, 5.0, 20.0, 60.0))
    b60 = boundary_B_of_U(60.0, PARAMS["(2,3,1)"], g)
    dt = time.perf_counter() - t0
    ok = (slope_err <= 1e-12 and solve_gap <= 5.0 * g.delta ** 2
          and b60 < 0.0 and dt < 1.0)
    record_criterion(4, "comparison profile U identities", ok,
                     f"slope err {slope_err:.1e}, solve gap "
                     f"{solve_gap / g.delta ** 2:.2f} d^2, B(60,U) = {b60:.3f}, "
                     f"{dt:.2f}s")
    assert ok


def test_criterion_05_sparking_voltages(cache):
    t0 = time.perf_counter()
    details = []
    ok = True
    for key in sorted(PARAMS):
        sp = cache.spark(key, 257)
        ok &= sp.lambda_dagger > 0.0 and abs(sp.residual_B) <= 1e-10
        details.append(f"{key}: {sp.lambda_dagger:.6f}")
    order, _ = richardson(lambda g: cache.spark("(2,3,1)", g.n).lambda_dagger,
                          [cache.grid(n) for n in (129, 257, 513)])
    ok &= order >= 1.8
    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    record_criterion(5, "sparking voltages, |B| <= 1e-10, order", ok,
                     f"{'; '.join(details)}; grid order {order:.2f}, {dt:.1f}s")
    assert ok


def test_criterion_06_positivity_and_domination(cache):
    t0 = time.perf_counter()
    scan_ok = all(bool(np.all(cache.spark(key, 257).scan_positive))
                  for key in sorted(PARAMS))
    g = cache.grid(257)
    margin = min(float(np.min(solve_electron(lam, PARAMS["(2,3,1)"], g).u
                              - auxiliary_U(lam, g)))
                 for lam in (5.0, 20.0, 60.0))
    dt = time.perf_counter() - t0
    ok = scan_ok and margin >= -1e-10 and dt < 10.0
    record_criterion(6, "u > 0 scanned; u >= U at 5, 20, 60", ok,
                     f"scan positive: {scan_ok}, min(u - U) = {margin:.1e}, "
                     f"{dt:.1f}s")
    assert ok


def test_criterion_07_nullspace_and_duality(cache):
    t0 = time.perf_counter()
    g = cache.grid(257)
    bound = 5.0 * g.delta ** 2
    ok = True
    worst_res, worst_s1, worst_s2 = 0.0, 0.0, np.inf
    for key in sorted(PARAMS):
        lam = cache.spark(key, 257).lambda_dagger
        res = nullspace_residual(lam, cache.triple(key, 257), PARAMS[key], g)
        s1, s2 = svd_probe(lam, PARAMS[key], g)
        worst_res = max(worst_res, res["total"])
        worst_s1 = max(worst_s1, s1)
        worst_s2 = min(worst_s2, s2)
    ok &= worst_res <= bound and worst_s1 <= bound and worst_s2 >= 0.01
    lam1 = cache.spark("(2,3,1)", 257).lambda_dagger
    e257 = adjoint_identity_check(lam1, PARAMS["(2,3,1)"], g,
                                  n_trials=10, seed=0)
    e513 = adjoint_identity_check(lam1, PARAMS["(2,3,1)"], cache.grid(513),
                                  n_trials=10, seed=0)
    ok &= e257 <= 1e-3 and e257 / e513 >= 4.0
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    record_criterion(7, "nullspace, sigma split, duality identity", ok,
                     f"res {worst_res:.1e}, s1 {worst_s1:.1e}, s2 {worst_s2:.2f}, "
                     f"identity {e257:.2e} shrink x{e257 / e513:.2f}, {dt:.1f}s")
    assert ok


def test_criterion_08_transversality_double_evaluation(cache):
    t0 = time.perf_counter()
    g = cache.grid(257)
    bound = 5.0 * g.delta ** 2
    gaps, magnitudes = [], []
    for key in sorted(PARAMS):
        lam = cache.spark(key, 257).lambda_dagger
        p = PARAMS[key]
        u = solve_electron(lam, p, g)
        F = transversality_F(lam, u, cache.wsol(key, 257), p, g)
        Fx = transversality_crosscheck(lam, cache.triple(key, 257),
                                       cache.wsol(key, 257), p, g)
        gaps.append(abs(F - Fx))
        magnitudes.append(abs(F))
    n_nonzero = sum(m > 1e-6 for m in magnitudes)
    dt = time.perf_counter() - t0
    ok = max(gaps) <= bound and n_nonzero >= 2 and dt < 10.0
    record_criterion(8, "transversality F vs crosscheck", ok,
                     f"max |F-Fx| = {max(gaps):.1e} <= {bound:.1e}, "
                     f"|F| > 1e-6 for {n_nonzero}/3, {dt:.1f}s")
    assert ok


def test_criterion_09_jacobian_and_newton(cache, branch129_long):
    t0 = time.perf_counter()
    g65 = RadialGrid(65)
    rng = np.random.default_rng(11)
    worst_gap = 0.0
    admissible_all = True
    r = g65.r
    for _ in range(5):
        lam = 1.0 + 5.0 * rng.uniform()
        c = rng.standard_normal(3)
        rho = 0.05 * (c[0] * np.sin(np.pi * (r - 1)) + c[1] * (r - 1) * (2 - r)
                      + c[2] * (r - 1) ** 2 * np.exp(-r))
        c = rng.standard_normal(3)
        Re = 0.04 * (c[0] * np.sin(np.pi * (r - 1)) + c[1] * (r - 1) * np.exp(-r)
                     + c[2] * (r - 1) * (2.2 - r))
        c = rng.standard_normal(2)
        V = 0.02 * (c[0] * np.sin(np.pi * (r - 1))
                    + c[1] * np.sin(2 * np.pi * (r - 1)))
        rho[0] = Re[0] = V[0] = V[-1] = 0.0
        st = State(lam, rho, Re, V)
        admissible_all &= admissibility(st, g65).ok
        Ja = jacobian(st, PARAMS["(2,3,1)"], g65).toarray()
        Jf = fd_jacobian(st, PARAMS["(2,3,1)"], g65)
        worst_gap = max(worst_gap, float(np.max(np.abs(Ja - Jf))
                                         / max(1.0, np.max(np.abs(Ja)))))

    # quadratic contraction from a perturbed branch point
    g = cache.grid(129)
    bp = branch129_long.points[60]
    rng = np.random.default_rng(3)
    x = pack(bp.state) + 1e-2 * rng.standard_normal(3 * g.n - 4)
    norms = []
    for _ in range(8):
        st = unpack(bp.state.lam, x, g)
        res = residual_vector(st, PARAMS["(2,3,1)"], g)
        nrm = norm_Y(res, g)
        norms.append(nrm)
        if nrm < 1e-11:
            break
        x = x - spla.spsolve(jacobian(st, PARAMS["(2,3,1)"], g).tocsc(), res)
    quad = all(b <= a ** 2 for a, b in zip(norms, norms[1:]) if 1e-8 < a < 1.0)
    dt = time.perf_counter() - t0
    ok = (admissible_all and worst_gap <= 1e-6 and quad
          and norms[-1] < 1e-9 and dt < 30.0)
    record_criterion(9, "Jacobian FD agreement; Newton contraction", ok,
                     f"max fd gap {worst_gap:.1e} over 5 states, final "
                     f"residual {norms[-1]:.1e}, quadratic: {quad}, {dt:.1f}s")
    assert ok


def test_criterion_10_local_bifurcation_expansion(cache):
    t0 = time.perf_counter()
    g = cache.grid(257)
    p = PARAMS["(2,3,1)"]
    lam = cache.spark("(2,3,1)", 257).lambda_dagger
    tri = cache.triple("(2,3,1)", 257)
    guess = pack(State(lam, tri.phi_i, tri.phi_e, tri.phi_v))
    lam_star, phi = discrete_bifurcation_pair(lam, guess, p, g)
    br = trace_branch(p, g, limits={"max_steps": 10})
    pw = pack_weights(g)
    ss, rems = [], []
    for pt in br.points[1:]:
        dx = pack(pt.state) - pt.s * phi
        ss.append(pt.s)
        rems.append(float(np.sqrt(np.dot(pw * dx, dx))))
    slope = float(np.polyfit(np.log(ss), np.log(rems), 1)[0])
    dt = time.perf_counter() - t0
    # the box ion row puts the discrete bifurcation point at the scanned
    # root; the slope measured 2.49 (2.07 while the first step absorbed an
    # O(delta) offset between the two)
    ok = (abs(lam_star - lam) <= 1e-9 and slope >= 2.3 and len(ss) == 10
          and dt < 60.0)
    record_criterion(10, "first 10 points: ||x(s) - s phi|| = o(s)", ok,
                     f"log-log slope {slope:.2f} >= 2.3, "
                     f"|lam* - lam| = {abs(lam_star - lam):.1e}, {dt:.1f}s")
    assert ok


def test_criterion_11_branch_integrity(cache, branch257_full):
    t0 = time.perf_counter()
    g = cache.grid(257)
    br = branch257_full
    kind_ok = br.termination.kind in TERMINATION_KINDS
    max_res, positive_ok, admissible_ok = 0.0, True, True
    for pt in br.points[1:]:
        max_res = max(max_res, pt.diagnostics["residual_norm"])
        positive_ok &= pt.diagnostics["positive"]
        admissible_ok &= admissibility(pt.state, g).ok
    rerun = trace_branch(PARAMS["(2,3,1)"], g)
    identical = branch_csv(br) == branch_csv(rerun)
    dt = time.perf_counter() - t0
    ok = (kind_ok and max_res <= 1e-10 and positive_ok and admissible_ok
          and identical and dt < 300.0)
    record_criterion(11, "full trace: definite end, clean points", ok,
                     f"{len(br.points)} pts to s = {br.points[-1].s:.2f}, "
                     f"end {br.termination.kind}, max residual {max_res:.2e}, "
                     f"rerun identical: {identical}, {dt:.1f}s")
    assert ok


def test_criterion_12_ion_consistency_refinement(branch257_full,
                                                 branch129_long):
    # the box ion row is the trapezoid recursion that ion_consistency
    # sums, so on both grids the gap sits at the rounding floor of the
    # density, at every point of the two traces
    t0 = time.perf_counter()
    p = PARAMS["(2,3,1)"]
    worst = {}
    for br in (branch129_long, branch257_full):
        g = br.grid
        worst[g.n] = max(ion_consistency(pt.state, p, g)
                         / max(1.0, pt.diagnostics["sup_rho_i"])
                         for pt in br.points[1:])
    dt = time.perf_counter() - t0
    ok = max(worst.values()) <= 1e-11
    record_criterion(12, "ion balance gap at the rounding floor", ok,
                     f"gap / max(1, sup rho_i) up to {worst[129]:.1e} "
                     f"(n=129, s <= {branch129_long.points[-1].s:.1f}), "
                     f"{worst[257]:.1e} (n=257, s <= "
                     f"{branch257_full.points[-1].s:.1f}), {dt:.1f}s")
    assert ok
