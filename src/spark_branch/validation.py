"""Independent cross-checks: adaptive shooting, difference-quotient
Jacobians, and convergence-order fits.

Apart from discrete_bifurcation_pair, which works on the production
Jacobian itself, everything here avoids the banded collocation path of
the production solvers, so the two routes can disagree: the shooting
oracle integrates initial-value problems with an embedded adaptive
Runge-Kutta pair (DOP853) and superposes homogeneous/particular parts,
which is valid because the boundary-value problems are linear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .grid import GridFunction, RadialGrid
from .model import Parameters, g_fn, harmonic_dH

SHOOT_RTOL = 1e-11
SHOOT_ATOL = 1e-13


@dataclass
class ShootingResult:
    u_samples: GridFunction
    match_norm: float      # max-norm gap vs the collocation solve on the same grid


def _integrate_linear(grid: RadialGrid, q_of_r, f_of_r, y0):
    """Integrate y'' = -(2/r) y' - q(r) y - f(r) from r=1 to r=2."""
    def rhs(r, y):
        return [y[1], -(2.0 / r) * y[1] - q_of_r(r) * y[0] - f_of_r(r)]

    sol = solve_ivp(rhs, (1.0, 2.0), y0, method="DOP853",
                    rtol=SHOOT_RTOL, atol=SHOOT_ATOL, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"shooting integration failed: {sol.message}")
    return sol


def shoot_linear_robin(grid: RadialGrid, q_of_r, f_of_r, cathode_slope: float):
    """Solve -u'' - (2/r)u' - q u = f, u(1)=0, u'(2)=cathode_slope by shooting.

    Superposition: u = u_p + s * u_h with u_h the homogeneous solution of
    unit initial slope and s fixed by the cathode condition.  Returns the
    samples on the grid nodes.
    """
    hom = _integrate_linear(grid, q_of_r, lambda r: 0.0, [0.0, 1.0])
    dh2 = hom.y[1, -1]
    if dh2 == 0.0:
        raise RuntimeError("degenerate shooting: homogeneous slope vanished at cathode")
    if f_of_r is None:
        return (cathode_slope / dh2) * hom.sol(grid.r)[0]
    part = _integrate_linear(grid, q_of_r, f_of_r, [0.0, 0.0])
    s = (cathode_slope - part.y[1, -1]) / dh2
    return part.sol(grid.r)[0] + s * hom.sol(grid.r)[0]


def shoot_electron(lam: float, p: Parameters, grid: RadialGrid) -> ShootingResult:
    """Shooting solution of the electron system, rescaled to u'(2) = 1."""
    if lam <= 0.0:
        raise ValueError("shooting oracle needs lambda > 0")

    def q_of_r(r):
        return g_fn(lam * harmonic_dH(r), p)

    u = shoot_linear_robin(grid, q_of_r, None, 1.0)

    from .electron import solve_electron
    coll = solve_electron(lam, p, grid)
    return ShootingResult(u_samples=u, match_norm=float(np.max(np.abs(u - coll.u))))


def shoot_adjoint_w(lam: float, p: Parameters, grid: RadialGrid) -> np.ndarray:
    """Shooting solution of the normalized adjoint profile w (inhomogeneous
    problem with the same operator, cathode slope -lambda/4)."""
    def q_of_r(r):
        return g_fn(lam * harmonic_dH(r), p)

    def f_of_r(r):
        # gamma e^{lambda/2} h(lambda H') e^{-lambda H/2}, combined exponents
        return (p.gamma * p.a * (2.0 * lam / r ** 2)
                * np.exp(-0.5 * lam + lam / r - p.b * r ** 2 / (2.0 * lam)))

    return shoot_linear_robin(grid, q_of_r, f_of_r, -0.25 * lam)


def fd_jacobian(state, p: Parameters, grid: RadialGrid, eps: float = 1e-6,
                include_lambda: bool = False) -> np.ndarray:
    """Dense central-difference Jacobian of the steady residual in the packed
    unknowns; optionally appends the d/dlambda column."""
    from .steady import pack, residual_vector, unpack

    x0 = pack(state)
    m = x0.size
    cols = m + (1 if include_lambda else 0)
    J = np.empty((m, cols))
    for k in range(m):
        xp = x0.copy()
        xm = x0.copy()
        xp[k] += eps
        xm[k] -= eps
        fp = residual_vector(unpack(state.lam, xp, grid), p, grid)
        fm = residual_vector(unpack(state.lam, xm, grid), p, grid)
        J[:, k] = (fp - fm) / (2.0 * eps)
    if include_lambda:
        sp = unpack(state.lam + eps, x0, grid)
        sm = unpack(state.lam - eps, x0, grid)
        J[:, m] = (residual_vector(sp, p, grid) - residual_vector(sm, p, grid)) / (2.0 * eps)
    return J


def richardson(study_fn, grids) -> tuple:
    """Measured convergence order and extrapolated value from a grid-doubling
    study.  study_fn(grid) -> scalar; grids must come in doubling order
    (each delta half of the previous).  Fits log2 of consecutive-difference
    ratios; returns (order, extrapolated)."""
    grids = list(grids)
    if len(grids) < 3:
        raise ValueError("need at least three grids for an order estimate")
    deltas = [g.delta for g in grids]
    for a, b in zip(deltas, deltas[1:]):
        if not np.isclose(a / b, 2.0, rtol=0.05):
            raise ValueError("grids must halve delta at each stage")
    vals = [study_fn(g) for g in grids]
    diffs = np.diff(vals)
    if np.any(diffs[:-1] == 0.0):
        return np.inf, vals[-1]
    ratios = diffs[:-1] / diffs[1:]
    orders = np.log2(np.abs(ratios))
    order = float(orders[-1])
    extrapolated = vals[-1] + diffs[-1] / (2.0 ** order - 1.0)
    return order, float(extrapolated)


def convergence_orders(errors) -> np.ndarray:
    """log2 ratios of an error sequence from grid doubling."""
    e = np.asarray(errors, dtype=float)
    return np.log2(e[:-1] / e[1:])


def discrete_bifurcation_pair(lam_guess: float, direction_guess: np.ndarray,
                              p: Parameters, grid: RadialGrid,
                              tol: float = 1e-9, max_iter: int = 30):
    """Exact bifurcation point of the DISCRETE steady system.

    The upwind transport discretization shifts the voltage at which the
    trivial-family Jacobian goes singular by O(delta) relative to the
    continuum sparking voltage, and tilts the null direction by the same
    order.  Comparisons of branch departure against "s times the null
    direction" must use this pair, not the continuum one, or the flavor
    gap pollutes the remainder at O(delta * s).

    Newton on the extended system {L(lam) phi = 0, <c, phi> = 1} with c
    the weighted guess direction and L(lam) the steady Jacobian at the
    trivial state (steady.trivial_linearization), so the pair is a
    singular point of the very matrix the branch corrector factors.  The
    lambda column (dL/dlam) phi is exactly dresidual_dlambda at (lam,
    phi_i, phi_e, 0): where V = 0 the residual is linear in (rho_i, R_e),
    and the V columns of L do not depend on lam.  Returns (lam_star, phi)
    with phi normalized to unit weighted norm.
    """
    from .steady import (BandLU, dresidual_dlambda, pack_weights,
                         trivial_linearization, unpack)

    pw = pack_weights(grid)
    c = pw * direction_guess
    c /= np.dot(c, direction_guess)
    phi = direction_guess.copy()
    lam = float(lam_guess)
    # rounding floor of ||L phi||: matrix entries scale like 1/delta^2
    tol = max(tol, 200.0 * np.finfo(float).eps / grid.delta ** 2)
    for _ in range(max_iter):
        L = trivial_linearization(lam, p, grid)
        res = np.concatenate([L @ phi, [np.dot(c, phi) - 1.0]])
        nrm = np.linalg.norm(res)
        if nrm <= tol:
            break
        state = unpack(lam, phi, grid)
        state.V[:] = 0.0
        col = dresidual_dlambda(state, p, grid)
        step = BandLU(L, grid, col, c).solve(-res)
        phi = phi + step[:-1]
        lam += float(step[-1])
    else:
        raise RuntimeError(f"bifurcation-pair Newton stalled at |res|={nrm:.3e}")
    phi = phi / np.sqrt(np.dot(pw * phi, phi))
    return lam, phi
