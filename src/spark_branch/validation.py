"""Cross-checks of the production solvers: the difference-quotient
Jacobian behind `validate`, the exact bifurcation point of the discrete
system, and convergence-order fits.

fd_jacobian differences the residual and never touches the analytic
Jacobian, so the two routes can disagree; discrete_bifurcation_pair
works on the production Jacobian itself.  richardson and
convergence_orders fit orders from grid-doubling studies.
"""

from __future__ import annotations

import numpy as np

from .grid import RadialGrid
from .model import Parameters


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

    Started from the continuum pair (lambda_dagger, packed triple) it
    converges at its first residual check: the box-scheme transport rows
    are the trapezoid recursion that builds phi_i, so the triple is a
    discrete null vector to rounding.

    Newton on the extended system {L(lam) phi = 0, <c, phi> = 1} with c
    the weighted guess direction and L(lam) the steady Jacobian at the
    trivial state (steady.trivial_linearization), so the pair is a
    singular point of the very matrix the branch corrector factors.  The
    lambda column (dL/dlam) phi is exactly dresidual_dlambda at (lam,
    phi_i, phi_e, 0): where V = 0 the residual is linear in (rho_i, R_e),
    and the V columns of L do not depend on lam.  Returns (lam_star, phi)
    with phi normalized to unit weighted norm.  Raises
    steady.MaxIterExceeded, carrying the last iterate (lam, phi) as a
    State and the residual norm, when max_iter steps do not converge.
    """
    from .steady import (BandLU, MaxIterExceeded, dresidual_dlambda,
                         pack_weights, trivial_linearization, unpack)

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
        raise MaxIterExceeded(
            f"bifurcation-pair Newton not converged in {max_iter} steps",
            unpack(lam, phi, grid), float(nrm))
    phi = phi / np.sqrt(np.dot(pw * phi, phi))
    return lam, phi
