"""The linear electron system and the sparking voltage.

For applied voltage lambda > 0 the rescaled electron density u solves

    u'' + (2/r) u' + g(2*lambda/r**2) u = 0,   u(1) = 0,  u'(2) = 1,

and self-sustainment is encoded in the scalar boundary functional

    B(lambda, u) = u'(2) + (lambda/4) u(2) - gamma * int_1^2 p(r, lambda) u dr,

where p(r, lambda) = a*(lambda/2)*exp(-lambda/2 + lambda/r - b r^2/(2 lambda))
is the ionization weight seen by the cathode through secondary emission.
The sparking voltage is the smallest root of B(., u(., .)): B is positive
as lambda -> 0 (it tends to u'(2)) and goes negative at high voltage when
gamma * a > 1, so a first sign change exists in the emission-dominated
parameter region.

sparking_voltage scans a fixed voltage schedule for the first sign change
and refines it by Newton on B inside the scan bracket, with the exact
dB/dlambda of the discrete B from one more tridiagonal solve.

All exponentials are evaluated with analytically combined exponents; for
lambda <= 1e3 and r in [1,2] no intermediate exceeds exp(lambda).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (GridFunction, RadialGrid, BandedSolveError, integrate,
                   node_dH, radial_laplacian_all_nodes, solve_sl_dirichlet_robin)
from .model import Parameters, g_fn, g_prime

LAMBDA_SCAN_MIN = 1e-2
LAMBDA_MAX_DEFAULT = 100.0
ROOT_TOL_DEFAULT = 1e-10
_SCAN_GEOMETRIC_POINTS = 64
_SCAN_UNIFORM_STEP = 0.25


class NoSignChange(RuntimeError):
    """B stayed positive over the whole scan: no sparking voltage found."""

    def __init__(self, message, scan_lambdas=None, scan_B=None):
        super().__init__(message)
        self.scan_lambdas = scan_lambdas
        self.scan_B = scan_B


class SolverFailure(RuntimeError):
    """Interior collocation solve failed (singular or non-finite system)."""


@dataclass
class ElectronSolution:
    lam: float
    u: GridFunction          # normalized by the imposed slope u'(2) = 1
    B_value: float
    positive: bool


@dataclass
class SparkingResult:
    lambda_dagger: float
    bracket: tuple
    residual_B: float
    u_dagger: ElectronSolution
    scan_lambdas: np.ndarray = field(default=None, repr=False)
    scan_B: np.ndarray = field(default=None, repr=False)
    scan_positive: np.ndarray = field(default=None, repr=False)


def emission_kernel(lam: float, grid: RadialGrid, p: Parameters) -> np.ndarray:
    """p(r, lambda) on the grid, with the lambda -> 0+ limit 0 taken exactly."""
    if lam < 0.0:
        raise ValueError("voltage must be nonnegative")
    if lam == 0.0:
        return np.zeros(grid.n)
    r = grid.r
    exponent = -0.5 * lam + lam / r - p.b * r ** 2 / (2.0 * lam)
    return p.a * (0.5 * lam) * np.exp(exponent)


def solve_electron(lam: float, p: Parameters, grid: RadialGrid) -> ElectronSolution:
    """Tridiagonal collocation solve of the electron system.

    u(1) = 0 holds exactly and u'(2) = 1 is imposed through the one-sided
    stencil row.  The problem is linear, so this fixes the scale of the one
    solution family; the root of B does not depend on the scale.
    """
    q = g_fn(lam * node_dH(grid), p)
    u = _solve_rows(lam, grid, q, 0.0, 1.0)
    sol = ElectronSolution(lam=lam, u=u, B_value=np.nan,
                           positive=bool(np.all(u[1:] > 0.0)))
    sol.B_value = boundary_B(sol, p, grid)
    return sol


def _solve_rows(lam, grid, q, f, cathode_slope):
    """The electron rows with interior forcing f and the cathode slope row
    set to cathode_slope."""
    try:
        return solve_sl_dirichlet_robin(grid, q, f, cathode_slope)
    except BandedSolveError as exc:
        raise SolverFailure(f"electron solve failed at lambda={lam}: {exc}") from exc


def dB_dlambda(sol: ElectronSolution, p: Parameters, grid: RadialGrid) -> float:
    """Exact lambda-derivative of the discrete B along the solve_electron
    profiles: B_lambda = u_lambda'(2) + u(2)/4 + (lambda/4) u_lambda(2)
    - gamma int (p_lambda u + p u_lambda) dr, with p_lambda = p (1/lambda
    - 1/2 + 1/r + b r^2/(2 lambda^2)).  u_lambda solves the rows of u with
    interior forcing g'(lambda H') H' u and zero data in both boundary
    rows, so u_lambda'(2) = 0: one more tridiagonal solve."""
    lam, u = sol.lam, sol.u
    dH = node_dH(grid)
    q = g_fn(lam * dH, p)
    u_lam = _solve_rows(lam, grid, q, g_prime(lam * dH, p) * dH * u, 0.0)
    r = grid.r
    kern = emission_kernel(lam, grid, p)
    dkern = kern * (1.0 / lam - 0.5 + 1.0 / r + p.b * r ** 2 / (2.0 * lam ** 2))
    return float(0.25 * u[-1] + 0.25 * lam * u_lam[-1]
                 - p.gamma * integrate(dkern * u + kern * u_lam, grid))


def boundary_functional(lam: float, u: GridFunction, p: Parameters, grid: RadialGrid,
                        cathode_slope: float | None = None) -> float:
    """B(lambda, u) for an arbitrary grid function.

    cathode_slope overrides u'(2); by default it is read from a
    third-order one-sided stencil.  The extra order matters only here:
    the derivative enters B bare, not through a solve, so a second-order
    stencil would cap the whole functional at 0.25*delta^2 accuracy.
    Solutions produced by solve_electron have the imposed slope 1 and
    should be evaluated through boundary_B.
    """
    if cathode_slope is None:
        d = grid.delta
        cathode_slope = (11.0 * u[-1] - 18.0 * u[-2] + 9.0 * u[-3]
                         - 2.0 * u[-4]) / (6.0 * d)
    kern = emission_kernel(lam, grid, p)
    return cathode_slope + 0.25 * lam * float(u[-1]) - p.gamma * integrate(kern * u, grid)


def boundary_B(sol: ElectronSolution, p: Parameters, grid: RadialGrid) -> float:
    """B(lambda, u) with the imposed slope u'(2) = 1."""
    return boundary_functional(sol.lam, sol.u, p, grid, cathode_slope=1.0)


def critical_gamma(lam: float, p: Parameters, grid: RadialGrid) -> float:
    """The emission yield that would make B vanish at this voltage:
    gamma_c = (u'(2) + (lambda/4) u(2)) / int p u dr, with u'(2) = 1."""
    sol = solve_electron(lam, p, grid)
    kern = emission_kernel(lam, grid, p)
    denom = integrate(kern * sol.u, grid)
    if denom <= 0.0:
        raise SolverFailure(f"critical gamma undefined at lambda={lam}: "
                            f"nonpositive emission integral {denom:.3e}")
    return (1.0 + 0.25 * lam * sol.u[-1]) / denom


def _scan_schedule(lambda_max: float) -> np.ndarray:
    geo = np.geomspace(LAMBDA_SCAN_MIN, 1.0, _SCAN_GEOMETRIC_POINTS)
    if lambda_max <= 1.0:
        return geo[geo <= lambda_max]
    count = int(np.floor((lambda_max - 1.0) / _SCAN_UNIFORM_STEP + 1e-9))
    uniform = 1.0 + _SCAN_UNIFORM_STEP * np.arange(1, count + 1)
    if uniform.size == 0 or uniform[-1] < lambda_max - 1e-12:
        uniform = np.append(uniform, lambda_max)
    return np.concatenate([geo, uniform])


def _safeguarded_newton(solve, slope, lo, hi, flo, fhi, ftol, max_iter=200):
    """Newton on B inside the sign bracket B(lo) > 0 > B(hi), from its regula
    falsi point; an iterate outside the current bracket is replaced by the
    midpoint, so no voltage is solved twice.  solve(x) returns the
    ElectronSolution at x, slope(sol) its dB/dlambda.  Stops when |B| <= ftol
    or the bracket collapses; returns (solution at the root, lo, hi)."""
    x = hi - fhi * (hi - lo) / (fhi - flo)
    for _ in range(max_iter):
        if not (lo < x < hi):
            x = 0.5 * (lo + hi)
        sol = solve(x)
        fx = sol.B_value
        if abs(fx) <= ftol:
            return sol, lo, hi
        if fx > 0.0:
            lo = x
        else:
            hi = x
        if hi - lo < 1e-15 * max(1.0, hi):
            return sol, lo, hi
        d = slope(sol)
        x = x - fx / d if d else 0.5 * (lo + hi)
    raise SolverFailure(f"root refinement stalled: |B|={abs(fx):.3e} > tol={ftol:.1e}")


def sparking_voltage(p: Parameters, grid: RadialGrid,
                     lambda_max: float = LAMBDA_MAX_DEFAULT,
                     tol: float = ROOT_TOL_DEFAULT) -> SparkingResult:
    """Locate the smallest voltage where B crosses zero from above.

    Scans 64 geometric points on [1e-2, 1] then uniform 0.25 steps up to
    lambda_max, stops at the first positive-to-negative change of B, then
    refines the bracket by safeguarded Newton until |B| <= tol.  Raises
    NoSignChange when B stays positive on the whole schedule.  Each voltage
    is solved once by solve_electron, so every profile has u'(2) = 1: the
    returned profile is the solve that produced the root's B.
    """
    def solve(lam):
        return solve_electron(lam, p, grid)

    schedule = _scan_schedule(lambda_max)

    sol_prev = solve(schedule[0])
    # B -> u'(2) > 0 as lambda -> 0; if even the smallest scan point is past
    # the first root, walk the scan start down a few decades.
    extend = schedule[0]
    while sol_prev.B_value <= 0.0 and extend > 1e-12:
        extend *= 0.1
        sol_prev = solve(extend)
    if sol_prev.B_value <= 0.0:
        raise SolverFailure("B nonpositive down to lambda=1e-12; no positive start")

    scanned = [sol_prev.lam]
    values = [sol_prev.B_value]
    positives = [sol_prev.positive]

    sol_hi = None
    for lam in schedule[schedule > sol_prev.lam]:
        sol = solve(lam)
        scanned.append(lam)
        values.append(sol.B_value)
        positives.append(sol.positive)
        if sol.B_value <= 0.0:
            sol_hi = sol
            break
        sol_prev = sol

    scan_lambdas = np.array(scanned)
    scan_B = np.array(values)
    scan_positive = np.array(positives, dtype=bool)

    if sol_hi is None:
        raise NoSignChange(
            f"B stayed positive on [{scan_lambdas[0]:.3g}, {lambda_max:.3g}]",
            scan_lambdas, scan_B)

    lo, hi = sol_prev.lam, sol_hi.lam
    if sol_hi.B_value == 0.0:
        u_dagger = sol_hi
    else:
        u_dagger, lo, hi = _safeguarded_newton(
            solve, lambda sol: dB_dlambda(sol, p, grid), lo, hi,
            sol_prev.B_value, sol_hi.B_value, tol)
    return SparkingResult(lambda_dagger=float(u_dagger.lam), bracket=(float(lo), float(hi)),
                          residual_B=float(u_dagger.B_value), u_dagger=u_dagger,
                          scan_lambdas=scan_lambdas, scan_B=scan_B,
                          scan_positive=scan_positive)


def auxiliary_U(lam: float, grid: RadialGrid) -> GridFunction:
    """Closed-form comparison solution of u'' + (2/r)u' - (lambda^2/r^4) u = 0
    with U(1) = 0 and U'(2) = 1 exactly:

        U(r) = (alpha/lambda) * (exp(lambda/2 - lambda/r) - exp(-3 lambda/2 + lambda/r)),
        alpha = 4 / (1 + exp(-lambda)).

    Both exponents are <= 0 on the shell, so evaluation never overflows.
    """
    if lam <= 0.0:
        raise ValueError("auxiliary solution needs lambda > 0")
    r = grid.r
    alpha = 4.0 / (1.0 + np.exp(-lam))
    return (alpha / lam) * (np.exp(0.5 * lam - lam / r) - np.exp(-1.5 * lam + lam / r))


def auxiliary_U_cathode_value(lam: float) -> float:
    """U(2, lambda) = (4/lambda) * tanh(lambda/2)."""
    return 4.0 / lam * np.tanh(0.5 * lam)


def auxiliary_U_cathode_slope(lam: float) -> float:
    """dU/dr at r=2 from the general derivative formula, not the
    pre-simplified identity: alpha/r^2 * (e^{lam/2 - lam/r} + e^{-3 lam/2
    + lam/r}) evaluated at r=2.  Algebraically this is alpha*(1+e^{-lam})/4
    = 1 for every lambda; evaluating the unsimplified form checks the
    implementation rather than restating the algebra."""
    if lam <= 0.0:
        raise ValueError("auxiliary solution needs lambda > 0")
    alpha = 4.0 / (1.0 + np.exp(-lam))
    r = 2.0
    return float(alpha / r ** 2
                 * (np.exp(0.5 * lam - lam / r) + np.exp(-1.5 * lam + lam / r)))


def boundary_B_of_U(lam: float, p: Parameters, grid: RadialGrid) -> float:
    """B(lambda, U) via the overflow-safe product form

        p*U = (a*alpha/2) e^{-b r^2/(2 lambda)} (1 - e^{-2 lambda + 2 lambda/r}),

    so B(lambda, U) = alpha*(1/2 - (gamma a/2) * int_1^2 e^{-b r^2/(2 lambda)}
    (1 - e^{-2 lambda (1 - 1/r)}) dr), which is negative for large lambda
    whenever gamma*a > 1.
    """
    if lam <= 0.0:
        raise ValueError("auxiliary solution needs lambda > 0")
    r = grid.r
    alpha = 4.0 / (1.0 + np.exp(-lam))
    integrand = np.exp(-p.b * r ** 2 / (2.0 * lam)) * (1.0 - np.exp(-2.0 * lam + 2.0 * lam / r))
    return alpha * (0.5 - 0.5 * p.gamma * p.a * integrate(integrand, grid))


def auxiliary_U_solve_gap(lam: float, grid: RadialGrid) -> float:
    """Max-norm gap between the collocation solve of U's own boundary-value
    problem (q = -lambda^2/r^4, same Dirichlet/Robin rows) and the closed
    form.  Second-order small; this is the practical sense in which the
    sampled U satisfies the discrete equations."""
    q = -lam ** 2 / grid.r ** 4
    u_h = solve_sl_dirichlet_robin(grid, q, 0.0, 1.0)
    return float(np.max(np.abs(u_h - auxiliary_U(lam, grid))))


def auxiliary_U_stencil_residual(lam: float, grid: RadialGrid) -> float:
    """Max-norm of the raw interior stencil residual of sampled U; O(delta^2)
    with a large constant at high voltage (the profile steepens near the
    cathode), so only the order is meaningful, not a small constant."""
    U = auxiliary_U(lam, grid)
    res = radial_laplacian_all_nodes(U, grid) - lam ** 2 / grid.r ** 4 * U
    return float(np.max(np.abs(res[1:-1])))
