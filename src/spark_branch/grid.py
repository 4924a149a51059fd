"""Uniform radial grid on [1, 2], stencils, quadrature, and tridiagonal solves.

Conventions used throughout the package:

* nodes r_j = 1 + j*delta, j = 0..n-1, delta = 1/(n-1);
* trapezoid weights (sum = 1) matched to every boundary-functional
  quadrature, so discrete integration-by-parts identities hold to O(delta^2);
* interior stencils are centered second order, boundary derivatives are
  one-sided second order (exact on quadratics), no ghost nodes;
* each stencil is written once, in its vector form; the band tables
  (derivative_bands, laplacian_bands) are read off those forms, and every
  other use of a coefficient reads the tables;
* Sturm-Liouville solves pin their Dirichlet values: only the free unknowns
  enter one tridiagonal LAPACK solve, so u(1) = 0, and u(2) where imposed,
  hold exactly rather than to the solve's rounding error.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .model import harmonic_H, harmonic_dH

# A grid function is just its node values.
GridFunction = np.ndarray

MIN_NODES = 33
DEFAULT_N = 257


class RadialGrid:
    """Uniform grid with trapezoid quadrature on the shell [1, 2]."""

    def __init__(self, n: int = DEFAULT_N):
        n = int(n)
        if n < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} nodes, got {n}")
        self.n = n
        self.delta = 1.0 / (n - 1)
        self.r = 1.0 + self.delta * np.arange(n)
        self.weights = np.full(n, self.delta)
        self.weights[0] = self.weights[-1] = 0.5 * self.delta
        # r^2-weighted quadrature weights for the volume inner product
        self.r2w = self.weights * self.r ** 2
        self._cache = {}

    def cached(self, key: str, build):
        """Per-grid memo for derived operators and layouts (the stencil
        band tables, H and H' at the nodes, packed weights, the
        Sturm-Liouville rows and Robin cathode row, the Jacobian's
        stencil pattern and band layout):
        build(self) runs on the first request for key, later requests
        share its value."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = build(self)
            return value

    def __repr__(self):
        return f"RadialGrid(n={self.n})"


def node_H(grid: RadialGrid) -> np.ndarray:
    """harmonic_H at the nodes, computed once per grid (read-only)."""
    return grid.cached("node_H", lambda g: _read_only(harmonic_H(g.r)))


def node_dH(grid: RadialGrid) -> np.ndarray:
    """harmonic_dH at the nodes, computed once per grid (read-only)."""
    return grid.cached("node_dH", lambda g: _read_only(harmonic_dH(g.r)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def weighted_inner(u: GridFunction, v: GridFunction, grid: RadialGrid) -> float:
    """Discrete volume pairing <u, v> = int_1^2 r^2 u v dr (trapezoid)."""
    return float(np.dot(grid.r2w, np.asarray(u) * np.asarray(v)))


def integrate(u: GridFunction, grid: RadialGrid) -> float:
    """Plain trapezoid of int_1^2 u dr (no r^2 weight)."""
    return float(np.dot(grid.weights, u))


def sturm_liouville_rows(grid: RadialGrid, q: GridFunction):
    """Tridiagonal coefficients of -u'' - (2/r) u' - q(r) u at interior nodes.

    Returns (sub, diag, sup), each of length n; row j couples
    (u[j-1], u[j], u[j+1]) for j = 1..n-2.  The rows are the negated
    interior rows of laplacian_bands with -q added on the diagonal; the
    two boundary rows are zero.  sub and sup do not depend on q: they
    are shared read-only per grid, so a caller that imposes boundary
    conditions works on copies.
    """
    sub, mid, sup = grid.cached("sturm_liouville_rows", _sturm_liouville_bands)
    q = np.broadcast_to(np.asarray(q, dtype=float), (grid.n,))
    diag = np.zeros(grid.n)
    diag[1:-1] = mid[1:-1] - q[1:-1]
    return sub, diag, sup


def _sturm_liouville_bands(grid: RadialGrid):
    """Sub-, main and superdiagonal of the negated laplacian_bands at the
    interior nodes, zero at the two ends; read-only."""
    rows = np.zeros((3, grid.n))
    rows[:, 1:-1] = -laplacian_bands(grid)[1:-1, 2:5].T
    return tuple(_read_only(rows))


def boundary_derivative(u: GridFunction, grid: RadialGrid, end: str) -> float:
    """One-sided second-order derivative at the anode (r=1) or cathode (r=2)."""
    d = grid.delta
    if end == "anode":
        return float((-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * d))
    if end == "cathode":
        return float((3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * d))
    raise ValueError("end must be 'anode' or 'cathode'")


class BandedSolveError(RuntimeError):
    """Tridiagonal collocation system could not be solved reliably."""

    def __init__(self, message, condition=np.inf):
        super().__init__(message)
        self.condition = condition


def _solve_tridiagonal(dl, d, du, b):
    """Solve the tridiagonal system with sub-, main and super-diagonals
    (dl, d, du) by one LAPACK dgtsv call (elimination with partial
    pivoting).  A zero pivot or a non-finite result raises BandedSolveError
    with the 1-norm condition number: inf for a zero pivot, else the
    dgttrf + dgtcon estimate, computed on the failure path only."""
    _, _, _, x, info = scipy.linalg.lapack.dgtsv(dl, d, du, b, overwrite_b=1)
    if info == 0 and np.all(np.isfinite(x)):
        return x
    cond = np.inf
    if info == 0:
        col = np.abs(d)
        col[:-1] += np.abs(dl)
        col[1:] += np.abs(du)
        lu = scipy.linalg.lapack.dgttrf(dl, d, du)
        rcond, _ = scipy.linalg.lapack.dgtcon(*lu[:5], np.max(col))
        cond = 1.0 / rcond if rcond > 0.0 else np.inf
    what = f"singular collocation system (zero pivot {info})" if info > 0 \
        else "non-finite solve"
    raise BandedSolveError(f"{what}; cond~{cond:.3e}", cond)


def solve_sl_dirichlet_robin(grid: RadialGrid, q, f, cathode_slope: float) -> GridFunction:
    """Solve -u'' - (2/r)u' - q u = f with u(1) = 0, u'(2) = cathode_slope.

    u(1) = 0 holds by construction: the system is solved for u[1:] only.
    The cathode row is the last row of derivative_bands (the one-sided
    cathode slope, cached per grid as Python floats, which the solve reads
    faster than numpy scalars) and is brought to tridiagonal form by
    eliminating u[n-3] against the last interior row.
    """
    far, near, end = grid.cached(
        "robin_row", lambda g: tuple(derivative_bands(g)[-1, 0:3].tolist()))
    sub, diag, sup = sturm_liouville_rows(grid, q)
    m = far / sub[-2]
    rhs = (np.zeros(grid.n) + f)[1:]
    rhs[-1] = cathode_slope - m * rhs[-2]
    u = np.zeros(grid.n)
    u[1:] = _solve_tridiagonal(np.append(sub[2:-1], near - m * diag[-2]),
                               np.append(diag[1:-1], end - m * sup[-2]),
                               sup[1:-1], rhs)
    return u


def solve_sl_dirichlet(grid: RadialGrid, q, f, cathode_value: float = 0.0) -> GridFunction:
    """Solve -u'' - (2/r)u' - q u = f with u(1) = 0, u(2) = cathode_value.

    Both boundary values are pinned: the system is solved for the interior
    values u[1:-1] only, with the cathode value moved to the right-hand side.
    """
    sub, diag, sup = sturm_liouville_rows(grid, q)
    rhs = (np.zeros(grid.n) + f)[1:-1]
    rhs[-1] -= sup[-2] * cathode_value
    u = np.zeros(grid.n)
    u[-1] = cathode_value
    u[1:-1] = _solve_tridiagonal(sub[2:-1], diag[1:-1], sup[1:-2], rhs)
    return u


def derivative_bands(grid: RadialGrid) -> np.ndarray:
    """derivative_all_nodes as an (n, 5) band table: entry [i, 2 + o] is
    the coefficient of u[i + o] in u'[i], zero off the stencil.  Cached
    per grid, read-only."""
    return grid.cached("derivative_bands",
                       lambda g: _probe_bands(derivative_all_nodes, g, 2))


def laplacian_bands(grid: RadialGrid) -> np.ndarray:
    """radial_laplacian_all_nodes as an (n, 7) band table: entry
    [i, 3 + o] is the coefficient of u[i + o] at node i, zero off the
    stencil.  Cached per grid, read-only."""
    return grid.cached("laplacian_bands",
                       lambda g: _probe_bands(radial_laplacian_all_nodes, g, 3))


def _probe_bands(apply, grid: RadialGrid, width: int) -> np.ndarray:
    """Band table of the linear vector form apply(u, grid), whose row i
    touches only u[i - width .. i + width].  Comb c is 1 at the nodes
    k = c (mod 2 width + 1), so each row meets exactly one 1 and returns
    that coefficient, the same float the vector form computes."""
    period = 2 * width + 1
    i = np.arange(grid.n)
    bands = np.zeros((grid.n, period))
    for c in range(period):
        comb = (i % period == c).astype(float)
        bands[i, (c - i + width) % period] = apply(comb, grid)
    return _read_only(bands)


def second_derivative_all_nodes(u: GridFunction, grid: RadialGrid) -> np.ndarray:
    """u'' at all nodes: centered in the interior, 4-point one-sided at the
    ends so the whole array is second order."""
    d2 = grid.delta ** 2
    out = np.empty(grid.n)
    out[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / d2
    out[0] = (2 * u[0] - 5 * u[1] + 4 * u[2] - u[3]) / d2
    out[-1] = (2 * u[-1] - 5 * u[-2] + 4 * u[-3] - u[-4]) / d2
    return out


def derivative_all_nodes(u: GridFunction, grid: RadialGrid) -> np.ndarray:
    """u' at all nodes: centered interior, one-sided second order at ends."""
    d = grid.delta
    out = np.empty(grid.n)
    out[1:-1] = (u[2:] - u[:-2]) / (2 * d)
    out[0] = boundary_derivative(u, grid, "anode")
    out[-1] = boundary_derivative(u, grid, "cathode")
    return out


def radial_laplacian_all_nodes(u: GridFunction, grid: RadialGrid) -> np.ndarray:
    """(1/r^2)(r^2 u')' = u'' + (2/r) u' at all nodes, second order."""
    return second_derivative_all_nodes(u, grid) + (2.0 / grid.r) * derivative_all_nodes(u, grid)
