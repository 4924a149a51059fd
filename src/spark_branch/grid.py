"""Uniform radial grid on [1, 2], stencils, quadrature, and tridiagonal solves.

Conventions used throughout the package:

* nodes r_j = 1 + j*delta, j = 0..n-1, delta = 1/(n-1);
* trapezoid weights (sum = 1) matched to every boundary-functional
  quadrature, so discrete integration-by-parts identities hold to O(delta^2);
* interior stencils are centered second order, boundary derivatives are
  one-sided second order (exact on quadratics), no ghost nodes;
* Sturm-Liouville solves pin their Dirichlet values: only the free unknowns
  enter one tridiagonal LAPACK solve, so u(1) = 0, and u(2) where imposed,
  hold exactly rather than to the solve's rounding error.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse

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
        """Per-grid memo for derived operators and layouts (stencil
        matrices, H and H' at the nodes, packed weights, the
        Sturm-Liouville off-diagonals, the Jacobian pattern and its band
        layout): build(self) runs on the first request for key, later
        requests share its value."""
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
    (u[j-1], u[j], u[j+1]) for j = 1..n-2.  The two boundary rows are
    zero.  sub and sup do not depend on q: they are built once per grid
    and shared read-only, so a caller that imposes boundary conditions
    works on copies.
    """
    sub, sup = grid.cached("sturm_liouville_offdiagonals",
                           _sturm_liouville_offdiagonals)
    q = np.broadcast_to(np.asarray(q, dtype=float), (grid.n,))
    diag = np.zeros(grid.n)
    diag[1:-1] = 2.0 / grid.delta**2 - q[1:-1]
    return sub, diag, sup


def _sturm_liouville_offdiagonals(grid: RadialGrid):
    """The q-independent sub- and superdiagonal of sturm_liouville_rows,
    read-only because every call shares them."""
    d = grid.delta
    r = grid.r
    sub = np.zeros(grid.n)
    sup = np.zeros(grid.n)
    j = slice(1, grid.n - 1)
    sub[j] = -1.0 / d**2 + 1.0 / (r[j] * d)
    sup[j] = -1.0 / d**2 - 1.0 / (r[j] * d)
    sub.flags.writeable = False
    sup.flags.writeable = False
    return sub, sup


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
    The cathode row imposes the one-sided stencil (1, -4, 3)/(2 delta) and
    is brought to tridiagonal form by eliminating u[n-3] against the last
    interior row.
    """
    c = 0.5 / grid.delta
    sub, diag, sup = sturm_liouville_rows(grid, q)
    m = c / sub[-2]
    rhs = (np.zeros(grid.n) + f)[1:]
    rhs[-1] = cathode_slope - m * rhs[-2]
    u = np.zeros(grid.n)
    u[1:] = _solve_tridiagonal(np.append(sub[2:-1], -4.0 * c - m * diag[-2]),
                               np.append(diag[1:-1], 3.0 * c - m * sup[-2]),
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


def derivative_matrix(grid: RadialGrid) -> scipy.sparse.csr_matrix:
    """Sparse first-derivative stencil on all nodes: centered in the
    interior, one-sided second order at the two ends.  Cached per grid."""
    return grid.cached("derivative_matrix", _build_derivative_matrix)


def _build_derivative_matrix(grid: RadialGrid) -> scipy.sparse.csr_matrix:
    n = grid.n
    d = grid.delta
    j = np.arange(1, n - 1)
    rows = np.concatenate([[0, 0, 0], j, j, [n - 1] * 3])
    cols = np.concatenate([[0, 1, 2], j - 1, j + 1, [n - 3, n - 2, n - 1]])
    vals = np.concatenate([
        [-3.0 / (2 * d), 4.0 / (2 * d), -1.0 / (2 * d)],
        np.full(n - 2, -1.0 / (2 * d)), np.full(n - 2, 1.0 / (2 * d)),
        [1.0 / (2 * d), -4.0 / (2 * d), 3.0 / (2 * d)]])
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def laplacian_matrix(grid: RadialGrid) -> scipy.sparse.csr_matrix:
    """Sparse matrix form of radial_laplacian_all_nodes (same stencils).
    Cached per grid."""
    return grid.cached("laplacian_matrix", _build_laplacian_matrix)


def _build_laplacian_matrix(grid: RadialGrid) -> scipy.sparse.csr_matrix:
    n = grid.n
    d2 = grid.delta ** 2
    j = np.arange(1, n - 1)
    ends = [2.0 / d2, -5.0 / d2, 4.0 / d2, -1.0 / d2]
    rows = np.concatenate([[0] * 4, j, j, j, [n - 1] * 4])
    cols = np.concatenate([[0, 1, 2, 3], j - 1, j, j + 1,
                           [n - 1, n - 2, n - 3, n - 4]])
    vals = np.concatenate([ends, np.full(n - 2, 1.0 / d2),
                           np.full(n - 2, -2.0 / d2), np.full(n - 2, 1.0 / d2),
                           ends])
    second = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    over_r = scipy.sparse.diags(2.0 / grid.r)
    return (second + over_r @ derivative_matrix(grid)).tocsr()


def stencil_bands(mat: scipy.sparse.csr_matrix, width: int) -> np.ndarray:
    """Rows of a banded matrix as an (n, 2*width + 1) array: entry
    [i, width + o] holds mat[i, i + o], zero where the stencil has none.
    The values are the stored ones, bit for bit."""
    coo = mat.tocoo()
    bands = np.zeros((mat.shape[0], 2 * width + 1))
    bands[coo.row, coo.col - coo.row + width] = coo.data
    return bands


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
    out[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * d)
    out[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * d)
    return out


def radial_laplacian_all_nodes(u: GridFunction, grid: RadialGrid) -> np.ndarray:
    """(1/r^2)(r^2 u')' = u'' + (2/r) u' at all nodes, second order."""
    return second_derivative_all_nodes(u, grid) + (2.0 / grid.r) * derivative_all_nodes(u, grid)
