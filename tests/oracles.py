"""Continuum reference values for the frozen expectations in the test suite.

This script is deliberately self-contained on the numerical side: it uses
adaptive IVP integration (DOP853) plus adaptive quadrature and Brent root
finding only -- none of the package's collocation/trapezoid machinery -- so
agreement between these numbers and the grid-based implementation is a real
two-route check.  Closed-form model coefficients are shared; the methods are
not.

Run `python -m tests.oracles` to reprint the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

if TYPE_CHECKING:
    from spark_branch.grid import GridFunction, RadialGrid
    from spark_branch.model import Parameters
    from spark_branch.steady import State

RTOL = 1e-11
ATOL = 1e-13

PARAM_SETS = {
    "(2,3,1)": (2.0, 3.0, 1.0),
    "(2,3,2)": (2.0, 3.0, 2.0),
    "(3,5,1)": (3.0, 5.0, 1.0),
}


def _h(ell, a, b):
    return a * ell * np.exp(-b / ell) if ell > 0 else 0.0


def _hp(ell, a, b):
    return a * np.exp(-b / ell) * (1.0 + b / ell)


def _g(ell, a, b):
    return _h(ell, a, b) - 0.25 * ell * ell


def _gp(ell, a, b):
    return _hp(ell, a, b) - 0.5 * ell


def _kernel_p(r, lam, a, b):
    return a * 0.5 * lam * np.exp(-0.5 * lam + lam / r - b * r * r / (2.0 * lam))


def _shoot(lam, a, b, forcing=None, y0=(0.0, 1.0)):
    def rhs(r, y):
        ell = 2.0 * lam / r ** 2
        f = forcing(r) if forcing is not None else 0.0
        return [y[1], -(2.0 / r) * y[1] - _g(ell, a, b) * y[0] - f]

    sol = solve_ivp(rhs, (1.0, 2.0), list(y0), method="DOP853",
                    rtol=RTOL, atol=ATOL, dense_output=True)
    assert sol.success, sol.message
    return sol


def electron_u(lam, a, b):
    """Dense electron solution normalized to u'(2) = 1."""
    raw = _shoot(lam, a, b)
    scale = 1.0 / raw.y[1, -1]

    def u(r):
        return scale * raw.sol(np.atleast_1d(r))[0]

    def du(r):
        return scale * raw.sol(np.atleast_1d(r))[1]

    return u, du


def boundary_B(lam, a, b, gamma):
    u, du = electron_u(lam, a, b)
    integral, err = quad(lambda r: _kernel_p(r, lam, a, b) * u(r)[0], 1.0, 2.0,
                         epsabs=1e-13, epsrel=1e-12, limit=200)
    return float(du(2.0)[0] + 0.25 * lam * u(2.0)[0] - gamma * integral)


def sparking_voltage(a, b, gamma, lo=0.5, hi=20.0):
    lam = brentq(lambda x: boundary_B(x, a, b, gamma), lo, hi,
                 xtol=1e-13, rtol=8.9e-16)
    return float(lam)


def adjoint_w(lam, a, b, gamma):
    """Dense normalized adjoint profile w (w(1)=0, w'(2)=-lam/4)."""
    def forcing(r):
        return gamma * a * (2.0 * lam / r ** 2) * np.exp(
            -0.5 * lam + lam / r - b * r * r / (2.0 * lam))

    hom = _shoot(lam, a, b)
    part = _shoot(lam, a, b, forcing=forcing, y0=(0.0, 0.0))
    s = (-0.25 * lam - part.y[1, -1]) / hom.y[1, -1]

    def w(r):
        rr = np.atleast_1d(r)
        return part.sol(rr)[0] + s * hom.sol(rr)[0]

    return w


def transversality_F(lam, a, b, gamma):
    u, du = electron_u(lam, a, b)
    w = adjoint_w(lam, a, b, gamma)

    def dH(r):
        return 2.0 / r ** 2

    def H(r):
        return 2.0 * (1.0 - 1.0 / r)

    def term1(r):
        ell = lam * dH(r)
        return (r * r * (_hp(ell, a, b) * dH(r) - _h(ell, a, b) * H(r) / 2.0)
                * np.exp(-0.5 * lam * H(r)) * u(r)[0])

    def term2(r):
        ell = lam * dH(r)
        return r * r * w(r)[0] * _gp(ell, a, b) * dH(r) * u(r)[0]

    i1, _ = quad(term1, 1.0, 2.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    i2, _ = quad(term2, 1.0, 2.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    u2 = u(2.0)[0]
    boundary = w(2.0)[0] * (u2 - 2.0 * du(2.0)[0] - 0.5 * lam * u2)
    return float(-gamma * np.exp(0.5 * lam) * w(2.0)[0] * i1 - i2 + boundary)


# ---------------------------------------------------------------------------
# Jacobian by composition of sparse stencil matrices
# ---------------------------------------------------------------------------
# Unlike the continuum references above, these use the package's
# discrete stencils, written out here as sparse matrices entry by entry
# (the package reads its coefficients off the vector forms instead).  They
# compose the steady Jacobian, and its value at the trivial state, from
# diags, bmat and sparse products, one block at a time, the way the
# formulas read; the package fills a fixed pattern instead.  The tests require the general Jacobian to agree in indptr,
# indices and data exactly, and the trivial-state one in pattern and to
# within rounding in the entries.

def derivative_matrix_reference(grid):
    """Sparse first-derivative stencil on all nodes: centered in the
    interior, one-sided second order at the two ends, written out entry
    by entry."""
    import scipy.sparse

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


def laplacian_matrix_reference(grid):
    """Sparse radial Laplacian u'' + (2/r) u' on all nodes: the second
    derivative (4-point one-sided at the ends) plus diag(2/r) times
    derivative_matrix_reference."""
    import scipy.sparse

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
    return (second + over_r @ derivative_matrix_reference(grid)).tocsr()


def _eye_rows(n, start, offset):
    """Rows start..n-1 of the identity shifted by offset columns."""
    import scipy.sparse

    j = np.arange(start, n)
    cols = j + offset
    keep = (cols >= 0) & (cols < n)
    return scipy.sparse.csr_matrix(
        (np.ones(keep.sum()), (j[keep] - start, cols[keep])),
        shape=(n - start, n))


def jacobian_reference(state, p, grid):
    """Steady Jacobian composed from scipy.sparse stencil matrices."""
    import scipy.sparse
    from spark_branch.grid import (boundary_derivative, derivative_all_nodes,
                                   radial_laplacian_all_nodes)
    from spark_branch.model import (harmonic_dH, harmonic_H, townsend_h,
                                    townsend_h_prime)
    from spark_branch.steady import field

    n = grid.n
    r = grid.r
    d = grid.delta
    lam = state.lam
    dH = harmonic_dH(r)
    H = harmonic_H(r)
    emh = np.exp(-0.5 * lam * H)
    D = derivative_matrix_reference(grid)
    L = laplacian_matrix_reference(grid)

    E = field(state, grid)
    absE = np.abs(E)
    sgnE = np.sign(E)
    hE = townsend_h(absE, p)
    hpE = townsend_h_prime(absE, p)

    rows_int = slice(1, n - 1)
    cols_i = slice(1, n)
    cols_e = slice(1, n)
    cols_v = slice(1, n - 1)

    def diags(v):
        return scipy.sparse.diags(v, format="csr")

    scale = p.k_i / (r[1:] ** 2 * d)
    J1i = (diags(scale) @ (diags((r ** 2 * E)[1:]) @ _eye_rows(n, 1, 0)
                           - diags((r ** 2 * E)[:-1]) @ _eye_rows(n, 1, -1)))[:, cols_i]
    J1e = scipy.sparse.diags(-p.k_e * hE[1:] * emh[1:], offsets=1,
                             shape=(n - 1, n), format="csr")[:, cols_e]
    P = diags(r ** 2 * state.rho_i) @ D
    J1v = (diags(scale) @ (P[1:, :] - P[:-1, :])
           - diags((p.k_e * hpE * sgnE * emh * state.R_e)[1:]) @ D[1:, :])[:, cols_v]

    DV = derivative_all_nodes(state.V, grid)
    DRe = derivative_all_nodes(state.R_e, grid)
    lapV = radial_laplacian_all_nodes(state.V, grid)
    c = 0.5 * lam * DV * dH - lapV + 0.25 * lam ** 2 * dH ** 2 - hE
    J2e = (-L - diags(DV) @ D + diags(c))[rows_int, cols_e]
    dc_dV = 0.5 * lam * diags(dH) @ D - L - diags(hpE * sgnE) @ D
    J2v = (-diags(DRe) @ D + diags(state.R_e) @ dc_dV)[rows_int, cols_v]

    J3i = (-scipy.sparse.identity(n, format="csr"))[rows_int, cols_i]
    J3e = diags(emh)[rows_int, cols_e]
    J3v = L[rows_int, cols_v]

    kappa = p.k_i / p.k_e
    bdV = boundary_derivative(state.V, grid, "cathode")
    row4i = np.zeros(n - 1)
    row4i[-1] = -p.gamma * kappa * np.exp(0.5 * lam) * (bdV + 0.5 * lam)
    row4e = np.zeros(n - 1)
    row4e[-3:] = np.array([1.0, -4.0, 3.0]) / (2 * d)
    row4e[-1] += 0.25 * lam + bdV
    emission = state.R_e[-1] - p.gamma * kappa * np.exp(0.5 * lam) * state.rho_i[-1]
    row4v = (emission * D[[n - 1], :].toarray().ravel())[1:n - 1]
    row4 = scipy.sparse.csr_matrix(
        np.concatenate([row4i, row4e, row4v])[None, :])

    top = scipy.sparse.bmat([[J1i, J1e, J1v],
                             [None, J2e, J2v],
                             [J3i, J3e, J3v]], format="csr")
    return scipy.sparse.vstack([top, row4], format="csr")


def trivial_linearization_reference(lam, p, grid):
    """Linearized operator at the trivial state composed from
    scipy.sparse stencil matrices with the steady module's upwind ion
    row; the package takes the Jacobian at the trivial state instead."""
    import scipy.sparse
    from spark_branch.grid import node_dH, node_H
    from spark_branch.model import g_fn, townsend_h

    n = grid.n
    r = grid.r
    d = grid.delta
    dH = node_dH(grid)
    H = node_H(grid)
    emh = np.exp(-0.5 * lam * H)
    h = townsend_h(lam * dH, p)
    g = g_fn(lam * dH, p)
    L = laplacian_matrix_reference(grid)
    rows_int = slice(1, n - 1)

    # L1: 2 k_i lambda / r^2 backward difference - k_e h emh S_e
    coef = 2.0 * p.k_i * lam / (r[1:] ** 2 * d)
    L1i = (scipy.sparse.diags(coef)
           @ (_eye_rows(n, 1, 0) - _eye_rows(n, 1, -1)))[:, 1:]
    L1e = scipy.sparse.diags(-p.k_e * h[1:] * emh[1:], offsets=1,
                             shape=(n - 1, n), format="csr")[:, 1:]
    L1v = scipy.sparse.csr_matrix((n - 1, n - 2))

    L2e = (-L - scipy.sparse.diags(g, format="csr"))[rows_int, 1:]
    L2v = scipy.sparse.csr_matrix((n - 2, n - 2))

    L3i = (-scipy.sparse.identity(n, format="csr"))[rows_int, 1:]
    L3e = scipy.sparse.diags(emh, format="csr")[rows_int, 1:]
    L3v = L[rows_int, 1:n - 1]

    row4 = np.zeros(3 * n - 4)
    row4[n - 2] = -p.gamma * (p.k_i / p.k_e) * np.exp(0.5 * lam) * 0.5 * lam
    row4[2 * n - 3 - 2:2 * n - 3 + 1] += np.array([1.0, -4.0, 3.0]) / (2 * d)
    row4[2 * n - 3] += 0.25 * lam
    top = scipy.sparse.bmat([[L1i, L1e, L1v],
                             [None, L2e, L2v],
                             [L3i, L3e, L3v]], format="csr")
    return scipy.sparse.vstack(
        [top, scipy.sparse.csr_matrix(row4[None, :])], format="csr")


# ---------------------------------------------------------------------------
# Bordered matrix and its SuperLU solve
# ---------------------------------------------------------------------------
# The package solves bordered systems by block elimination on a band LU
# of J and never forms the bordered matrix; these build it explicitly
# and factor it with SuperLU, the solver the band LU replaced.

def bordered_matrix(J, col, row, corner):
    """Canonical CSC form of [[J, col], [row, corner]].

    The border row lands at the end of each column of J, and the last
    column holds the nonzeros of col and the corner.  Exact zeros are
    left out, as scipy.sparse.bmat leaves them out."""
    import scipy.sparse

    Jc = J.tocsc()
    m = J.shape[0]
    nz = row != 0.0
    last = np.flatnonzero(col)
    last_vals = col[last]
    if corner != 0.0:
        last = np.append(last, m)
        last_vals = np.append(last_vals, corner)
    # One insertion pass: the border entry of column k goes before the
    # first entry of column k + 1, the last column after everything.
    at = np.concatenate([Jc.indptr[1:][nz], np.full(last.size, Jc.nnz)])
    indptr = np.empty(m + 2, dtype=Jc.indptr.dtype)
    indptr[0] = 0
    np.cumsum(np.diff(Jc.indptr) + nz, out=indptr[1:-1])
    indptr[-1] = indptr[-2] + last.size
    indices = np.insert(Jc.indices, at, np.concatenate([np.full(nz.sum(), m), last]))
    data = np.insert(Jc.data, at, np.concatenate([row[nz], last_vals]))
    return scipy.sparse.csc_matrix((data, indices, indptr), shape=(m + 1, m + 1))


def _parity(perm):
    """Sign of a permutation, by walking its cycles."""
    seen = np.zeros(len(perm), dtype=bool)
    sign = 1
    for start in range(len(perm)):
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


class SuperLUBordered:
    """SuperLU factorization of J, or of the bordered matrix when a
    border is given, with the call signature of steady.BandLU.  Raises
    numpy.linalg.LinAlgError where splu fails, as BandLU does.

    det_sign comes from Pr A Pc = L U with unit-diagonal L: the signs of
    U's diagonal times the parities of perm_r and perm_c.  The bordered
    matrix is factored whole, so the Schur scalar's sign is in U."""

    def __init__(self, J, grid, col=None, row=None, corner=0.0):
        import scipy.sparse.linalg

        A = J.tocsc() if col is None else bordered_matrix(J, col, row, corner)
        try:
            self._lu = scipy.sparse.linalg.splu(A)
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(str(exc)) from exc
        self._A = A
        self.size = A.shape[0]

    @property
    def det_sign(self):
        negative = np.count_nonzero(self._lu.U.diagonal() < 0.0)
        sign = _parity(self._lu.perm_r) * _parity(self._lu.perm_c)
        return -sign if negative % 2 else sign

    def solve(self, b, trans=False):
        x = self._lu.solve(b, trans="T" if trans else "N")
        if not np.all(np.isfinite(x)):
            raise np.linalg.LinAlgError("non-finite solution")
        return x

    def _product(self, x, trans):
        return (self._A.T if trans else self._A) @ x

    def norm_inf(self):
        return float(abs(self._A).sum(axis=1).max())


# ---------------------------------------------------------------------------
# Reduced linearization at the trivial state, assembled densely
# ---------------------------------------------------------------------------
# The package fills this (3n-4)-square matrix as sparse CSR on a stencil
# pattern (steady.fill_pattern); this builds it the way the rows read,
# node by node into a dense array, and the tests require the two to agree
# entry for entry.

def linearized_matrix_reference(lam, p, grid):
    """Dense reduced matrix of the four linearized rows, one node at a time."""
    from spark_branch.grid import node_dH, node_H, sturm_liouville_rows
    from spark_branch.model import g_fn, townsend_h

    n = grid.n
    d = grid.delta
    r = grid.r
    ni, ne, nv = n - 1, n - 1, n - 2
    dim = ni + ne + nv
    oi, oe, ov = 0, ni, ni + ne

    h = townsend_h(lam * node_dH(grid), p)
    emh = np.exp(-0.5 * lam * node_H(grid))
    A = np.zeros((dim, dim))
    row_oe = n - 1          # first electron row (transport block has n-1 rows)
    row_ov = row_oe + (n - 2)

    # Transport rows, finite-volume form: 2 k_i lam S_i' - k_e r^2 h e^{-lam H/2} S_e
    # integrated over the two-cell stencil and divided by 2 delta r_j^2.  The
    # zeroth-order term carries the trapezoid weights [1,2,1]/4 ([-1,2,3]/4 in
    # the one-sided cathode row), which is exactly the relation the
    # integral-built phi_i satisfies.
    coef = 2.0 * p.k_i * lam / r ** 2
    s = p.k_e * r ** 2 * h * emh
    for j in range(1, n - 1):
        row = j - 1
        if j >= 2:
            A[row, oi + j - 2] += coef[j] * (-1.0 / (2 * d))
            A[row, oe + j - 2] += -0.25 * s[j - 1] / r[j] ** 2
        A[row, oi + j] += coef[j] * (1.0 / (2 * d))
        A[row, oe + j - 1] += -0.5 * s[j] / r[j] ** 2
        A[row, oe + j] += -0.25 * s[j + 1] / r[j] ** 2
    row = n - 2   # cathode node, one-sided stencils
    A[row, oi + n - 4] += coef[-1] * (1.0 / (2 * d))
    A[row, oi + n - 3] += coef[-1] * (-4.0 / (2 * d))
    A[row, oi + n - 2] += coef[-1] * (3.0 / (2 * d))
    A[row, oe + n - 4] += 0.25 * s[n - 3] / r[-1] ** 2
    A[row, oe + n - 3] += -0.5 * s[n - 2] / r[-1] ** 2
    A[row, oe + n - 2] += -0.75 * s[n - 1] / r[-1] ** 2

    # electron rows at j=1..n-2: -(S_e'' + (2/r) S_e') - g S_e
    q = g_fn(lam * node_dH(grid), p)
    sub, diag, sup = sturm_liouville_rows(grid, q)
    for j in range(1, n - 1):
        row = row_oe + (j - 1)
        if j >= 2:
            A[row, oe + j - 2] += sub[j]
        A[row, oe + j - 1] += diag[j]
        A[row, oe + j] += sup[j]

    # potential rows at j=1..n-2: lap W - S_i + e^{-lam H/2} S_e
    sub0, diag0, sup0 = sturm_liouville_rows(grid, np.zeros(n))
    for j in range(1, n - 1):
        row = row_ov + (j - 1)
        if j >= 2:
            A[row, ov + j - 2] += -sub0[j]
        A[row, ov + j - 1] += -diag0[j]
        if j <= n - 3:
            A[row, ov + j] += -sup0[j]
        A[row, oi + j - 1] += -1.0
        A[row, oe + j - 1] += emh[j]

    # cathode-emission row
    row = dim - 1
    A[row, oe + n - 4] += 1.0 / (2 * d)
    A[row, oe + n - 3] += -4.0 / (2 * d)
    A[row, oe + n - 2] += 3.0 / (2 * d) + 0.25 * lam
    A[row, oi + n - 2] += -p.gamma * (p.k_i / p.k_e) * np.exp(0.5 * lam) * (0.5 * lam)
    return A


def svd_probe_reference(lam, p, grid):
    """Two smallest singular values of adjoint.linearized_matrix from a
    full dense SVD of the (3n-4)^2 array, the reference for the
    package's band-LU inverse iteration (adjoint.svd_probe)."""
    from spark_branch.adjoint import linearized_matrix

    sigma = np.linalg.svd(linearized_matrix(lam, p, grid).toarray(),
                          compute_uv=False)
    return float(sigma[-1]), float(sigma[-2])


# ---------------------------------------------------------------------------
# Townsend law on the positive entries only
# ---------------------------------------------------------------------------
# model.townsend_h evaluates a*ell*exp(-b/ell) on the whole array, with
# exp(-inf) = 0 giving h(0) = 0; this is the former masked form, which
# writes the positive entries into zeros and never divides by zero.

def townsend_h_masked(ell, p):
    """h(ell) = a*ell*exp(-b/ell) on the entries ell > 0, 0 elsewhere."""
    arr = np.asarray(ell, dtype=float)
    out = np.zeros_like(arr)
    pos = arr > 0.0
    out[pos] = p.a * arr[pos] * np.exp(-p.b / arr[pos])
    return out


# ---------------------------------------------------------------------------
# Continuation tangent factored at the accepted point
# ---------------------------------------------------------------------------
# The package reads a point's tangent, det_sign and sigma_min off the
# corrector's last band LU, formed one Newton step before the accepted
# point (continuation.tangent_and_sigma).  This is the former body,
# moved verbatim: it assembles J and F_lambda at the accepted point and
# factors the bordered matrix there, one more LU per point.

def tangent_at_accepted_point(state, tangent, p, grid, sigma_check=True):
    """Unit tangent and bordered sigma_min from a band LU at the
    accepted point itself, with the previous tangent as the border row;
    (None, 0.0) when the factorization or the tangent solve fails."""
    from spark_branch.continuation import Tangent, ext_inner
    from spark_branch.steady import (BandLU, dresidual_dlambda, jacobian,
                                     pack_weights, smallest_singular)

    J = jacobian(state, p, grid)
    col = dresidual_dlambda(state, p, grid)
    m = J.shape[0] + 1
    e_last = np.zeros(m)
    e_last[-1] = 1.0
    try:
        lu = BandLU(J, grid, col, pack_weights(grid) * tangent.x,
                    tangent.dlam)
        t_raw = lu.solve(e_last)
    except np.linalg.LinAlgError:
        return None, 0.0
    t_new = Tangent(t_raw[:-1], float(t_raw[-1]))
    nrm = np.sqrt(ext_inner(t_new, t_new, grid))
    if nrm == 0.0:
        return None, 0.0
    t_new = Tangent(t_new.x / nrm, t_new.dlam / nrm, lu.det_sign)
    if not sigma_check:
        return t_new, None
    try:
        return t_new, smallest_singular(lu)[0]
    except np.linalg.LinAlgError:
        return t_new, np.nan


# ---------------------------------------------------------------------------
# Test-only helpers moved out of the package
# ---------------------------------------------------------------------------
# Only the tests call these, so they live here, moved verbatim: the
# shooting oracle that was in spark_branch.validation, the closed-form
# comparison profile's B and its cathode value and stencil residual from
# spark_branch.electron, and the integrated cathode-emission gap from
# spark_branch.steady.  Their package imports are local, as elsewhere in
# this file, so the continuum table still runs without the package.

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
    from spark_branch.model import g_fn, harmonic_dH

    if lam <= 0.0:
        raise ValueError("shooting oracle needs lambda > 0")

    def q_of_r(r):
        return g_fn(lam * harmonic_dH(r), p)

    u = shoot_linear_robin(grid, q_of_r, None, 1.0)

    from spark_branch.electron import solve_electron
    coll = solve_electron(lam, p, grid)
    return ShootingResult(u_samples=u, match_norm=float(np.max(np.abs(u - coll.u))))


def shoot_adjoint_w(lam: float, p: Parameters, grid: RadialGrid) -> np.ndarray:
    """Shooting solution of the normalized adjoint profile w (inhomogeneous
    problem with the same operator, cathode slope -lambda/4)."""
    from spark_branch.model import g_fn, harmonic_dH

    def q_of_r(r):
        return g_fn(lam * harmonic_dH(r), p)

    def f_of_r(r):
        # gamma e^{lambda/2} h(lambda H') e^{-lambda H/2}, combined exponents
        return (p.gamma * p.a * (2.0 * lam / r ** 2)
                * np.exp(-0.5 * lam + lam / r - p.b * r ** 2 / (2.0 * lam)))

    return shoot_linear_robin(grid, q_of_r, f_of_r, -0.25 * lam)


def auxiliary_U_cathode_value(lam: float) -> float:
    """U(2, lambda) = (4/lambda) * tanh(lambda/2)."""
    return 4.0 / lam * np.tanh(0.5 * lam)


def boundary_B_of_U(lam: float, p: Parameters, grid: RadialGrid) -> float:
    """B(lambda, U) via the overflow-safe product form

        p*U = (a*alpha/2) e^{-b r^2/(2 lambda)} (1 - e^{-2 lambda + 2 lambda/r}),

    so B(lambda, U) = alpha*(1/2 - (gamma a/2) * int_1^2 e^{-b r^2/(2 lambda)}
    (1 - e^{-2 lambda (1 - 1/r)}) dr), which is negative for large lambda
    whenever gamma*a > 1.
    """
    from spark_branch.grid import integrate

    if lam <= 0.0:
        raise ValueError("auxiliary solution needs lambda > 0")
    r = grid.r
    alpha = 4.0 / (1.0 + np.exp(-lam))
    integrand = np.exp(-p.b * r ** 2 / (2.0 * lam)) * (1.0 - np.exp(-2.0 * lam + 2.0 * lam / r))
    return alpha * (0.5 - 0.5 * p.gamma * p.a * integrate(integrand, grid))


def auxiliary_U_stencil_residual(lam: float, grid: RadialGrid) -> float:
    """Max-norm of the raw interior stencil residual of sampled U; O(delta^2)
    with a large constant at high voltage (the profile steepens near the
    cathode), so only the order is meaningful, not a small constant."""
    from spark_branch.electron import auxiliary_U
    from spark_branch.grid import radial_laplacian_all_nodes

    U = auxiliary_U(lam, grid)
    res = radial_laplacian_all_nodes(U, grid) - lam ** 2 / grid.r ** 4 * U
    return float(np.max(np.abs(res[1:-1])))


def cathode_flux_gap(state: State, p: Parameters, grid: RadialGrid) -> float:
    """Difference between the pointwise cathode emission row and its
    integrated form (the F4 row with rho_i(2) replaced by the ion
    quadrature); O(delta) at converged states."""
    from spark_branch.grid import boundary_derivative, node_H
    from spark_branch.model import townsend_h
    from spark_branch.steady import field

    r = grid.r
    lam = state.lam
    E = field(state, grid)
    emh = np.exp(-0.5 * lam * node_H(grid))
    integrand = r ** 2 * townsend_h(np.abs(E), p) * emh * state.R_e
    integral = np.trapezoid(integrand, r)
    bdRe = boundary_derivative(state.R_e, grid, "cathode")
    bdV = boundary_derivative(state.V, grid, "cathode")
    rhs = -(0.25 * lam + bdV) * state.R_e[-1] \
        + 0.25 * p.gamma * np.exp(0.5 * lam) * integral
    return float(abs(bdRe - rhs))


def main():
    print(f"{'params':>10} {'lambda_dagger':>18} {'B(residual)':>12} "
          f"{'w(2) at root':>14} {'F':>18}")
    for label, (a, b, gamma) in PARAM_SETS.items():
        lam = sparking_voltage(a, b, gamma)
        res = boundary_B(lam, a, b, gamma)
        w2 = adjoint_w(lam, a, b, gamma)(2.0)[0]
        F = transversality_F(lam, a, b, gamma)
        print(f"{label:>10} {lam:18.12f} {res:12.2e} {w2:14.10f} {F:18.12f}")


if __name__ == "__main__":
    main()
