"""Discrete steady-state system and its Newton corrector.

The unknowns are the modified densities and the potential deviation: the
ion density rho_i, the scaled electron density R_e = rho_e e^{lambda H/2},
and V with Phi = V + lambda H.  The residual rows are

  F1  ion continuity     (k_i/r^2) d/dr { r^2 rho_i (V' + lambda H') }
                           - k_e h(|V' + lambda H'|) e^{-lambda H/2} R_e
  F2  electron equation  -lap R_e - V' R_e'
                           + { (lambda/2) V' H' - lap V
                               + (lambda^2/4) H'^2 - h(|V'+lambda H'|) } R_e
  F3  Poisson            lap V - rho_i + e^{-lambda H/2} R_e
  F4  cathode emission    R_e'(2) + (lambda/4 + V'(2)) R_e(2)
                           - gamma (k_i/k_e) e^{lambda/2} (V'(2)+lambda/2) rho_i(2)

with rho_i, R_e, V vanishing at the anode and V also at the cathode.  F1
is differenced upwind (backward; the field points from anode to cathode
on admissible states), F2 and F3 use centered stencils, and F4 replaces
the cathode PDE row of R_e.  The Jacobian differentiates these discrete
formulas exactly, so the Jacobian at the trivial state is the upwind
discretization of the linearized operator there, and
trivial_linearization is just that Jacobian.  Unknown vector layout:
rho_i at nodes 1..n-1, R_e at nodes 1..n-1, V at nodes 1..n-2.

Assembly.  One assembler builds every sparse operator on the packed
layout: the Jacobian here and adjoint.linearized_matrix.  An operator's
sparsity pattern is a tuple of row blocks (nodes, stencil) and depends
only on the grid, so it is built once per grid (StencilPattern, kept in
the grid's cache) with vectorized numpy; each call then fills one value
slab per row block (fill_pattern).  Every Jacobian entry is computed
from the grid's derivative_bands and laplacian_bands (the stencil
coefficients, read off the vector forms) by the same floating-point
expression, in the same order, as the product of stencil matrices it
differentiates, and exact zeros are dropped; the CSR result is therefore
bit-identical to composing the blocks with scipy.sparse (tests/oracles.py
keeps that composition as the reference).

Linear solves.  Ordered node by node, rows (F1_j, F2_j, F3_j) against
unknowns (rho_i(j), R_e(j), V(j)) with F4 in the cathode R_e slot, every
row is local and J is a band matrix with 6 sub- and 5 superdiagonals on
every grid.  BandLU copies J into LAPACK band storage along that order
(BandLayout, cached per grid at the first factorization), factors it
with dgbtrf and solves with dgbtrs.  The bordered systems
[[J, F_lambda], [c, d]] of the extended corrector, the continuation
tangent and the discrete bifurcation pair are solved by block
elimination (bordering) on that one LU, followed by one step of
refinement against the exact bordered product, which restores full
accuracy where J itself is singular.  smallest_singular runs inverse
iteration on such an LU, for the continuation's opt-in sigma_min and
for adjoint.svd_probe.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.integrate import cumulative_trapezoid
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .model import Parameters, townsend_h, townsend_h_prime
from .grid import (RadialGrid, GridFunction, derivative_all_nodes,
                   radial_laplacian_all_nodes, derivative_bands,
                   laplacian_bands, boundary_derivative, node_dH, node_H)

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 25
ARMIJO_FACTOR = 0.5
ARMIJO_SLOPE = 1e-4
MIN_STEP = 2.0 ** -20
FIELD_FLOOR = 1e-6
SIGMA_TOL = 1e-14       # smallest_singular's residual bound relative to |A|_inf
SIGMA_MAX_ITER = 200


@dataclass
class State:
    """A point (lambda, rho_i, R_e, V); arrays are full length-n nodal
    values with the pinned boundary entries stored as zeros."""
    lam: float
    rho_i: GridFunction
    R_e: GridFunction
    V: GridFunction

    def copy(self) -> "State":
        return State(self.lam, self.rho_i.copy(), self.R_e.copy(),
                     self.V.copy())


@dataclass
class Residual:
    F1: np.ndarray          # ion rows, nodes 1..n-1
    F2: np.ndarray          # electron rows, nodes 1..n-2
    F3: np.ndarray          # Poisson rows, nodes 1..n-2
    F4: float               # cathode emission row


@dataclass
class AdmissibilityReport:
    min_field: float
    ok: bool


@dataclass
class DensityReport:
    rho_e: GridFunction
    sup_rho_i: float
    sup_rho_e: float
    positive: bool


@dataclass
class NewtonResult:
    """lu is the (bordered) BandLU of the last iteration, formed one
    Newton step before state; None when the guess met the tolerance."""
    state: State
    iters: int
    residual_norm: float
    lu: "BandLU" = None


class AdmissibilityError(ValueError):
    """Raised when a Newton guess has a degenerate or reversed field."""


class NewtonError(RuntimeError):
    """Base for corrector failures; carries the last iterate."""

    def __init__(self, message: str, state: State, residual_norm: float):
        super().__init__(f"{message} (residual norm {residual_norm:.3e})")
        self.state = state
        self.residual_norm = residual_norm


class MaxIterExceeded(NewtonError):
    pass


class LineSearchStall(NewtonError):
    pass


class SingularJacobian(NewtonError):
    pass


def trivial_state(lam: float, grid: RadialGrid) -> State:
    z = np.zeros(grid.n)
    return State(lam, z.copy(), z.copy(), z.copy())


def pack(state: State) -> np.ndarray:
    """Unknown vector [rho_i(1..n-1), R_e(1..n-1), V(1..n-2)]."""
    return np.concatenate([state.rho_i[1:], state.R_e[1:], state.V[1:-1]])


def pack_weights(grid: RadialGrid) -> np.ndarray:
    """Quadrature weights aligned with the packed unknown layout."""
    return grid.cached("pack_weights", lambda g: np.concatenate(
        [g.r2w[1:], g.r2w[1:], g.r2w[1:-1]]))


def unpack(lam: float, x: np.ndarray, grid: RadialGrid) -> State:
    n = grid.n
    if x.shape != (3 * n - 4,):
        raise ValueError(f"expected state vector of length {3 * n - 4}")
    rho = np.zeros(n)
    Re = np.zeros(n)
    V = np.zeros(n)
    rho[1:] = x[:n - 1]
    Re[1:] = x[n - 1:2 * n - 2]
    V[1:-1] = x[2 * n - 2:]
    return State(lam, rho, Re, V)


def field(state: State, grid: RadialGrid) -> np.ndarray:
    """d(Phi)/dr = V' + lambda H' at all nodes."""
    return derivative_all_nodes(state.V, grid) + state.lam * node_dH(grid)


def residual(state: State, p: Parameters, grid: RadialGrid) -> Residual:
    n = grid.n
    r = grid.r
    d = grid.delta
    lam = state.lam
    dH = node_dH(grid)
    H = node_H(grid)
    emh = np.exp(-0.5 * lam * H)

    E = field(state, grid)
    hE = townsend_h(np.abs(E), p)
    flux = r ** 2 * state.rho_i * E
    F1 = (p.k_i / r[1:] ** 2) * (flux[1:] - flux[:-1]) / d \
        - p.k_e * hE[1:] * emh[1:] * state.R_e[1:]

    DV = derivative_all_nodes(state.V, grid)
    DRe = derivative_all_nodes(state.R_e, grid)
    lapRe = radial_laplacian_all_nodes(state.R_e, grid)
    lapV = radial_laplacian_all_nodes(state.V, grid)
    c = 0.5 * lam * DV * dH - lapV + 0.25 * lam ** 2 * dH ** 2 - hE
    F2 = (-lapRe - DV * DRe + c * state.R_e)[1:-1]

    F3 = (lapV - state.rho_i + emh * state.R_e)[1:-1]

    bdRe = boundary_derivative(state.R_e, grid, "cathode")
    bdV = boundary_derivative(state.V, grid, "cathode")
    kappa = p.k_i / p.k_e
    F4 = bdRe + (0.25 * lam + bdV) * state.R_e[-1] \
        - p.gamma * kappa * np.exp(0.5 * lam) * (bdV + 0.5 * lam) * state.rho_i[-1]
    return Residual(F1, F2, F3, float(F4))


def residual_vector(state: State, p: Parameters, grid: RadialGrid) -> np.ndarray:
    res = residual(state, p, grid)
    return np.concatenate([res.F1, res.F2, res.F3, [res.F4]])


def block_squares(vec: np.ndarray, grid: RadialGrid) -> tuple:
    """((s1, s2, s3), |v4|): squared weighted L2 norms of the ion,
    electron and Poisson blocks of a residual-layout vector, and |F4|."""
    n = grid.n
    w = grid.r2w
    return ((np.dot(w[1:], vec[:n - 1] ** 2),
             np.dot(w[1:-1], vec[n - 1:2 * n - 3] ** 2),
             np.dot(w[1:-1], vec[2 * n - 3:3 * n - 5] ** 2)),
            abs(vec[-1]))


def norm_Y(res, grid: RadialGrid) -> float:
    """Weighted discrete L2 norm of the residual blocks plus |F4|."""
    if isinstance(res, Residual):
        vec = np.concatenate([res.F1, res.F2, res.F3, [res.F4]])
    else:
        vec = np.asarray(res)
    (s1, s2, s3), f4 = block_squares(vec, grid)
    return float(np.sqrt(s1 + s2 + s3 + f4 ** 2))


def _block_columns(n):
    """Column blocks of the unknown vector: node k of a block sits at
    column base + k, for k = 1..top.  Maps block -> (base, top)."""
    return {"rho_i": (-1, n - 1), "R_e": (n - 2, n - 1), "V": (2 * n - 3, n - 2)}


# Row stencils of the four residual blocks: (block, node offsets) in
# column order.  A row at node j may touch node j + o of each block.
_F1_STENCIL = (("rho_i", (-1, 0)), ("R_e", (0,)), ("V", (-2, -1, 0, 1)))
_F2_STENCIL = (("R_e", (-1, 0, 1)), ("V", (-1, 0, 1)))
_F3_STENCIL = (("rho_i", (0,)), ("R_e", (0,)), ("V", (-1, 0, 1)))
_F4_STENCIL = (("rho_i", (0,)), ("R_e", (-2, -1, 0)), ("V", (-2, -1)))


@dataclass(frozen=True)
class StencilPattern:
    """Fixed sparsity layout of an operator on the packed unknowns of one
    grid, built from its row blocks (nodes, stencil).  fill_pattern takes
    one dense slab per row block, a row per node and a column per stencil
    entry; keep marks the in-range entries of the concatenated slabs,
    which in CSR order match indices and indptr."""
    keep: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


def _stencil_slab(nodes, stencil, blocks):
    """Column indices and in-range mask of a row block's stencil slab."""
    base, top, offs = [], [], []
    for block, offsets in stencil:
        b, t = blocks[block]
        base += [b] * len(offsets)
        top += [t] * len(offsets)
        offs += offsets
    k = nodes[:, None] + np.array(offs)
    return np.array(base) + k, (k >= 1) & (k <= np.array(top))


def stencil_pattern(n: int, row_blocks: tuple) -> StencilPattern:
    """Pattern of the row blocks (nodes, stencil), in row order, each
    stencil in column order like the Jacobian's row stencils above."""
    blocks = _block_columns(n)
    slabs = [_stencil_slab(nodes, stencil, blocks)
             for nodes, stencil in row_blocks]
    cols = np.concatenate([c.ravel() for c, _ in slabs])
    keep = np.concatenate([m.ravel() for _, m in slabs])
    counts = np.concatenate([m.sum(axis=1) for _, m in slabs])
    indptr = np.zeros(3 * n - 3, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return StencilPattern(keep=keep, indices=cols[keep].astype(np.int32),
                          indptr=indptr, shape=(3 * n - 4, 3 * n - 4))


def fill_pattern(pat: StencilPattern, slabs) -> scipy.sparse.csr_matrix:
    """Canonical CSR matrix on pat from one value slab per row block,
    with exact zeros dropped.  It owns its index arrays, so
    eliminate_zeros leaves the cached pattern alone."""
    data = np.concatenate([np.ravel(slab) for slab in slabs])[pat.keep]
    A = scipy.sparse.csr_matrix((data, pat.indices.copy(), pat.indptr.copy()),
                                shape=pat.shape)
    A.eliminate_zeros()
    return A


def _jacobian_pattern(grid: RadialGrid) -> StencilPattern:
    n = grid.n
    interior = np.arange(1, n - 1)
    return stencil_pattern(n, ((np.arange(1, n), _F1_STENCIL),
                               (interior, _F2_STENCIL),
                               (interior, _F3_STENCIL),
                               (np.array([n - 1]), _F4_STENCIL)))


def jacobian(state: State, p: Parameters, grid: RadialGrid) -> scipy.sparse.csr_matrix:
    """Exact derivative of the discrete residual with respect to the
    unknown vector; sparse (3n-4) x (3n-4).

    Fills the grid's fixed Jacobian pattern (fill_pattern).  Each entry
    is the same floating-point expression, in the same order, as the
    product of the stencil matrices it differentiates."""
    Db = derivative_bands(grid)
    Lb = laplacian_bands(grid)
    r = grid.r
    d = grid.delta
    lam = state.lam
    dH = node_dH(grid)
    H = node_H(grid)
    emh = np.exp(-0.5 * lam * H)

    E = field(state, grid)
    absE = np.abs(E)
    sgnE = np.sign(E)
    hE = townsend_h(absE, p)
    hpE = townsend_h_prime(absE, p)

    # F1 rows.  flux = r^2 rho E, F1_j = k_i (flux_j - flux_{j-1})/(r_j^2 d) - ...
    scale = (p.k_i / (r[1:] ** 2 * d))[:, None]
    a = r ** 2 * E
    w = r ** 2 * state.rho_i
    q = p.k_e * hpE * sgnE * emh * state.R_e
    D1 = Db[1:, 0:4]            # D[j, j-2..j+1]
    slab1 = np.hstack([
        scale * -a[:-1, None], scale * a[1:, None],
        (-p.k_e * hE[1:] * emh[1:])[:, None],
        scale * (w[1:, None] * D1 - w[:-1, None] * Db[:-1, 1:5])
        - q[1:, None] * D1])

    # F2 rows.
    DV = derivative_all_nodes(state.V, grid)
    DRe = derivative_all_nodes(state.R_e, grid)
    lapV = radial_laplacian_all_nodes(state.V, grid)
    c = 0.5 * lam * DV * dH - lapV + 0.25 * lam ** 2 * dH ** 2 - hE
    Dc = Db[1:-1, 1:4]          # D[j, j-1..j+1]
    Lc = Lb[1:-1, 2:5]          # L[j, j-1..j+1]
    J2e = -Lc - DV[1:-1, None] * Dc
    J2e[:, 1] += c[1:-1]
    dc_dV = (0.5 * lam * dH[1:-1, None]) * Dc - Lc \
        - (hpE * sgnE)[1:-1, None] * Dc
    J2v = -DRe[1:-1, None] * Dc + state.R_e[1:-1, None] * dc_dV
    slab2 = np.hstack([J2e, J2v])

    # F3 rows.
    slab3 = np.hstack([np.full((grid.n - 2, 1), -1.0), emh[1:-1, None], Lc])

    # F4 row.
    kappa = p.k_i / p.k_e
    bdV = boundary_derivative(state.V, grid, "cathode")
    emission = state.R_e[-1] - p.gamma * kappa * np.exp(0.5 * lam) * state.rho_i[-1]
    row4e = Db[-1, 0:3].copy()
    row4e[-1] += 0.25 * lam + bdV
    row4 = np.concatenate([
        [-p.gamma * kappa * np.exp(0.5 * lam) * (bdV + 0.5 * lam)],
        row4e, emission * Db[-1, 0:2]])

    return fill_pattern(grid.cached("jacobian_pattern", _jacobian_pattern),
                        (slab1, slab2, slab3, row4))


@dataclass(frozen=True)
class BandLayout:
    """Node-interleaved order of the Jacobian on one grid.

    Residual rows go (F1_j, F2_j, F3_j) and unknowns (rho_i(j), R_e(j),
    V(j)) node by node, with F4 next to node n-1 in the place of the
    cathode R_e row; in that order J is a band matrix with kl sub- and
    ku superdiagonals.  row_pos and col_pos give the position of each
    residual row and unknown; row_at and col_at invert them.  An entry
    (i, j) of J lives at flat index row_key[i] + col_key[j] of the
    Fortran-ordered LAPACK band array of shape (2 kl + ku + 1, m).
    parity is the sign of the reordering, det of the banded matrix over
    det J."""
    kl: int
    ku: int
    row_pos: np.ndarray
    col_pos: np.ndarray
    row_at: np.ndarray
    col_at: np.ndarray
    row_key: np.ndarray
    col_key: np.ndarray
    parity: int


def _permutation_parity(perm: np.ndarray) -> int:
    """Sign of a permutation, (-1)^(size - number of cycles).  Each
    index's label converges to the smallest index on its cycle by
    pointer doubling, so cycle leaders are the fixed points of label."""
    label = np.arange(perm.size)
    step = perm
    for _ in range(max(1, int(perm.size - 1).bit_length())):
        label = np.minimum(label, label[step])
        step = step[step]
    cycles = np.count_nonzero(label == np.arange(perm.size))
    return -1 if (perm.size - cycles) % 2 else 1


def _band_layout(grid: RadialGrid) -> BandLayout:
    n = grid.n
    pat = grid.cached("jacobian_pattern", _jacobian_pattern)
    k = 3 * np.arange(n - 2)
    row_pos = np.concatenate([k, [3 * n - 6], k + 1, k + 2, [3 * n - 5]])
    col_pos = np.concatenate([k, [3 * n - 6], k + 1, [3 * n - 5], k + 2])
    rows = np.repeat(np.arange(pat.shape[0]), np.diff(pat.indptr))
    offset = row_pos[rows] - col_pos[pat.indices]
    kl, ku = int(offset.max()), int(-offset.min())
    ldab = 2 * kl + ku + 1
    return BandLayout(kl=kl, ku=ku, row_pos=row_pos, col_pos=col_pos,
                      row_at=np.argsort(row_pos), col_at=np.argsort(col_pos),
                      row_key=kl + ku + row_pos, col_key=col_pos * (ldab - 1),
                      parity=_permutation_parity(row_pos)
                      * _permutation_parity(col_pos))


class BandLU:
    """LAPACK band LU of the Jacobian J, optionally bordered.

    With a border (col, row, corner) it solves the bordered system
    [[J, col], [row, corner]] by block elimination on the one LU of J:
    J^{-1} col and the Schur scalar corner - row . J^{-1} col are
    formed once, J^{-T} row on the first transposed solve.  Without a
    border it solves with J alone.  J must lie on the grid's Jacobian
    pattern (a subset of it, as after eliminate_zeros, is fine).

    det_sign, the sign of det of the (bordered) matrix, is computed only
    when read; size is its order.  A zero pivot, a zero or non-finite
    Schur scalar and a non-finite solution raise
    numpy.linalg.LinAlgError."""

    def __init__(self, J: scipy.sparse.csr_matrix, grid: RadialGrid,
                 col: np.ndarray = None, row: np.ndarray = None,
                 corner: float = 0.0):
        lay = grid.cached("band_layout", _band_layout)
        m = J.shape[0]
        ldab = 2 * lay.kl + lay.ku + 1
        ab = np.zeros(ldab * m)
        ab[np.repeat(lay.row_key, np.diff(J.indptr))
           + lay.col_key[J.indices]] = J.data
        self._lu, self._piv, info = dgbtrf(
            ab.reshape((ldab, m), order="F"), lay.kl, lay.ku, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"zero pivot {info} in the band LU")
        self._lay = lay
        self._J = J
        self._border = None
        self.size = m + (col is not None)
        if col is not None:
            y = self._band_solve(col, 0)
            schur = corner - np.dot(row, y)
            if not np.isfinite(schur) or schur == 0.0:
                raise np.linalg.LinAlgError(
                    f"bordered system singular (Schur scalar {schur})")
            self._border = (col, row, corner, schur)
            self._y = y
            self._w = None

    @property
    def det_sign(self) -> int:
        """Sign of det of the (bordered) matrix: the signs of U's diagonal
        (row kl + ku of the band), the parity of dgbtrf's row
        interchanges (0-based pivots), the parity of the node
        interleaving and, with a border, the sign of the Schur scalar."""
        lay = self._lay
        negative = np.count_nonzero(self._lu[lay.kl + lay.ku] < 0.0)
        swaps = np.count_nonzero(self._piv != np.arange(self._piv.size))
        sign = -lay.parity if (negative + swaps) % 2 else lay.parity
        if self._border is not None and self._border[3] < 0.0:
            sign = -sign
        return sign

    def _band_solve(self, b, trans):
        lay = self._lay
        into, out = (lay.col_at, lay.row_pos) if trans else \
            (lay.row_at, lay.col_pos)
        x, _ = dgbtrs(self._lu, lay.kl, lay.ku, b[into], self._piv,
                      trans=trans, overwrite_b=1)
        return x[out]

    def _eliminate(self, b, trans):
        if self._border is None:
            return self._band_solve(b, trans)
        col, row, _, schur = self._border
        if trans:
            if self._w is None:
                self._w = self._band_solve(row, 1)
            y, row = self._w, col
        else:
            y = self._y
        z = self._band_solve(b[:-1], trans)
        xi = (b[-1] - np.dot(row, z)) / schur
        return np.append(z - xi * y, xi)

    def _product(self, x, trans):
        J = self._J.T if trans else self._J
        if self._border is None:
            return J @ x
        col, row, corner, _ = self._border
        if trans:
            col, row = row, col
        top, xi = x[:-1], x[-1]
        return np.append(J @ top + xi * col, np.dot(row, top) + corner * xi)

    def solve(self, b: np.ndarray, trans: bool = False) -> np.ndarray:
        """Solution of the (bordered) system, or of its transpose when
        trans, with one step of refinement against the exact product."""
        t = int(trans)
        x = self._eliminate(b, t)
        x += self._eliminate(b - self._product(x, t), t)
        if not np.all(np.isfinite(x)):
            raise np.linalg.LinAlgError("non-finite solution")
        return x

    def norm_inf(self) -> float:
        """Infinity norm (largest absolute row sum) of the (bordered)
        matrix."""
        rows = abs(self._J) @ np.ones(self._J.shape[1])
        if self._border is None:
            return float(rows.max())
        col, row, corner, _ = self._border
        return float(max((rows + np.abs(col)).max(),
                         np.abs(row).sum() + abs(corner)))


def smallest_singular(lu: BandLU, deflated: BandLU = None):
    """Smallest singular triple (s, u, v), A v = s u and A^T u = s v, of
    the (bordered) matrix A that lu factors, by inverse iteration
    x <- A^{-1} A^{-T} x.

    Each step takes u from the transposed solve and v from the plain one,
    so A v = s u holds to rounding however small s is.  The start vector
    is fixed (seed 7), so results are bit-reproducible.  The iteration
    stops once max(|A v - s u|, |A^T u - s v|) <= SIGMA_TOL |A|_inf,
    with the products taken exactly (BandLU._product).  The solves are
    refined: near departure J itself is nearly singular, and block
    elimination alone leaves the residual of a bordered solve above that
    bound.

    With deflated, a BandLU of [[A, u1], [v1^T, 0]] for a singular triple
    (s1, u1, v1) of the unbordered A, it returns the next singular triple
    instead.  That matrix stays nonsingular when s1 is simple, and its
    solves, padded with a zero and truncated, are A^+ on the complement
    of u1 and A^{+T} on that of v1.

    Raises numpy.linalg.LinAlgError when a solve fails or the stop test
    is not met within SIGMA_MAX_ITER steps."""
    if deflated is None:
        step = lu.solve
    else:
        def step(b, trans):
            return deflated.solve(np.append(b, 0.0), trans)[:-1]
    bound = SIGMA_TOL * lu.norm_inf()
    v = np.random.default_rng(7).standard_normal(lu.size)
    v /= np.linalg.norm(v)
    for _ in range(SIGMA_MAX_ITER):
        u = step(v, True)
        u /= np.linalg.norm(u)
        v = step(u, False)
        s = 1.0 / np.linalg.norm(v)
        v *= s
        if not np.isfinite(s) or s == 0.0:
            raise np.linalg.LinAlgError(f"inverse iteration broke down (s={s})")
        res = max(np.linalg.norm(lu._product(v, 0) - s * u),
                  np.linalg.norm(lu._product(u, 1) - s * v))
        if res <= bound:
            return s, u, v
    raise np.linalg.LinAlgError(
        f"inverse iteration not converged in {SIGMA_MAX_ITER} steps "
        f"(residual {res:.3e} against {bound:.3e})")


def dresidual_dlambda(state: State, p: Parameters, grid: RadialGrid) -> np.ndarray:
    """Partial derivative of the residual vector in lambda, state held
    fixed; used by the extended (arclength) corrector."""
    n = grid.n
    r = grid.r
    d = grid.delta
    lam = state.lam
    dH = node_dH(grid)
    H = node_H(grid)
    emh = np.exp(-0.5 * lam * H)
    E = field(state, grid)
    absE = np.abs(E)
    sgnE = np.sign(E)
    hE = townsend_h(absE, p)
    hpE = townsend_h_prime(absE, p)
    DV = derivative_all_nodes(state.V, grid)

    flux_lam = r ** 2 * state.rho_i * dH
    dF1 = (p.k_i / r[1:] ** 2) * (flux_lam[1:] - flux_lam[:-1]) / d \
        - p.k_e * (hpE * sgnE * dH - 0.5 * H * hE)[1:] * emh[1:] * state.R_e[1:]
    dc = 0.5 * DV * dH + 0.5 * lam * dH ** 2 - hpE * sgnE * dH
    dF2 = (dc * state.R_e)[1:-1]
    dF3 = (-0.5 * H * emh * state.R_e)[1:-1]
    bdV = boundary_derivative(state.V, grid, "cathode")
    kappa = p.k_i / p.k_e
    dF4 = 0.25 * state.R_e[-1] - p.gamma * kappa * np.exp(0.5 * lam) \
        * ((bdV + 0.5 * lam) * 0.5 + 0.5) * state.rho_i[-1]
    return np.concatenate([dF1, dF2, dF3, [dF4]])


def trivial_linearization(lam: float, p: Parameters, grid: RadialGrid) -> scipy.sparse.csr_matrix:
    """Linearized operator at the trivial state: the Jacobian there."""
    return jacobian(trivial_state(lam, grid), p, grid)


def admissibility(state: State, grid: RadialGrid,
                  field_floor: float = FIELD_FLOOR) -> AdmissibilityReport:
    """Signed-field monitor: ok iff min over nodes of V' + lambda H'
    exceeds the floor."""
    m = float(np.min(field(state, grid)))
    return AdmissibilityReport(min_field=m, ok=m > field_floor)


def ion_consistency(state: State, p: Parameters, grid: RadialGrid) -> float:
    """Max-norm gap between the stored rho_i and the quadrature form

        rho_i(r) = (k_e/k_i) (r^2 dPhi)^{-1}
                     int_1^r t^2 h(|dPhi|) e^{-lambda H/2} R_e dt,

    an independent check that the upwind F1 rows were honored; first
    order in the grid spacing at converged states."""
    rep = admissibility(state, grid)
    if not rep.ok:
        raise AdmissibilityError(
            f"field minimum {rep.min_field:.3e} at or below floor")
    r = grid.r
    E = field(state, grid)
    emh = np.exp(-0.5 * state.lam * node_H(grid))
    integrand = r ** 2 * townsend_h(np.abs(E), p) * emh * state.R_e
    integral = cumulative_trapezoid(integrand, r, initial=0.0)
    recon = (p.k_e / p.k_i) * integral / (r ** 2 * E)
    return float(np.max(np.abs(state.rho_i[1:] - recon[1:])))


def densities(state: State, grid: RadialGrid) -> DensityReport:
    rho_e = state.R_e * np.exp(-0.5 * state.lam * node_H(grid))
    positive = bool(np.all(rho_e[1:] > 0.0) and np.all(state.rho_i[1:] > 0.0))
    return DensityReport(rho_e=rho_e,
                         sup_rho_i=float(np.max(np.abs(state.rho_i))),
                         sup_rho_e=float(np.max(np.abs(rho_e))),
                         positive=positive)


def newton_solve(guess: State, p: Parameters, grid: RadialGrid,
                 tol: float = NEWTON_TOL, max_iter: int = NEWTON_MAX_ITER,
                 constraint=None) -> NewtonResult:
    """Damped Newton on the discrete residual.

    Without a constraint lambda stays frozen.  With one, lambda is an
    unknown and the caller's scalar constraint, a callable state ->
    (value, d/d(unknowns), d/d(lambda)), closes the system.  Armijo
    backtracking halves the step until the residual norm decreases;
    failures raise MaxIterExceeded / LineSearchStall / SingularJacobian
    carrying the last iterate.  NewtonResult.lu keeps the last BandLU.
    """
    rep = admissibility(guess, grid)
    if not rep.ok:
        raise AdmissibilityError(
            f"guess field minimum {rep.min_field:.3e} at or below floor")

    state = guess.copy()

    def merit(st):
        rv = residual_vector(st, p, grid)
        if constraint is not None:
            cval = constraint(st)[0]
            return rv, float(np.hypot(norm_Y(rv, grid), cval))
        return rv, norm_Y(rv, grid)

    rv, nrm = merit(state)
    lu = None
    for it in range(max_iter):
        if nrm <= tol:
            return NewtonResult(state, it, nrm, lu)
        J = jacobian(state, p, grid)
        if constraint is None:
            border, rhs = (), -rv
        else:
            cval, dc_dx, dc_dlam = constraint(state)
            border = (dresidual_dlambda(state, p, grid), np.asarray(dc_dx),
                      dc_dlam)
            rhs = -np.append(rv, cval)
        try:
            lu = BandLU(J, grid, *border)
            full = lu.solve(rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"linear solve failed: {exc}",
                                   state, nrm) from exc
        if constraint is None:
            step, delta_lam = full, 0.0
        else:
            step, delta_lam = full[:-1], full[-1]

        x = pack(state)
        t = 1.0
        accepted = False
        while t >= MIN_STEP:
            trial = unpack(state.lam + t * delta_lam, x + t * step, grid)
            rv_t, nrm_t = merit(trial)
            if nrm_t <= (1.0 - ARMIJO_SLOPE * t) * nrm:
                state, rv, nrm = trial, rv_t, nrm_t
                accepted = True
                break
            t *= ARMIJO_FACTOR
        if not accepted:
            raise LineSearchStall("no acceptable step", state, nrm)
    if nrm <= tol:
        return NewtonResult(state, max_iter, nrm, lu)
    raise MaxIterExceeded(f"not converged in {max_iter} iterations",
                          state, nrm)
