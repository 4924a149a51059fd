"""Nullspace of the linearized steady operator at the sparking voltage, the
left (adjoint) null profile, and the transversality functional.

At lambda = lambda_dagger the linearization about the trivial state has a
one-dimensional nullspace spanned by the triple

    phi_e = u_dagger,
    phi_i(r) = (k_e / (2 k_i lambda)) * int_1^r t^2 h(2 lambda/t^2)
               e^{-lambda H(t)/2} phi_e(t) dt,
    phi_v  solving the potential row with phi_v(1) = phi_v(2) = 0.

The left nullspace reduces to a single profile w with w(1) = 0 and
w'(2) = -lambda/4 solving

    -(1/r^2)(r^2 w')' - g(lambda H') w = gamma e^{lambda/2} h(lambda H')
                                          e^{-lambda H/2};

its unnormalized origin fixes w(2) = 1 exactly at the sparking voltage
(checked, not imposed).  The transversality number F is the pairing of the
lambda-derivative of the linearization against the two null directions; a
second, independently assembled form (the raw Fredholm pairing) must agree
with it at the root, and only there.

Discretization note: every row here is assembled at second order (centered
interior stencils, one-sided boundary stencils).  The steady-state module
linearizes its upwind transport row instead.  The two matrices share the
electron, potential and cathode-emission rows (rows n-1 onward): same
pattern, entries equal up to rounding.  The n-1 transport rows differ in
both terms: the drift derivative (backward difference there, centered
here) and the S_e weights (pointwise there, trapezoid [1,2,1]/4 here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import cumulative_trapezoid

from .electron import ElectronSolution, emission_kernel
from .grid import (GridFunction, RadialGrid, boundary_derivative,
                   derivative_all_nodes, derivative_bands, laplacian_bands,
                   node_dH, node_H, radial_laplacian_all_nodes,
                   solve_sl_dirichlet, solve_sl_dirichlet_robin,
                   sturm_liouville_rows, weighted_inner)
from .model import (Parameters, g_fn, g_prime, townsend_h,
                    townsend_h_prime)
from .steady import (BandLU, State, StencilPattern, block_squares,
                     fill_pattern, pack, smallest_singular, stencil_pattern)


@dataclass
class AdjointSolution:
    lam: float
    w: GridFunction
    robin_residual: float    # |w'(2) + lam/4| as seen by the stencil


@dataclass
class NullTriple:
    phi_i: GridFunction
    phi_e: GridFunction
    phi_v: GridFunction


def adjoint_forcing(lam: float, p: Parameters, grid: RadialGrid) -> np.ndarray:
    """gamma e^{lambda/2} h(lambda H') e^{-lambda H/2} with combined exponents
    (equals 4 gamma p(r, lambda) / r^2, reusing the emission kernel)."""
    return 4.0 * p.gamma * emission_kernel(lam, grid, p) / grid.r ** 2


def solve_adjoint_w(lam: float, p: Parameters, grid: RadialGrid) -> AdjointSolution:
    """Collocation solve of the normalized left-null profile's problem."""
    q = g_fn(lam * node_dH(grid), p)
    w = solve_sl_dirichlet_robin(grid, q, adjoint_forcing(lam, p, grid), -0.25 * lam)
    robin = abs(boundary_derivative(w, grid, "cathode") + 0.25 * lam)
    return AdjointSolution(lam=lam, w=w, robin_residual=robin)


def nullspace_triple(lam: float, u_dagger: ElectronSolution, p: Parameters,
                     grid: RadialGrid) -> NullTriple:
    """Assemble the right-null triple from the electron profile at the root.

    phi_i comes from integrating the ion transport row (its integrand is
    written through the emission kernel so the cathode value reproduces the
    boundary functional's quadrature bit for bit), and phi_v solves the
    potential row with homogeneous Dirichlet data.
    """
    u = u_dagger.u
    integrand = (2.0 * p.k_e / (p.k_i * lam)) * np.exp(-0.5 * lam) \
        * emission_kernel(lam, grid, p) * u
    phi_i = cumulative_trapezoid(integrand, grid.r, initial=0.0)
    rhs = np.exp(-0.5 * lam * node_H(grid)) * u - phi_i
    phi_v = solve_sl_dirichlet(grid, 0.0, rhs)
    return NullTriple(phi_i=phi_i, phi_e=u.copy(), phi_v=phi_v)


# ---------------------------------------------------------------------------
# Reduced matrix of the linearization at the trivial state (second order),
# on steady's packed layout with S_i, S_e and W in the slots of rho_i, R_e
# and V.  Rows: transport at nodes 1..n-1 (one-sided at the cathode),
# electron and potential at 1..n-2, and the scalar cathode-emission row.
# Square of size 3n-4 with 13n-21 nonzeros, filled on a stencil pattern by
# steady's assembler (fill_pattern), as the Jacobian is.  In the Jacobian's
# node interleaving it has 6 sub- and 4 superdiagonals, inside the
# Jacobian's band layout, so svd_probe factors it with steady.BandLU.
# ---------------------------------------------------------------------------

def _linearized_pattern(grid: RadialGrid) -> StencilPattern:
    n = grid.n
    interior, cathode = np.arange(1, n - 1), np.array([n - 1])
    return stencil_pattern(n, (
        (interior, (("rho_i", (-1, 1)), ("R_e", (-1, 0, 1)))),      # transport
        (cathode, (("rho_i", (-2, -1, 0)), ("R_e", (-2, -1, 0)))),
        (interior, (("R_e", (-1, 0, 1)),)),                         # electron
        (interior, (("rho_i", (0,)), ("R_e", (0,)), ("V", (-1, 0, 1)))),
        (cathode, (("rho_i", (0,)), ("R_e", (-2, -1, 0))))))        # emission


def _trivial_coefficients(lam, p, grid):
    """h(lambda H'), g(lambda H') and e^{-lambda H/2} at the nodes."""
    ell = lam * node_dH(grid)
    return townsend_h(ell, p), g_fn(ell, p), np.exp(-0.5 * lam * node_H(grid))


def pack_triple(triple: NullTriple) -> np.ndarray:
    """The triple on steady's packed unknown layout (steady.pack)."""
    return pack(State(0.0, triple.phi_i, triple.phi_e, triple.phi_v))


def linearized_matrix(lam: float, p: Parameters, grid: RadialGrid) -> scipy.sparse.csr_matrix:
    """Sparse reduced matrix of the four linearized rows at the trivial state.

    Every entry is computed by the same floating-point expression
    whatever the node; exact zeros are dropped, and the result is
    canonical CSR (sorted, no duplicates)."""
    r = grid.r
    D = derivative_bands(grid)
    h, q, emh = _trivial_coefficients(lam, p, grid)

    # Transport rows, finite-volume form: 2 k_i lam S_i' - k_e r^2 h e^{-lam H/2} S_e
    # integrated over the two-cell stencil and divided by 2 delta r_j^2.  The
    # zeroth-order term carries the trapezoid weights [1,2,1]/4 ([-1,2,3]/4 in
    # the one-sided cathode row), which is exactly the relation the
    # integral-built phi_i satisfies.
    coef = 2.0 * p.k_i * lam / r ** 2
    s = p.k_e * r ** 2 * h * emh
    transport = np.hstack([
        coef[1:-1, None] * D[1:-1, 1:4:2],
        np.array([-0.25, -0.5, -0.25]) * sliding_window_view(s, 3)
        / r[1:-1, None] ** 2])
    cathode_transport = np.concatenate([
        coef[-1] * D[-1, 0:3], np.array([0.25, -0.5, -0.75]) * s[-3:] / r[-1] ** 2])

    # electron rows: -(S_e'' + (2/r) S_e') - g S_e
    electron = np.column_stack(sturm_liouville_rows(grid, q))[1:-1]

    # potential rows: lap W - S_i + e^{-lam H/2} S_e
    potential = np.hstack([np.full_like(emh[1:-1, None], -1.0), emh[1:-1, None],
                           laplacian_bands(grid)[1:-1, 2:5]])

    # cathode-emission row
    emission = np.concatenate([
        [-p.gamma * (p.k_i / p.k_e) * np.exp(0.5 * lam) * (0.5 * lam)],
        D[-1, 0:3] + [0.0, 0.0, 0.25 * lam]])

    return fill_pattern(grid.cached("linearized_pattern", _linearized_pattern),
                        (transport, cathode_transport, electron, potential,
                         emission))


def nullspace_residual(lam: float, triple: NullTriple, p: Parameters,
                       grid: RadialGrid) -> dict:
    """Weighted norms of the four linearized rows applied to the triple
    (one sparse matrix-vector product)."""
    res = linearized_matrix(lam, p, grid) @ pack_triple(triple)
    squares, emission = block_squares(res, grid)
    l1, l2, l3 = (float(np.sqrt(sq)) for sq in squares)
    l4 = float(emission)
    total = float(np.sqrt(l1 ** 2 + l2 ** 2 + l3 ** 2 + l4 ** 2))
    return {"transport": l1, "electron": l2, "potential": l3,
            "emission": l4, "total": total}


def svd_probe(lam: float, p: Parameters, grid: RadialGrid) -> tuple:
    """Two smallest singular values of the reduced linearization, from
    its band LU (steady.smallest_singular): s1 by inverse iteration,
    then s2 by the same iteration deflated through the border
    (u1, v1): O(n) work and memory on any grid."""
    A = linearized_matrix(lam, p, grid)
    lu = BandLU(A, grid)
    s1, u1, v1 = smallest_singular(lu)
    s2 = smallest_singular(lu, BandLU(A, grid, u1, v1, 0.0))[0]
    return float(s1), float(s2)


# ---------------------------------------------------------------------------
# Transversality
# ---------------------------------------------------------------------------

def transversality_F(lam: float, u_dagger: ElectronSolution, w_sol: AdjointSolution,
                     p: Parameters, grid: RadialGrid) -> float:
    """F = -gamma e^{lam/2} w(2) int r^2 {h' dH - h H/2} e^{-lam H/2} u dr
          - int r^2 w g'(lam dH) dH u dr
          + w(2) {u(2) - 2 u'(2) - (lam/2) u(2)},

    with u'(2) = 1, the slope solve_electron imposes.  Nonzero F certifies
    the simple crossing of the zero eigenvalue at the root."""
    r = grid.r
    u = u_dagger.u
    w = w_sol.w
    H = node_H(grid)
    dH = node_dH(grid)
    ell = lam * dH
    # combined exponent: e^{lam/2} e^{-lam H/2} = e^{lam (1/r - 1/2)}
    weight = np.exp(lam * (1.0 / r - 0.5))
    term1 = -p.gamma * w[-1] * weighted_inner(
        (townsend_h_prime(ell, p) * dH - townsend_h(ell, p) * 0.5 * H) * weight, u, grid)
    term2 = -weighted_inner(w * g_prime(ell, p) * dH, u, grid)
    u2 = u[-1]
    term3 = w[-1] * (u2 - 2.0 - 0.5 * lam * u2)
    return float(term1 + term2 + term3)


def transversality_crosscheck(lam: float, triple: NullTriple, w_sol: AdjointSolution,
                              p: Parameters, grid: RadialGrid) -> float:
    """The same number assembled as the raw pairing of the lambda-derivative
    rows against the left null vector (pairing_with_left_null: psi_i
    constant, psi_v = 0, psi_b = 4 w(2)).  Agrees with transversality_F to
    O(delta^2) exactly when the triple annihilates the cathode-emission row;
    for a generic profile the two forms differ by twice that row's value."""
    r = grid.r
    H = node_H(grid)
    dH = node_dH(grid)
    ell = lam * dH
    emh = np.exp(-0.5 * lam * H)
    # d(phi_i)/dr through the transport relation that defines phi_i
    dphi_i = (p.k_e / (2.0 * p.k_i * lam)) * grid.r ** 2 \
        * townsend_h(ell, p) * emh * triple.phi_e
    f_i = (2.0 * p.k_i / r ** 2) * dphi_i - p.k_e * (
        townsend_h_prime(ell, p) * dH - townsend_h(ell, p) * 0.5 * H) * emh * triple.phi_e
    f_e = -g_prime(ell, p) * dH * triple.phi_e
    f_b = 0.25 * triple.phi_e[-1] - p.gamma * (p.k_i / p.k_e) * np.exp(0.5 * lam) \
        * (0.25 * lam + 0.5) * triple.phi_i[-1]
    return pairing_with_left_null(lam, (f_i, f_e, None, f_b), w_sol, p, grid)


# ---------------------------------------------------------------------------
# Discrete adjoint identity
# ---------------------------------------------------------------------------

def _forward_rows(lam, S_i, S_e, W, p, grid):
    """The four linearized rows evaluated at every node (end rows use
    one-sided stencils; they only ever enter O(delta)-weight quadrature)."""
    r = grid.r
    h, q, emh = _trivial_coefficients(lam, p, grid)
    L1 = 2.0 * p.k_i * lam / r ** 2 * derivative_all_nodes(S_i, grid) - p.k_e * h * emh * S_e
    L2 = -radial_laplacian_all_nodes(S_e, grid) - q * S_e
    L3 = radial_laplacian_all_nodes(W, grid) - S_i + emh * S_e
    L4 = (boundary_derivative(S_e, grid, "cathode") + 0.25 * lam * S_e[-1]
          - p.gamma * (p.k_i / p.k_e) * np.exp(0.5 * lam) * 0.5 * lam * S_i[-1])
    return L1, L2, L3, L4


def _adjoint_rows(lam, psi_i, psi_e, psi_v, p, grid):
    r = grid.r
    h, q, emh = _trivial_coefficients(lam, p, grid)
    A1 = -2.0 * p.k_i * lam / r ** 2 * derivative_all_nodes(psi_i, grid) - psi_v
    A2 = (-radial_laplacian_all_nodes(psi_e, grid) - q * psi_e
          - p.k_e * h * emh * psi_i + emh * psi_v)
    A3 = radial_laplacian_all_nodes(psi_v, grid)
    return A1, A2, A3


# Cubic coefficient of the S_i cathode jet in _random_test_functions; see
# the docstring there for why it exists.
_CATHODE_CUBIC = -2.0


def _smooth_ramp(t):
    """C-infinity ramp: identically 0 for t <= 0, identically 1 for t >= 1."""
    t = np.clip(t, 1e-14, 1.0 - 1e-14)
    a = np.exp(-1.0 / t)
    b = np.exp(-1.0 / (1.0 - t))
    return a / (a + b)


def _random_test_functions(lam, p, grid, rng):
    """Smooth random profiles satisfying the two boundary-condition sets.

    Forward side: S_i(1)=S_e(1)=0, W(1)=W(2)=0.  Adjoint side: psi_e(1)=0,
    psi_e'(2) = -(lam/4) psi_e(2), psi_v(1)=psi_v(2)=0, psi_i(2) pinned to
    (gamma/k_e) e^{lam/2} psi_e(2); the multiplier slot is 4 psi_e(2).

    Construction: every profile is a fixed low-degree polynomial in (r - 2),
    flattened to zero at the anode by a C-infinity ramp, plus a random bump
    supported in the interior of the interval.  Interior values cancel
    identically in the pairing (the centered stencils telescope under the
    trapezoid weights), so the discrepancy is a deterministic function of the
    boundary jets and the bumps only exercise the cancellation.  The cathode
    jets are quadratic except for one cubic term in S_i, which keeps the
    subleading term of the error expansion at a fixed sign so the
    second-order shrink under grid doubling is clean rather than borderline.
    """
    x = grid.r - 1.0
    t = grid.r - 2.0
    ramp = _smooth_ramp(x / 0.35)
    bump = _smooth_ramp((x - 0.40) / 0.12) * _smooth_ramp((0.80 - x) / 0.12)

    def rb():
        return rng.uniform(-1.0, 1.0) * bump

    S_i = ramp * (0.9 - 0.7 * t + 0.5 * t * t + _CATHODE_CUBIC * t ** 3) + rb()
    S_e = ramp * (0.6 + 0.4 * t - 0.3 * t * t) + rb()
    W = ramp * t * (-0.8 + 0.5 * t) + rb()
    psi_v = ramp * t * (0.7 + 0.4 * t) + rb()

    # Robin at the cathode: slope -(lam/4) * value for value a_e at t = 0
    a_e = 0.8
    psi_e = ramp * (a_e - 0.25 * lam * a_e * t - 0.35 * t * t) + rb()

    target = (p.gamma / p.k_e) * np.exp(0.5 * lam) * a_e
    psi_i = (target + 0.6 * t) + rb()
    psi_b = 4.0 * a_e
    return (S_i, S_e, W), (psi_i, psi_e, psi_v, psi_b)


def adjoint_identity_check(lam: float, p: Parameters, grid: RadialGrid,
                           n_trials: int = 5, seed: int = 0) -> float:
    """Max over random trials of |<L U, Psi> - <U, L* Psi>| with the trapezoid
    pairing; O(delta^2) because quadrature and stencils are matched."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        (S_i, S_e, W), (psi_i, psi_e, psi_v, psi_b) = \
            _random_test_functions(lam, p, grid, rng)
        L1, L2, L3, L4 = _forward_rows(lam, S_i, S_e, W, p, grid)
        A1, A2, A3 = _adjoint_rows(lam, psi_i, psi_e, psi_v, p, grid)
        lhs = (weighted_inner(L1, psi_i, grid) + weighted_inner(L2, psi_e, grid)
               + weighted_inner(L3, psi_v, grid) + L4 * psi_b)
        rhs = (weighted_inner(S_i, A1, grid) + weighted_inner(S_e, A2, grid)
               + weighted_inner(W, A3, grid))
        worst = max(worst, abs(lhs - rhs))
    return float(worst)


def pairing_with_left_null(lam: float, rows: tuple, w_sol: AdjointSolution,
                           p: Parameters, grid: RadialGrid) -> float:
    """Pair forward rows (L1, L2, L3, L4) against the discrete left null
    vector; used by the solvability (Fredholm) checks."""
    L1, L2, L3, L4 = rows
    w = w_sol.w
    psi_i = (p.gamma / p.k_e) * np.exp(0.5 * lam) * w[-1]
    psi_b = 4.0 * w[-1]
    ones = np.ones(grid.n)
    return float(psi_i * weighted_inner(L1, ones, grid)
                 + weighted_inner(L2, w, grid) + L4 * psi_b)
