"""Grid, quadrature, stencils, and the banded Sturm-Liouville solvers."""

import numpy as np
import pytest

from spark_branch.grid import (RadialGrid, weighted_inner, integrate,
                               boundary_derivative, solve_sl_dirichlet,
                               solve_sl_dirichlet_robin, derivative_bands,
                               laplacian_bands, derivative_all_nodes,
                               second_derivative_all_nodes,
                               radial_laplacian_all_nodes, sturm_liouville_rows,
                               node_dH, BandedSolveError)
from spark_branch.model import Parameters, g_fn
from spark_branch.validation import convergence_orders

from oracles import derivative_matrix_reference, laplacian_matrix_reference

G = RadialGrid(129)


def test_grid_layout():
    g = RadialGrid(65)
    assert g.n == 65
    assert g.r[0] == 1.0 and g.r[-1] == 2.0
    assert g.delta == pytest.approx(1.0 / 64.0)
    assert np.allclose(np.diff(g.r), g.delta)
    # trapezoid weights sum to the gap width
    assert np.sum(g.weights) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        RadialGrid(8)


def test_integrate_exact_on_linear():
    u = 3.0 * G.r - 1.0
    # trapezoid is exact for affine integrands
    assert integrate(u, G) == pytest.approx(3.0 * 1.5 - 1.0, abs=1e-14)


def test_weighted_inner_is_volume_pairing():
    # int_1^2 r^2 * (1/r^2) dr = 1 exactly, and the integrand is smooth
    u = 1.0 / G.r ** 2
    v = np.ones(G.n)
    assert weighted_inner(u, v, G) == pytest.approx(1.0, abs=1e-5)
    assert weighted_inner(u, v, G) == weighted_inner(v, u, G)


def test_boundary_derivative_exact_on_quadratics():
    u = 2.0 * G.r ** 2 - 3.0 * G.r + 0.5
    assert boundary_derivative(u, G, "anode") == pytest.approx(1.0, abs=1e-10)
    assert boundary_derivative(u, G, "cathode") == pytest.approx(5.0, abs=1e-10)
    with pytest.raises(ValueError):
        boundary_derivative(u, G, "middle")


def test_all_node_stencils_second_order():
    errs_d, errs_dd, errs_lap = [], [], []
    for n in (65, 129, 257):
        g = RadialGrid(n)
        u = np.sin(np.pi * (g.r - 1.0)) * np.exp(-g.r)
        up = (np.pi * np.cos(np.pi * (g.r - 1.0)) - np.sin(np.pi * (g.r - 1.0))) * np.exp(-g.r)
        upp = (-np.pi ** 2 * np.sin(np.pi * (g.r - 1.0))
               - 2.0 * np.pi * np.cos(np.pi * (g.r - 1.0))
               + np.sin(np.pi * (g.r - 1.0))) * np.exp(-g.r)
        errs_d.append(np.max(np.abs(derivative_all_nodes(u, g) - up)))
        errs_dd.append(np.max(np.abs(second_derivative_all_nodes(u, g) - upp)))
        errs_lap.append(np.max(np.abs(radial_laplacian_all_nodes(u, g)
                                      - (upp + 2.0 * up / g.r))))
    assert np.all(convergence_orders(errs_d) > 1.8)
    assert np.all(convergence_orders(errs_dd) > 1.8)
    assert np.all(convergence_orders(errs_lap) > 1.8)


def _apply_bands(bands, u):
    """Sum over offsets o of bands[:, width + o] * u[i + o], zero-padded."""
    width = bands.shape[1] // 2
    padded = np.concatenate([np.zeros(width), u, np.zeros(width)])
    return sum(bands[:, k] * padded[k:k + u.size] for k in range(bands.shape[1]))


def _reference_bands(mat, width):
    """Stored values of a sparse banded matrix by diagonal, as in the
    band tables: entry [i, width + o] holds mat[i, i + o]."""
    coo = mat.tocoo()
    bands = np.zeros((mat.shape[0], 2 * width + 1))
    bands[coo.row, coo.col - coo.row + width] = coo.data
    return bands


def test_matrix_forms_match_function_forms():
    # the band tables, applied as matrices, reproduce the vector forms
    u = np.cos(1.7 * G.r) + G.r ** 2
    assert np.allclose(_apply_bands(derivative_bands(G), u),
                       derivative_all_nodes(u, G), atol=1e-11)
    assert np.allclose(_apply_bands(laplacian_bands(G), u),
                       radial_laplacian_all_nodes(u, G), atol=1e-9)


@pytest.mark.parametrize("n", [33, 65, 100, 257, 1025, 4097])
def test_band_tables_equal_reference_matrices_bitwise(n):
    g = RadialGrid(n)
    D, L = derivative_bands(g), laplacian_bands(g)
    assert D.shape == (n, 5) and L.shape == (n, 7)
    assert D.tobytes() == _reference_bands(derivative_matrix_reference(g), 2).tobytes()
    assert L.tobytes() == _reference_bands(laplacian_matrix_reference(g), 3).tobytes()


def test_band_tables_are_shared_read_only():
    g = RadialGrid(65)
    for table in (derivative_bands, laplacian_bands):
        bands = table(g)
        assert table(g) is bands
        assert not bands.flags.writeable
        with pytest.raises(ValueError):
            bands[1, 1] = 0.0
    assert derivative_bands(RadialGrid(65)) is not derivative_bands(g)


@pytest.mark.parametrize("n", [65, 100, 257])
def test_sturm_liouville_rows_are_negated_laplacian_rows(n):
    g = RadialGrid(n)
    q = np.linspace(-1.0, 2.0, n)
    sub, diag, sup = sturm_liouville_rows(g, q)
    L, j = laplacian_bands(g), slice(1, n - 1)
    assert np.array_equal(sub[j], -L[j, 2])
    assert np.array_equal(diag[j], -L[j, 3] - q[j])
    assert np.array_equal(sup[j], -L[j, 4])
    assert sub[0] == diag[0] == sup[0] == sub[-1] == diag[-1] == sup[-1] == 0.0


@pytest.mark.parametrize("n", [65, 100, 257])
def test_robin_row_is_last_derivative_row(n):
    g = RadialGrid(n)
    solve_sl_dirichlet_robin(g, 0.0, 0.0, 1.0)
    row = g.cached("robin_row", None)   # cached by the solve
    assert all(type(v) is float for v in row)
    assert row == tuple(derivative_bands(g)[-1, 0:3])
    # the three are the cathode slope's coefficients of u[n-3], u[n-2], u[n-1]
    u = np.zeros(n)
    for k, coef in zip((-3, -2, -1), row):
        u[:] = 0.0
        u[k] = 1.0
        assert boundary_derivative(u, g, "cathode") == coef


def test_dirichlet_solver_manufactured_convergence():
    # exact solution u = sin(pi(r-1)), q = -1; f = -u'' - (2/r)u' + u
    errs = []
    for n in (65, 129, 257):
        g = RadialGrid(n)
        r = g.r
        ue = np.sin(np.pi * (r - 1.0))
        f = (np.pi ** 2 * ue
             - (2.0 / r) * np.pi * np.cos(np.pi * (r - 1.0)) + ue)
        u = solve_sl_dirichlet(g, -1.0, f)
        errs.append(np.max(np.abs(u - ue)))
    assert np.all(convergence_orders(errs) > 1.9)


def test_robin_solver_harmonic_solution():
    # -u'' - (2/r)u' = 0 with u(1)=0, u'(2)=1 has u = 4(1 - 1/r)
    errs = []
    for n in (65, 129, 257):
        g = RadialGrid(n)
        u = solve_sl_dirichlet_robin(g, 0.0, 0.0, 1.0)
        errs.append(np.max(np.abs(u - 4.0 * (1.0 - 1.0 / g.r))))
    assert errs[-1] < 3e-5
    assert np.all(convergence_orders(errs) > 1.9)
    # imposed slope is honored by the cathode stencil itself
    u = solve_sl_dirichlet_robin(G, 0.0, 0.0, 1.0)
    assert boundary_derivative(u, G, "cathode") == pytest.approx(1.0, abs=1e-12)


def _row_backward_error(g, q, f, u, cathode_slope=None):
    """max over the unpinned rows of |Au - f| / (|A||u| + |f|), evaluated in
    extended precision so that it measures the solve, not its own rounding.
    With cathode_slope the cathode row is the one-sided slope row."""
    ld = np.longdouble
    sub, diag, sup = (np.asarray(v, dtype=ld) for v in sturm_liouville_rows(g, q))
    u = np.asarray(u, dtype=ld)
    f = np.broadcast_to(np.asarray(f, dtype=ld), (g.n,))
    j = slice(1, g.n - 1)
    terms = [sub[j] * u[:-2], diag[j] * u[1:-1], sup[j] * u[2:]]
    res = [np.abs(sum(terms) - f[j])]
    scale = [sum(np.abs(t) for t in terms) + np.abs(f[j])]
    if cathode_slope is not None:
        c = ld(0.5) / ld(g.delta)
        terms = [c * u[-3], -4 * c * u[-2], 3 * c * u[-1]]
        res.append(np.abs([sum(terms) - ld(cathode_slope)]))
        scale.append([sum(np.abs(t) for t in terms) + abs(ld(cathode_slope))])
    return float(np.max(np.concatenate(res) / np.concatenate(scale)))


@pytest.mark.parametrize("n", [33, 257, 1025, 4097])
def test_solves_pin_boundary_values_exactly(n):
    # the Dirichlet values are not unknowns of the solve, so they come out
    # exact; every remaining row is met to a componentwise backward error
    # at the rounding level
    g = RadialGrid(n)
    q = g_fn(3.574 * node_dH(g), Parameters(2.0, 3.0, 1.0))
    f = np.exp(-g.r) * np.sin(5.0 * g.r)
    for forcing, slope in ((0.0, 1.0), (f, -0.9)):
        u = solve_sl_dirichlet_robin(g, q, forcing, slope)
        assert u[0] == 0.0
        assert _row_backward_error(g, q, forcing, u, cathode_slope=slope) <= 1e-15
    for forcing, value in ((f, 0.0), (0.0, 1.0)):
        u = solve_sl_dirichlet(g, q, forcing, value)
        assert u[0] == 0.0 and u[-1] == value
        assert _row_backward_error(g, q, forcing, u) <= 1e-15


def test_banded_solver_reports_singularity():
    # guard-level check: an exactly singular tridiagonal system must surface
    # as BandedSolveError carrying a condition estimate, not as garbage output
    from spark_branch.grid import _solve_tridiagonal

    with pytest.raises(BandedSolveError) as exc:
        _solve_tridiagonal(np.array([1.0]), np.array([1.0, 1.0]), np.array([1.0]),
                           np.array([1.0, 0.0]))
    assert exc.value.condition > 1e12
    # overflow without a zero pivot takes the dgtcon estimate instead
    with pytest.raises(BandedSolveError) as exc:
        _solve_tridiagonal(np.zeros(2), np.array([1e-300, 1.0, 1.0]), np.zeros(2),
                           np.array([1e300, 0.0, 0.0]))
    assert exc.value.condition > 1e12


def test_sturm_liouville_offdiagonals_are_shared_read_only():
    g = RadialGrid(65)
    q = np.linspace(0.0, 1.0, g.n)
    sub, diag, sup = sturm_liouville_rows(g, q)
    sub2, diag2, sup2 = sturm_liouville_rows(g, 0.0)
    assert sub is sub2 and sup is sup2
    assert not sub.flags.writeable and not sup.flags.writeable
    with pytest.raises(ValueError):
        sub[1] = 0.0
    d, r, j = g.delta, g.r, slice(1, g.n - 1)
    assert np.array_equal(sub[j], -1.0 / d**2 + 1.0 / (r[j] * d))
    assert np.array_equal(sup[j], -1.0 / d**2 - 1.0 / (r[j] * d))
    assert np.array_equal(diag[j], 2.0 / d**2 - q[j])
    assert diag2[j].tolist() == [2.0 / d**2] * (g.n - 2)
    for v in (sub, diag, sup, diag2):
        assert v[0] == v[-1] == 0.0
