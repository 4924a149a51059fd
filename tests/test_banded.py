"""The band LU and its bordered solves against SuperLU.

steady.BandLU factors the Jacobian in LAPACK band storage and solves
bordered systems by block elimination.  Its solutions are compared with
SuperLU on the explicitly bordered matrix (oracles.SuperLUBordered), in
both orientations, at departure, at the singular trivial state of the
discrete bifurcation point and along a short trace; a trace run on the
SuperLU oracle must match the production trace point for point.  The
determinant sign read off the LU is compared with numpy's slogdet, and
a counting wrapper pins the factorizations and solves per trace point:
one factorization per corrector iteration, the tangent solved on the
last of them.
"""

import numpy as np
import pytest

from oracles import SuperLUBordered, bordered_matrix
from spark_branch import continuation, steady
from spark_branch.adjoint import linearized_matrix
from spark_branch.continuation import (initial_tangent, tangent_and_sigma,
                                       trace_branch)
from spark_branch.steady import (BandLU, SingularJacobian, _band_layout,
                                 dresidual_dlambda, jacobian, newton_solve,
                                 pack, pack_weights, trivial_state, unpack)
from spark_branch.validation import discrete_bifurcation_pair

from conftest import PARAMS

P1 = PARAMS["(2,3,1)"]
BACKWARD_TOL = 1e-14
AGREE_TOL = 1e-10


def _backward_error(A, x, b):
    """Normwise backward error |b - A x| / (|A| |x| + |b|), max norms."""
    norm_A = abs(A).sum(axis=1).max()
    return np.abs(b - A @ x).max() / (norm_A * np.abs(x).max()
                                      + np.abs(b).max())


def _check_against_superlu(J, grid, col, row, corner, seed=0):
    A = bordered_matrix(J, col, row, corner)
    lu = BandLU(J, grid, col, row, corner)
    ref = SuperLUBordered(J, grid, col, row, corner)
    b = np.random.default_rng(seed).standard_normal(A.shape[0])
    for trans, M in ((False, A), (True, A.T)):
        x = lu.solve(b, trans=trans)
        x_ref = ref.solve(b, trans=trans)
        assert _backward_error(M, x, b) <= BACKWARD_TOL
        assert np.abs(x - x_ref).max() <= AGREE_TOL * np.abs(x_ref).max()


def _departure(cache, n, h):
    """State h along the initial tangent and the tangent border there."""
    g = cache.grid(n)
    lam_dagger = cache.spark("(2,3,1)", n).lambda_dagger
    t = initial_tangent(lam_dagger, cache.triple("(2,3,1)", n), g)
    st = unpack(lam_dagger + h * t.dlam, h * t.x, g)
    return g, st, t


@pytest.mark.parametrize("n", [33, 65, 257])
def test_bandwidth_from_the_pattern(n):
    lay = _band_layout(steady.RadialGrid(n))
    assert (lay.kl, lay.ku) == (6, 5)


@pytest.mark.parametrize("n", [33, 65, 257, 1025])
def test_linearized_matrix_fits_the_band_layout(cache, n):
    """BandLU places entries by flat index, so an entry outside the band
    would land silently in a wrong slot: the linearization, the Jacobian
    at the trivial state, must lie inside the Jacobian's layout (6 sub-
    and 5 superdiagonals; its own V entries vanish there, which leaves 6
    and 3), and its band solve must then be exact."""
    g = cache.grid(n)
    lay = _band_layout(g)
    A = linearized_matrix(cache.spark("(2,3,1)", n).lambda_dagger, P1, g)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    offset = lay.row_pos[rows] - lay.col_pos[A.indices]
    assert (lay.kl, lay.ku) == (6, 5)
    assert (offset.max(), -offset.min()) == (6, 3)
    b = np.random.default_rng(n).standard_normal(A.shape[0])
    assert _backward_error(A, BandLU(A, g).solve(b), b) <= BACKWARD_TOL


@pytest.mark.parametrize("n", [65, 257])
@pytest.mark.parametrize("h", [1e-3, 1e-6])
def test_bordered_solve_at_departure(cache, n, h):
    g, st, t = _departure(cache, n, h)
    _check_against_superlu(jacobian(st, P1, g), g,
                           dresidual_dlambda(st, P1, g),
                           pack_weights(g) * t.x, t.dlam)


def test_bordered_solve_at_singular_jacobian(cache):
    """Trivial state at the discrete bifurcation point, where J is
    singular; the border is the one of the pair's own Newton system."""
    g = cache.grid(65)
    lam = cache.spark("(2,3,1)", 65).lambda_dagger
    tri = cache.triple("(2,3,1)", 65)
    lam_star, phi = discrete_bifurcation_pair(
        lam, pack(steady.State(lam, tri.phi_i, tri.phi_e, tri.phi_v)), P1, g)
    J = jacobian(trivial_state(lam_star, g), P1, g)
    eps = 1e-6
    col = (jacobian(trivial_state(lam_star + eps, g), P1, g) @ phi
           - jacobian(trivial_state(lam_star - eps, g), P1, g) @ phi) / (2 * eps)
    assert np.abs(J @ phi).max() <= 1e-7 * abs(J).max()
    _check_against_superlu(J, g, col, pack_weights(g) * phi, 0.0)


def test_bordered_and_plain_solves_along_short_trace(short_branch):
    g = short_branch.grid
    pw = pack_weights(g)
    pts = short_branch.points
    for k, (prev, point) in enumerate(zip(pts[1:], pts[2:])):
        st = point.state
        J = jacobian(st, P1, g)
        _check_against_superlu(J, g, dresidual_dlambda(st, P1, g),
                               pw * (pack(st) - pack(prev.state)),
                               st.lam - prev.state.lam, seed=k)
        # J alone is nearly singular near departure, so two stable
        # solvers may differ by cond(J) eps; the backward error may not.
        b = np.random.default_rng(k).standard_normal(J.shape[0])
        for trans, M in ((False, J), (True, J.T)):
            x = BandLU(J, g).solve(b, trans=trans)
            assert _backward_error(M, x, b) <= BACKWARD_TOL


# -------------------------------------------------------------- failures

def test_singular_border_raises_everywhere(cache):
    """h = 0 departure state: F_lambda = 0 and a zero corner make the
    bordered matrix exactly singular."""
    g, st, t = _departure(cache, 65, 0.0)
    col = dresidual_dlambda(st, P1, g)
    assert not col.any() and t.dlam == 0.0
    with pytest.raises(np.linalg.LinAlgError):
        BandLU(jacobian(st, P1, g), g, col, pack_weights(g) * t.x, 0.0)
    # no corrector LU, so no tangent: arclength_step takes the secant
    assert tangent_and_sigma(None, g) == (None, 0.0)

    pw = pack_weights(g)

    def constraint(s):
        return np.dot(pw * t.x, pack(s)) - 1e-3, pw * t.x, 0.0

    with pytest.raises(SingularJacobian):
        newton_solve(st, P1, g, constraint=constraint)


@pytest.mark.parametrize("damage", ["zero_column", "nan"])
def test_degenerate_jacobian_maps_to_typed_failures(cache, monkeypatch, damage):
    g, st, t = _departure(cache, 65, 1e-3)
    good = steady.jacobian

    def broken(state, p, grid):
        J = good(state, p, grid)
        if damage == "nan":
            J.data[0] = np.nan
        else:
            J = J.tocsc()
            J.data[J.indptr[5]:J.indptr[6]] = 0.0
            J = J.tocsr()
        return J

    if damage == "zero_column":
        with pytest.raises(np.linalg.LinAlgError, match="zero pivot"):
            BandLU(broken(st, P1, g), g)
        lu = None
    else:
        # a bordered LU whose band factor carries a NaN pivot
        lu = BandLU(jacobian(st, P1, g), g, dresidual_dlambda(st, P1, g),
                    pack_weights(g) * t.x, t.dlam)
        lay = _band_layout(g)
        lu._lu[lay.kl + lay.ku, 0] = np.nan
    monkeypatch.setattr(steady, "jacobian", broken)
    guess = unpack(st.lam, 1.01 * pack(st), g)
    with pytest.raises(SingularJacobian):
        newton_solve(guess, P1, g)
    assert tangent_and_sigma(lu, g) == (None, 0.0)


# ------------------------------------------------------------ trace match

def test_trace_matches_superlu_trace(short_branch, monkeypatch):
    g = short_branch.grid
    limits = {"lambda_cap": short_branch.lambda_dagger + 0.05}
    band = trace_branch(P1, g, limits=limits, sigma_check=True)
    monkeypatch.setattr(steady, "BandLU", SuperLUBordered)
    ref = trace_branch(P1, g, limits=limits, sigma_check=True)
    assert ref.termination.kind == band.termination.kind
    assert len(ref.points) == len(band.points)
    for a, b in zip(ref.points, band.points):
        assert a.diagnostics["newton_iters"] == b.diagnostics["newton_iters"]
        assert abs(a.state.lam - b.state.lam) <= 1e-10
        assert a.diagnostics["det_sign"] == b.diagnostics["det_sign"]
        assert abs(a.diagnostics["t_lambda"] - b.diagnostics["t_lambda"]) <= 1e-10
    # sigma_min is inverse iteration run to its residual stop test on
    # either factorization; the points themselves differ by up to 1e-10
    # in lambda, and sigma_min by at most 4e-11 relative (measured)
    sig = np.array([[a.diagnostics["sigma_min"], b.diagnostics["sigma_min"]]
                    for a, b in zip(ref.points[1:], band.points[1:])])
    np.testing.assert_allclose(sig[:, 1], sig[:, 0], rtol=1e-9)


def test_sigma_min_matches_long_reference(cache, monkeypatch):
    """The converged sigma_min of every point of an n=129 trace equals
    200 plain inverse-power steps on the same LU to 1e-10 relative."""
    pairs = []
    converged = continuation.smallest_singular

    def with_reference(lu):
        sigma = converged(lu)[0]
        v = np.random.default_rng(7).standard_normal(lu.size)
        v /= np.linalg.norm(v)
        for _ in range(200):
            z = lu.solve(lu.solve(v, trans=True))
            growth = np.linalg.norm(z)
            v = z / growth
        pairs.append((sigma, 1.0 / np.sqrt(growth)))
        return sigma, None, None

    monkeypatch.setattr(continuation, "smallest_singular", with_reference)
    br = trace_branch(P1, cache.grid(129), limits={"max_steps": 40},
                      sigma_check=True)
    assert len(pairs) == len(br.points) - 1 == 40
    sig, ref = np.array(pairs).T
    np.testing.assert_allclose(sig, ref, rtol=1e-10)
    assert [q.diagnostics["sigma_min"] for q in br.points[1:]] == list(sig)


# ---------------------------------------------------------- det sign

def _short_trace(cache, n, short_branch):
    if n == short_branch.grid.n:
        return short_branch
    lam_dagger = cache.spark("(2,3,1)", n).lambda_dagger
    return trace_branch(P1, cache.grid(n),
                        limits={"lambda_cap": lam_dagger + 0.05})


@pytest.mark.parametrize("n", [33, 65])
def test_det_sign_matches_slogdet_along_short_trace(cache, short_branch, n):
    br = _short_trace(cache, n, short_branch)
    g = br.grid
    rng = np.random.default_rng(n)
    pw = pack_weights(g)
    assert len(br.points) > 40
    seen = set()
    for prev, point in zip(br.points, br.points[1:]):
        st = point.state
        J = jacobian(st, P1, g)
        assert BandLU(J, g).det_sign == np.linalg.slogdet(J.toarray())[0]
        col, row = rng.standard_normal((2, J.shape[0]))
        corner = rng.standard_normal()
        # a random border, then the corrector's: F_lambda and the secant
        for border in ((col, row, corner),
                       (dresidual_dlambda(st, P1, g),
                        pw * (pack(st) - pack(prev.state)),
                        st.lam - prev.state.lam)):
            sign = np.linalg.slogdet(bordered_matrix(J, *border).toarray())[0]
            assert BandLU(J, g, *border).det_sign == sign
            seen.add(sign)
    assert seen == {-1.0, 1.0}


@pytest.mark.parametrize("n", [65, 129])
@pytest.mark.parametrize("key", sorted(PARAMS))
def test_trivial_family_det_sign_flips_once_at_lambda_star(cache, key, n):
    """On the trivial family the Jacobian is singular only at the
    discrete bifurcation point: det_sign flips once on [0.3, 60], there."""
    p, g = PARAMS[key], cache.grid(n)
    lam = cache.spark(key, n).lambda_dagger
    tri = cache.triple(key, n)
    lam_star, _ = discrete_bifurcation_pair(
        lam, pack(steady.State(lam, tri.phi_i, tri.phi_e, tri.phi_v)), p, g)

    def sign(x):
        return BandLU(steady.trivial_linearization(x, p, g), g).det_sign

    lams = np.linspace(0.3, 60.0, 400)
    signs = np.array([sign(x) for x in lams])
    flips = np.flatnonzero(signs[1:] != signs[:-1])
    assert flips.size == 1
    lo, hi = lams[flips[0]], lams[flips[0] + 1]
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if sign(mid) == signs[flips[0]] else (lo, mid)
    assert abs(0.5 * (lo + hi) - lam_star) <= 1e-6


# ------------------------------------------------- work per accepted point

def _counting_band_lu(monkeypatch):
    counts = {"factor": 0, "solve": 0, "trans": 0}

    class Counting(BandLU):
        def __init__(self, *args, **kwargs):
            counts["factor"] += 1
            super().__init__(*args, **kwargs)

        def solve(self, b, trans=False):
            counts["solve"] += 1
            counts["trans"] += bool(trans)
            return super().solve(b, trans=trans)

    monkeypatch.setattr(steady, "BandLU", Counting)
    return counts


def test_trace_factors_once_per_corrector_iteration(cache, monkeypatch):
    """A default trace does one factorization per corrector iteration and
    none for the tangent, which is solved on the corrector's last LU: one
    solve per iteration and per tangent, and no transposed solve.
    sigma_check adds no factorization, and one transposed and one plain
    solve per inverse iteration step, at least one step per accepted
    point."""
    g = cache.grid(65)
    counts = _counting_band_lu(monkeypatch)
    br = trace_branch(P1, g, limits={"max_steps": 20})
    accepted = len(br.points) - 1
    iters = sum(q.diagnostics["newton_iters"] for q in br.points)
    assert br.termination.kind == "MaxSteps" and accepted == 20
    assert all(q.diagnostics["det_sign"] != 0 for q in br.points[1:])
    assert counts == {"factor": iters, "solve": iters + accepted, "trans": 0}
    assert all("sigma_min" not in q.diagnostics for q in br.points)

    plain = dict(counts)
    counts.update(factor=0, solve=0, trans=0)
    checked = trace_branch(P1, g, limits={"max_steps": 20}, sigma_check=True)
    assert len(checked.points) == len(br.points)
    assert counts["factor"] == plain["factor"]
    assert counts["solve"] == plain["solve"] + 2 * counts["trans"]
    assert counts["trans"] >= accepted
