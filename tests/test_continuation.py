"""Pseudo-arclength continuation: tangents, steps, classification, traces."""

import numpy as np
import pytest

from conftest import PARAMS
from oracles import tangent_at_accepted_point
from spark_branch import continuation
from spark_branch.model import Parameters
from spark_branch.grid import RadialGrid
from spark_branch.electron import sparking_voltage
from spark_branch.continuation import (DEFAULT_LIMITS, Branch, BranchPoint,
                                       Termination, StepFailure,
                                       initial_tangent, arclength_step,
                                       tangent_and_sigma, trace_branch,
                                       state_norm, high_voltage_diagnostic,
                                       crossing_events, _diagnostics,
                                       _classify)
from spark_branch.steady import (NEWTON_TOL, State, pack, pack_weights,
                                 trivial_state)

P1 = PARAMS["(2,3,1)"]

TERMINATION_KINDS = {"DensityBlowup", "VoltageBlowup", "HalfLoop",
                     "FieldDegeneracy", "PositivityLoss", "MaxSteps",
                     "NewtonFailure"}


def _start_point(cache, n):
    g = cache.grid(n)
    lam = cache.spark("(2,3,1)", n).lambda_dagger
    st = trivial_state(lam, g)
    return g, lam, BranchPoint(0.0, st, _diagnostics(st, g, 0, 0.0))


def test_initial_tangent_is_normalized_profile_direction(cache):
    g = cache.grid(129)
    lam = cache.spark("(2,3,1)", 129).lambda_dagger
    t = initial_tangent(lam, cache.triple("(2,3,1)", 129), g)
    # on the trivial family the residual is identically zero in lambda, so
    # the tangent cannot have a voltage component
    assert t.dlam == 0.0
    pw = pack_weights(g)
    assert np.dot(pw * t.x, t.x) == pytest.approx(1.0, abs=1e-12)
    # orientation: nonnegative electron part
    n = g.n
    assert np.min(t.x[n - 1:2 * n - 2]) >= -1e-12


def test_first_step_length_and_voltage(cache):
    g, lam, pt0 = _start_point(cache, 129)
    t0 = initial_tangent(lam, cache.triple("(2,3,1)", 129), g)
    for h in (1e-3, 1e-2):
        pt, h_used, _ = arclength_step(pt0, t0, h, P1, g)
        assert h_used == h
        # the state leaves along the tangent: the arclength constraint puts
        # its weighted norm at h up to the curvature correction
        assert state_norm(pt.state, g) == pytest.approx(h, rel=1e-2)
        # the branch leaves the scanned root itself, the discrete
        # bifurcation point, so the voltage moves by O(h) only
        assert abs(pt.state.lam - lam) <= 0.05 * h


def test_parametrization_gap_halves_with_h(cache):
    g, lam, pt0 = _start_point(cache, 129)
    t0 = initial_tangent(lam, cache.triple("(2,3,1)", 129), g)
    pw = pack_weights(g)

    def dist(a, b):
        dx = pack(a) - pack(b)
        return float(np.sqrt(np.dot(pw * dx, dx) + (a.lam - b.lam) ** 2))

    def state_at(h, steps):
        pt, t = pt0, t0
        for _ in range(steps):
            pt, _, t = arclength_step(pt, t, h, P1, g)
        return pt.state

    # one step or two to the same arclength differ only through the
    # tangents in the constraints; with no offset between the sparking
    # voltage and the discrete bifurcation point for the first step to
    # absorb, the gap shrinks much faster than h (measured ratio 1845)
    gap_full = dist(state_at(0.02, 1), state_at(0.01, 2))
    gap_half = dist(state_at(0.01, 1), state_at(0.005, 2))
    assert gap_full / gap_half >= 1.7


def test_tangent_continuity_along_first_steps(cache):
    g, lam, pt0 = _start_point(cache, 129)
    t = initial_tangent(lam, cache.triple("(2,3,1)", 129), g)
    pw = pack_weights(g)
    pt = pt0
    for _ in range(3):
        pt, _, t_new = arclength_step(pt, t, 1e-3, P1, g)
        dot = np.dot(pw * t.x, t_new.x) + t.dlam * t_new.dlam
        assert dot > 0.9
        t = t_new


def test_step_failure_below_h_min(cache):
    g, lam, pt0 = _start_point(cache, 129)
    t0 = initial_tangent(lam, cache.triple("(2,3,1)", 129), g)
    # an unreachable corrector tolerance exhausts the halving ladder
    with pytest.raises(StepFailure) as exc:
        arclength_step(pt0, t0, 1e-3, P1, g, h_min=1e-4, tol=1e-16)
    assert exc.value.h_last < 1e-4


def test_bordered_tangent_sigma_positive_on_branch(branch129_long, cache):
    # the shared factorization reports a healthy smallest singular value
    # away from the bifurcation point
    sig = [pt.diagnostics["sigma_min"] for pt in branch129_long.points[5:50]]
    assert np.min(sig) > 1e-4


def test_trace_rejects_unknown_limit_keys(cache):
    with pytest.raises(ValueError):
        trace_branch(P1, cache.grid(129), limits={"max_stepz": 10})


def test_trace_max_steps_envelope(cache):
    g = cache.grid(129)
    br = trace_branch(P1, g, limits={"max_steps": 12})
    assert br.termination.kind == "MaxSteps"
    assert len(br.points) == 13
    assert br.lambda_dagger == cache.spark("(2,3,1)", 129).lambda_dagger
    assert br.grid is g
    s = np.array([pt.s for pt in br.points])
    assert np.all(np.diff(s) > 0.0)
    for pt in br.points[1:]:
        d = pt.diagnostics
        assert d["residual_norm"] <= 1e-10
        assert d["positive"]
        assert d["min_field"] > DEFAULT_LIMITS["field_floor"]
    assert br.warnings == []


def test_trace_is_deterministic(cache):
    g = cache.grid(129)
    a = trace_branch(P1, g, limits={"max_steps": 20})
    b = trace_branch(P1, g, limits={"max_steps": 20})
    assert len(a.points) == len(b.points)
    for pa, pb in zip(a.points, b.points):
        assert pa.s == pb.s
        assert pa.state.lam == pb.state.lam
        assert np.array_equal(pa.state.rho_i, pb.state.rho_i)


@pytest.mark.parametrize("limits,kind", [
    ({"sup_density_cap": 1e-6}, "DensityBlowup"),
    ({"lambda_cap": 3.0}, "VoltageBlowup"),
    ({"field_floor": 1.9}, "FieldDegeneracy"),
    # density cap outranks the voltage cap when both are tripped
    ({"sup_density_cap": 1e-6, "lambda_cap": 3.0}, "DensityBlowup"),
])
def test_trace_classification_triggers(cache, limits, kind):
    br = trace_branch(P1, cache.grid(129), limits=dict(limits, max_steps=10))
    assert br.termination.kind == kind
    assert br.termination.evidence["s"] == br.points[-1].s


def test_half_loop_classification_unit(cache):
    # synthetic return to the trivial family at higher voltage; the recheck
    # must flag that the landing voltage is not actually a root of B
    g = cache.grid(129)
    lam = cache.spark("(2,3,1)", 129).lambda_dagger
    st = trivial_state(lam + 1.0, g)
    pt = BranchPoint(4.0, st, _diagnostics(st, g, 2, 0.0))
    term = _classify(pt, lam, DEFAULT_LIMITS, P1, g)
    assert term is not None and term.kind == "HalfLoop"
    assert term.evidence["lambda_ddagger"] == pytest.approx(lam + 1.0)
    assert not term.evidence["B_consistent"]
    assert abs(term.evidence["residual_B"]) > 0.05


def test_positivity_loss_classification_unit(cache):
    g = cache.grid(129)
    lam = cache.spark("(2,3,1)", 129).lambda_dagger
    r = g.r
    Re = 0.3 * np.sin(np.pi * (r - 1.0))
    Re[g.n // 2] = -1e-6
    Re[0] = 0.0
    st = State(lam - 1e-4, 0.2 * (r - 1.0) * (2 - r), Re, np.zeros(g.n))
    pt = BranchPoint(1.0, st, _diagnostics(st, g, 2, 0.0))
    assert not pt.diagnostics["positive"]
    term = _classify(pt, lam, DEFAULT_LIMITS, P1, g)
    assert term.kind == "PositivityLoss"
    # healthy amplitude, isolated zero: artifact, not a collapse
    assert term.evidence["artifact_suspected"]
    assert not term.evidence["global_collapse"]
    # collapsed profile: the genuine ending
    st2 = State(lam - 1e-4, np.zeros(g.n), -1e-12 * np.ones(g.n), np.zeros(g.n))
    pt2 = BranchPoint(1.0, st2, _diagnostics(st2, g, 2, 0.0))
    term2 = _classify(pt2, lam, DEFAULT_LIMITS, P1, g)
    assert term2.kind == "PositivityLoss"
    assert term2.evidence["global_collapse"]


def test_high_voltage_diagnostic_refusals(cache):
    g = cache.grid(129)
    br = trace_branch(P1, g, limits={"max_steps": 10})
    rep = high_voltage_diagnostic(br, P1)
    assert not rep.applicable
    assert "MaxSteps" in rep.reason

    fake = Branch(br.points, Termination("VoltageBlowup", {}), br.lambda_dagger,
                  g, [])
    rep = high_voltage_diagnostic(fake, Parameters(np.log(2.0), 3.0, 1.0))
    assert not rep.applicable
    assert "hypothesis" in rep.reason

    short = Branch(br.points[:5], Termination("VoltageBlowup", {}),
                   br.lambda_dagger, g, [])
    rep = high_voltage_diagnostic(short, P1)
    assert not rep.applicable


def test_high_voltage_diagnostic_analyzes_fake_blowup_tail(cache):
    # on this branch the densities grow with s, so the monotone-decay check
    # must come back negative while still being applicable
    g = cache.grid(129)
    br = trace_branch(P1, g, limits={"max_steps": 40})
    fake = Branch(br.points, Termination("VoltageBlowup", {}), br.lambda_dagger,
                  g, [])
    rep = high_voltage_diagnostic(fake, P1)
    assert rep.applicable
    assert rep.sup_rho_i_monotone is False
    assert rep.ok is False


def test_newton_failure_recorded_not_raised(cache):
    # unreachable corrector tolerance: the trace must come back classified,
    # with the evidence naming the failure, instead of raising
    g = cache.grid(129)
    br = trace_branch(P1, g, limits={"max_steps": 10}, tol=1e-16)
    assert br.termination.kind == "NewtonFailure"
    assert "error" in br.termination.evidence
    assert len(br.points) >= 1


# ------------------------------------------------------ test functions

def _tested_point(s, lam, t_lambda, det_sign):
    st = State(lam, np.zeros(3), np.zeros(3), np.zeros(3))
    return BranchPoint(s, st, {"t_lambda": t_lambda, "det_sign": det_sign})


def test_crossing_events_place_a_fold_at_the_secant_zero():
    a = _tested_point(1.0, 4.0, 0.02, 1)
    b = _tested_point(1.2, 4.004, -0.06, 1)
    (fold,) = crossing_events(a, b, 7)
    assert fold["kind"] == "Fold" and fold["index"] == 7
    # t_lambda is linear in s between the points: zero a quarter of the way
    assert fold["s"] == pytest.approx(1.05, abs=1e-15)
    assert fold["lambda"] == pytest.approx(4.001, abs=1e-15)
    assert crossing_events(b, a, 3)[0]["s"] == pytest.approx(1.05, abs=1e-15)


def test_crossing_events_ignore_zeros_and_flag_det_sign_flips():
    # departure: t_lambda is exactly 0 and no bordered LU exists yet
    seed = _tested_point(0.0, 3.57, 0.0, 0)
    for t, d in ((0.01, 1), (-0.01, -1)):
        assert crossing_events(seed, _tested_point(1e-3, 3.57, t, d), 1) == []
    # a zero t_lambda or det_sign (secant fallback) later on is no sign either
    a = _tested_point(2.0, 4.0, 0.01, 1)
    assert crossing_events(a, _tested_point(2.1, 4.0, 0.0, 0), 9) == []
    (bp,) = crossing_events(a, _tested_point(2.1, 4.002, 0.01, -1), 9)
    assert bp == {"kind": "BranchPoint", "s": pytest.approx(2.05),
                  "lambda": pytest.approx(4.001), "index": 9}


def test_trace_reports_a_det_sign_flip_as_event_and_warning(cache,
                                                            monkeypatch):
    """Negating det_sign from the sixth tangent on must give one
    BranchPoint event between points 5 and 6, a warning, and otherwise
    the same trace: the test functions never feed back into the step."""
    g = cache.grid(65)
    plain = trace_branch(P1, g, limits={"max_steps": 10})
    good = continuation.tangent_and_sigma
    calls = []

    def flipped(*args, **kwargs):
        t, sigma = good(*args, **kwargs)
        calls.append(None)
        if len(calls) >= 6:
            t.det_sign = -t.det_sign
        return t, sigma

    monkeypatch.setattr(continuation, "tangent_and_sigma", flipped)
    br = trace_branch(P1, g, limits={"max_steps": 10})
    pts = br.points
    assert br.events == [{"kind": "BranchPoint",
                          "s": 0.5 * (pts[5].s + pts[6].s),
                          "lambda": 0.5 * (pts[5].state.lam + pts[6].state.lam),
                          "index": 6}]
    assert len(br.warnings) == 1
    assert "possible secondary bifurcation" in br.warnings[0]
    assert [q.s for q in pts] == [q.s for q in plain.points]
    assert plain.events == [] and plain.warnings == []


def test_secant_tangent_replaces_a_failed_tangent_solve(cache, monkeypatch):
    """When tangent_and_sigma fails once, arclength_step falls back to the
    normalized secant through the last two points: the trace goes on, the
    point records det_sign 0, and the secant has unit extended norm and
    keeps the orientation of the tangent before it."""
    g = cache.grid(65)
    good = continuation.tangent_and_sigma
    step = continuation.arclength_step
    seen = []

    def recording_step(current, tangent, *args, **kwargs):
        seen.append(tangent)
        return step(current, tangent, *args, **kwargs)

    def fails_third(*args, **kwargs):
        if len(seen) == 3:
            return None, 0.0
        return good(*args, **kwargs)

    monkeypatch.setattr(continuation, "arclength_step", recording_step)
    monkeypatch.setattr(continuation, "tangent_and_sigma", fails_third)
    br = trace_branch(P1, g, limits={"max_steps": 6})
    pts = br.points
    assert br.termination.kind == "MaxSteps" and len(pts) == 7
    assert [q.diagnostics["det_sign"] for q in pts].count(0) == 2
    assert pts[3].diagnostics["det_sign"] == 0
    assert all(q.diagnostics["det_sign"] != 0 for q in pts[4:])

    before, secant = seen[2], seen[3]   # tangents handed to steps 3 and 4
    assert continuation.ext_inner(secant, secant, g) == pytest.approx(1.0, rel=1e-13)
    assert continuation.ext_inner(secant, before, g) > 0.0
    assert pts[3].diagnostics["t_lambda"] == secant.dlam
    dx = pack(pts[3].state) - pack(pts[2].state)
    dlam = pts[3].state.lam - pts[2].state.lam
    norm = np.sqrt(np.dot(pack_weights(g) * dx, dx) + dlam * dlam)
    assert secant.dlam == pytest.approx(dlam / norm, rel=1e-12)
    assert np.allclose(secant.x, dx / norm, rtol=0.0, atol=1e-12)


def test_det_sign_flip_across_a_secant_fallback_is_a_branch_point(
        cache, monkeypatch):
    """det_sign is compared with the last nonzero sign: a flip between
    point 2 and point 4, with the secant fallback (det_sign 0) at point 3
    between them, is one BranchPoint over the bracket [s_2, s_4], marked
    as containing a fallback, and a warning that says so."""
    g = cache.grid(65)
    good = continuation.tangent_and_sigma
    calls = []

    def fallback_then_flip(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            return None, 0.0
        t, sigma = good(*args, **kwargs)
        if len(calls) >= 4:
            t.det_sign = -t.det_sign
        return t, sigma

    monkeypatch.setattr(continuation, "tangent_and_sigma", fallback_then_flip)
    br = trace_branch(P1, g, limits={"max_steps": 6})
    pts = br.points
    assert [q.diagnostics["det_sign"] == 0 for q in pts] == \
        [True, False, False, True, False, False, False]
    assert pts[2].diagnostics["det_sign"] == -pts[4].diagnostics["det_sign"]
    assert br.events == [{"kind": "BranchPoint",
                          "s": 0.5 * (pts[2].s + pts[4].s),
                          "lambda": 0.5 * (pts[2].state.lam + pts[4].state.lam),
                          "index": 4, "fallback": True}]
    assert len(br.warnings) == 1
    assert "secant fallback" in br.warnings[0]
    assert "possible secondary bifurcation" in br.warnings[0]


def test_failed_sigma_iteration_is_nan_and_no_bifurcation_warning(
        cache, monkeypatch):
    """When smallest_singular raises, the point records sigma_min NaN and
    the trace warns that the iteration did not converge; it does not
    report a possible secondary bifurcation.  The trace is unchanged."""
    g = cache.grid(65)
    plain = trace_branch(P1, g, limits={"max_steps": 6}, sigma_check=True)
    good = continuation.smallest_singular
    calls = []

    def fails_once(lu):
        calls.append(None)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("inverse iteration not converged")
        return good(lu)

    monkeypatch.setattr(continuation, "smallest_singular", fails_once)
    br = trace_branch(P1, g, limits={"max_steps": 6}, sigma_check=True)
    sig = [q.diagnostics["sigma_min"] for q in br.points[1:]]
    assert np.isnan(sig[2])
    ref = [q.diagnostics["sigma_min"] for q in plain.points[1:]]
    assert sig[:2] + sig[3:] == ref[:2] + ref[3:]
    assert min(ref) >= continuation.SIGMA_WARN and plain.warnings == []
    assert br.warnings == [f"sigma_min inverse iteration did not converge "
                           f"at s={br.points[3].s:.6f}"]
    assert [q.s for q in br.points] == [q.s for q in plain.points]


@pytest.fixture(scope="module")
def plain129(cache):
    """Default (no sigma_check) 400-step traces at n=129, per frozen set."""
    return {key: trace_branch(PARAMS[key], cache.grid(129),
                              limits={"max_steps": 400})
            for key in sorted(PARAMS)}


def test_sigma_check_changes_no_point(plain129, branch129_long):
    """sigma_min never feeds back into the step: with and without it the
    trace is the same, bit for bit."""
    plain = plain129["(2,3,1)"]
    assert len(plain.points) == len(branch129_long.points)
    for a, b in zip(plain.points, branch129_long.points):
        assert a.s == b.s
        assert np.array_equal(pack(a.state), pack(b.state))
        assert a.state.lam == b.state.lam
        assert "sigma_min" not in a.diagnostics
        assert {k: v for k, v in b.diagnostics.items()
                if k != "sigma_min"} == a.diagnostics
    assert plain.termination == branch129_long.termination
    assert plain.events == branch129_long.events == []


@pytest.mark.parametrize("key", sorted(PARAMS))
def test_frozen_sets_report_no_events(cache, plain129, branch257_full, key):
    """No fold and no branch point on the three reference branches, at
    n=129 (400 steps) and n=257 (the default trace)."""
    br257 = branch257_full if key == "(2,3,1)" else \
        trace_branch(PARAMS[key], cache.grid(257))
    for br in (plain129[key], br257):
        assert br.events == [] and br.warnings == []
        t_lam = [q.diagnostics["t_lambda"] for q in br.points[1:]]
        assert min(t_lam) > 0.0
        assert {q.diagnostics["det_sign"] for q in br.points[1:]} == {1}


def _trace_factoring_at_accepted_points(p, grid, monkeypatch, **kwargs):
    """trace_branch with each tangent from a band LU at the accepted point
    itself (oracles.tangent_at_accepted_point) instead of the corrector's
    last LU."""
    seen = {}
    step, newton = continuation.arclength_step, continuation.newton_solve

    def recording_step(current, tangent, *args, **kw):
        seen["tangent"] = tangent
        return step(current, tangent, *args, **kw)

    def recording_newton(*args, **kw):
        res = newton(*args, **kw)
        seen["state"] = res.state
        return res

    def at_accepted_point(lu, grid, sigma_check=True):
        return tangent_at_accepted_point(seen["state"], seen["tangent"], p,
                                         grid, sigma_check)

    monkeypatch.setattr(continuation, "arclength_step", recording_step)
    monkeypatch.setattr(continuation, "newton_solve", recording_newton)
    monkeypatch.setattr(continuation, "tangent_and_sigma", at_accepted_point)
    return trace_branch(p, grid, **kwargs)


@pytest.mark.parametrize("key", sorted(PARAMS))
def test_tangent_from_corrector_lu_matches_accepted_point_lu(cache, key,
                                                             monkeypatch):
    """The corrector's last LU is formed one Newton step before the
    accepted point, so its tangent and sigma_min differ from those of an
    LU at the point by the size of that step: largest right after
    departure, where J is nearly singular, and O(h^2) (the Euler
    predictor's error) once the corrector converges in one iteration.
    The first step's corrector converges in one iteration, so point 1's
    tangent comes from an LU at the predictor (h phi, lambda_dagger),
    whose lambda component is twice the branch's slope (0.0479 against
    0.0240 at (2,3,1)).  Over 120 steps at n=129 the steps, det_sign
    and events agree exactly and lambda to 5e-8.  Measured maxima,
    points 1-10 / 11-120: lambda 1.9e-8 over all points, |dt_lambda|
    3.0e-2 / 5.6e-7 (t_lambda is a component of a unit vector, about
    0.01-0.06 here), sigma_min 5.4e-2 / 2.2e-5 relative."""
    p, g = PARAMS[key], cache.grid(129)
    kwargs = dict(limits={"max_steps": 120}, sigma_check=True)
    new = trace_branch(p, g, **kwargs)
    ref = _trace_factoring_at_accepted_points(p, g, monkeypatch, **kwargs)
    assert len(new.points) == len(ref.points) == 121
    assert [q.s for q in new.points] == [q.s for q in ref.points]
    assert [q.diagnostics["det_sign"] for q in new.points] == \
        [q.diagnostics["det_sign"] for q in ref.points]
    assert new.events == ref.events == [] and new.warnings == ref.warnings
    lam = np.array([[a.state.lam, b.state.lam]
                    for a, b in zip(new.points, ref.points)])
    assert np.abs(lam[:, 0] - lam[:, 1]).max() <= 5e-8
    for span, t_tol, sigma_rtol in ((slice(1, 11), 5e-2, 1e-1),
                                    (slice(11, None), 2e-6, 1e-4)):
        a = [q.diagnostics for q in new.points[span]]
        b = [q.diagnostics for q in ref.points[span]]
        assert max(abs(x["t_lambda"] - y["t_lambda"])
                   for x, y in zip(a, b)) <= t_tol
        np.testing.assert_allclose([x["sigma_min"] for x in a],
                                   [y["sigma_min"] for y in b],
                                   rtol=sigma_rtol)


@pytest.mark.parametrize("n, cap_offset", [(257, 0.15), (2049, 0.003)])
@pytest.mark.parametrize("gamma", [0.8, 1.025, 1.25])
def test_voltage_capped_traces_stay_clear_of_slow_correctors(n, cap_offset,
                                                             gamma):
    """(2,3,gamma) traced to lambda_dagger + cap_offset, at the two ends
    and the middle of gamma in [0.8, 1.25]: the trace ends VoltageBlowup
    at the first point past the cap, and every point before it is
    positive, converged to NEWTON_TOL and corrected in at most 2
    iterations.  A slower corrector below the cap means the cap has run
    into the tolerance artifact at the branch end; the tangent's LU
    moving one Newton step back shrinks that margin most at n=2049 and
    gamma=0.8."""
    p, g = Parameters(2.0, 3.0, gamma), RadialGrid(n)
    cap = sparking_voltage(p, g).lambda_dagger + cap_offset
    br = trace_branch(p, g, limits={"lambda_cap": cap})
    pts = br.points
    assert br.termination.kind == "VoltageBlowup"
    assert len(pts) >= 3 and pts[-2].state.lam <= cap < pts[-1].state.lam
    for q in pts[1:]:
        d = q.diagnostics
        assert d["positive"] and d["residual_norm"] <= NEWTON_TOL
        assert d["newton_iters"] <= 2, (q.s, q.state.lam, d["newton_iters"])
