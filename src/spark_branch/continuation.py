"""Pseudo-arclength continuation of the nontrivial steady branch.

The branch leaves the trivial family at the sparking voltage, where the
linearization has a one-dimensional nullspace.  We parametrize by
arclength s, not by voltage, so folds in lambda are traversable: each
step solves the steady residual together with the scalar constraint

    <t_x, x - x0>_w + t_lam (lam - lam0) = h

where t = (t_x, t_lam) is the unit tangent at the previous point and
the inner product carries the r^2 volume weight.  The predictor is
Euler; the corrector is the extended Newton solve from the steady
module.  Step size halves on corrector failure and grows by 1.3 after
two consecutive easy successes.

The corrector and the tangent solve the same bordered matrix, so the
tangent is solved on the corrector's last band LU, formed one Newton
step before the accepted point; this module factors nothing itself.
Every accepted point records two test functions read off that LU
(Allgower & Georg 2003, ch. 8; Seydel 2010, ch. 5): t_lambda, the
tangent's lambda component, changes sign at a fold in lambda, and
det_sign, the sign of det of the bordered Jacobian, flips at a simple
branch point.  Sign changes between consecutive points become Fold and
BranchPoint events on Branch.events.  The smallest singular value
sigma_min of the bordered Jacobian is computed only on request
(sigma_check), by inverse iteration on the same LU run to a residual
stop test (steady.smallest_singular): two refined band solves per step,
a median of 4 steps per point.

A trace terminates by classification, never by exception: density or
voltage beyond the configured caps, a return to the trivial family at
higher voltage (half loop), field degeneracy, loss of interior
positivity, step-count exhaustion, or an unrecoverable corrector
failure.  Whatever happens is recorded on the Branch as a Termination
with evidence; partial output stays usable.
"""

from dataclasses import dataclass, field
import logging

import numpy as np

from .adjoint import NullTriple, pack_triple
from .electron import boundary_B, solve_electron, sparking_voltage
from .grid import RadialGrid, integrate
from .model import Parameters, high_voltage_condition
from .steady import (NEWTON_TOL, AdmissibilityError, NewtonError, State,
                     admissibility, densities, newton_solve, pack,
                     pack_weights, smallest_singular, trivial_state, unpack)
# Not called here; perfbench/selftest.py checks that tracing rebinds it.
from .steady import jacobian  # noqa: F401

log = logging.getLogger(__name__)

# Caps and limits for trace_branch; callers may override any of them.
DEFAULT_LIMITS = {
    "max_steps": 5000,
    "sup_density_cap": 1.0e3,
    "lambda_cap": 1.0e3,
    "field_floor": 1.0e-6,
    "loop_eps": 1.0e-6,
}

H_MIN = 1.0e-6
H_MAX = 0.1
H_FIRST = 1.0e-3
GROW_FACTOR = 1.3
EASY_ITERS = 4          # corrector iteration count below which a step is "easy"
SIGMA_WARN = 1.0e-4     # bordered smallest singular value below this hints
                        # at a nearby secondary bifurcation


class StepFailure(RuntimeError):
    """Corrector kept failing down to the minimum step size."""

    def __init__(self, message, s, h_last):
        super().__init__(message)
        self.s = s
        self.h_last = h_last


@dataclass
class Tangent:
    """Unit tangent in the extended (state, lambda) space.

    det_sign is the sign of det of the bordered matrix the tangent was
    solved from, 0 when it was not solved for (departure, secant)."""

    x: np.ndarray
    dlam: float
    det_sign: int = 0


@dataclass
class BranchPoint:
    s: float
    state: State
    diagnostics: dict


@dataclass
class Termination:
    kind: str
    evidence: dict


@dataclass
class Branch:
    points: list
    termination: Termination
    lambda_dagger: float
    grid: RadialGrid
    warnings: list = field(default_factory=list)
    events: list = field(default_factory=list)


@dataclass
class HighVoltageReport:
    applicable: bool
    reason: str
    sup_rho_i_monotone: bool = None
    rho_e_l1_monotone: bool = None
    ok: bool = False


def ext_inner(t1: Tangent, t2: Tangent, grid: RadialGrid) -> float:
    pw = pack_weights(grid)
    return float(np.dot(pw * t1.x, t2.x) + t1.dlam * t2.dlam)


def state_norm(state: State, grid: RadialGrid) -> float:
    x = pack(state)
    return float(np.sqrt(np.dot(pack_weights(grid) * x, x)))


def initial_tangent(lambda_dagger: float, triple: NullTriple,
                    grid: RadialGrid) -> Tangent:
    """Departure direction at the bifurcation point.

    The residual vanishes identically on the trivial family, so its
    lambda-derivative there is zero and the bordered tangent system
    forces dlam = 0: the branch leaves along the nullspace direction
    itself.  Normalized to unit weighted norm; the +triple orientation
    is the one with nonnegative electron profile.
    """
    x = pack_triple(triple)
    t = Tangent(x, 0.0)
    nrm = np.sqrt(ext_inner(t, t, grid))
    if nrm == 0.0:
        raise ValueError("nullspace direction is zero")
    return Tangent(x / nrm, 0.0)


def _diagnostics(state: State, grid: RadialGrid, iters: int,
                 residual_norm: float) -> dict:
    den = densities(state, grid)
    adm = admissibility(state, grid)
    return {
        "sup_rho_i": den.sup_rho_i,
        "sup_rho_e": den.sup_rho_e,
        "min_field": adm.min_field,
        "positive": den.positive,
        "newton_iters": iters,
        "residual_norm": residual_norm,
        "norm_state": state_norm(state, grid),
    }


def arclength_step(current: BranchPoint, tangent: Tangent, h: float,
                   p: Parameters, grid: RadialGrid, h_min: float = H_MIN,
                   tol: float = NEWTON_TOL, sigma_check: bool = False):
    """One predictor-corrector step, halving h internally on failure.

    Returns (point, h_used, new_tangent); the point's diagnostics carry
    the test functions t_lambda and det_sign, and sigma_min when
    sigma_check.  Raises StepFailure once h drops below h_min without a
    convergent corrector.
    """
    x0 = pack(current.state)
    lam0 = current.state.lam
    pw = pack_weights(grid)
    last_err = None
    while h >= h_min:
        guess = unpack(lam0 + h * tangent.dlam, x0 + h * tangent.x, grid)

        def constraint(st, h=h):
            val = (np.dot(pw * tangent.x, pack(st) - x0)
                   + tangent.dlam * (st.lam - lam0) - h)
            return val, pw * tangent.x, tangent.dlam

        try:
            res = newton_solve(guess, p, grid, tol=tol, constraint=constraint)
        except (NewtonError, AdmissibilityError) as exc:
            last_err = exc
            h *= 0.5
            continue
        t_new, sigma = tangent_and_sigma(res.lu, grid, sigma_check)
        if t_new is None:
            # No corrector LU or a failed tangent solve; a secant
            # direction still lets the trace limp forward.
            dx = pack(res.state) - x0
            t_new = Tangent(dx, res.state.lam - lam0)
            nrm = np.sqrt(ext_inner(t_new, t_new, grid))
            if nrm == 0.0:
                last_err = RuntimeError("corrector returned the previous point")
                h *= 0.5
                continue
            t_new = Tangent(t_new.x / nrm, t_new.dlam / nrm)
            if ext_inner(t_new, tangent, grid) < 0.0:
                t_new = Tangent(-t_new.x, -t_new.dlam)
        point = BranchPoint(current.s + h, res.state,
                            _diagnostics(res.state, grid, res.iters,
                                         res.residual_norm))
        point.diagnostics["t_lambda"] = t_new.dlam
        point.diagnostics["det_sign"] = t_new.det_sign
        if sigma_check:
            point.diagnostics["sigma_min"] = sigma
        return point, h, t_new
    raise StepFailure(f"corrector failed down to h={h:.3e}: {last_err}",
                      current.s, h)


def tangent_and_sigma(lu, grid: RadialGrid, sigma_check: bool = True):
    """New unit tangent and smallest singular value of the bordered
    Jacobian [[J, F_lambda], [t_x^T W, t_lambda]], t the previous
    tangent, from the corrector's last band LU (NewtonResult.lu), formed
    at its last iterate, one Newton step from the accepted point.  The
    tangent carries the sign of det of that bordered matrix, read off
    the same LU.

    The tangent solves the bordered system with right-hand side
    (0, ..., 0, 1) by block elimination plus one refinement step: the
    state rows force an extended null direction of the Jacobian, the
    border row pins a positive projection onto the previous tangent, so
    orientation carries over without a sign check.

    With sigma_check, sigma comes from inverse iteration on the same LU
    (steady.smallest_singular: one transposed and one plain bordered
    solve per step, deterministic start, residual stop test), so traces
    stay bit-reproducible; without it no step runs and sigma is None.
    Returns (None, 0.0) when there is no LU or the tangent solve fails,
    and sigma = NaN when the iteration does.
    """
    if lu is None:
        return None, 0.0
    e_last = np.zeros(lu.size)
    e_last[-1] = 1.0
    try:
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


def crossing_events(prev: BranchPoint, point: BranchPoint,
                    index: int) -> list:
    """Fold and branch-point events between two consecutive accepted
    points, the second at position index of the branch.

    A strict sign change of t_lambda is a Fold, placed at the secant
    zero of t_lambda in s; an exact zero (the departure point) is not a
    sign.  A flip of det_sign is a BranchPoint, placed midway, since
    the sign carries no magnitude; det_sign 0 (no bordered
    factorization) flips nothing.  trace_branch also compares across
    such a point (_branch_point).
    """
    a, b = prev.diagnostics, point.diagnostics
    events = []
    ta, tb = a["t_lambda"], b["t_lambda"]
    if ta * tb < 0.0:
        w = ta / (ta - tb)
        events.append({
            "kind": "Fold", "s": prev.s + w * (point.s - prev.s),
            "lambda": prev.state.lam + w * (point.state.lam - prev.state.lam),
            "index": index})
    if a["det_sign"] * b["det_sign"] < 0:
        events.append(_branch_point(prev, point, index))
    return events


def _branch_point(prev: BranchPoint, point: BranchPoint, index: int) -> dict:
    return {"kind": "BranchPoint", "s": 0.5 * (prev.s + point.s),
            "lambda": 0.5 * (prev.state.lam + point.state.lam),
            "index": index}


def _classify(point: BranchPoint, lam_dagger: float, lim: dict,
              p: Parameters, grid: RadialGrid):
    """Termination test for an accepted point, in fixed priority order."""
    di = point.diagnostics
    st = point.state
    if di["sup_rho_i"] + di["sup_rho_e"] > lim["sup_density_cap"]:
        return Termination("DensityBlowup", {
            "s": point.s, "sup_rho_i": di["sup_rho_i"],
            "sup_rho_e": di["sup_rho_e"], "cap": lim["sup_density_cap"]})
    if st.lam > lim["lambda_cap"]:
        return Termination("VoltageBlowup", {
            "s": point.s, "lambda": st.lam, "cap": lim["lambda_cap"]})
    if (di["norm_state"] < lim["loop_eps"]
            and st.lam > lam_dagger + 10.0 * lim["loop_eps"]):
        # Returned to the trivial family at strictly higher voltage.
        # A genuine half loop lands on another root of the boundary
        # functional, so recheck it and report any discrepancy.
        sol = solve_electron(st.lam, p, grid)
        b = boundary_B(sol, p, grid)
        return Termination("HalfLoop", {
            "s": point.s, "lambda_ddagger": st.lam, "residual_B": b,
            "B_consistent": bool(abs(b) <= 0.05)})
    if di["min_field"] < lim["field_floor"]:
        return Termination("FieldDegeneracy", {
            "s": point.s, "min_field": di["min_field"],
            "floor": lim["field_floor"]})
    if not di["positive"]:
        # Genuine positivity loss rides on a global collapse of the
        # electron profile; an isolated interior zero at healthy
        # amplitude is a numerical artifact and is flagged as such.
        r_e_norm = float(np.sqrt(np.dot(grid.r2w * st.R_e, st.R_e)))
        collapse = r_e_norm < 1.0e3 * lim["loop_eps"]
        return Termination("PositivityLoss", {
            "s": point.s, "R_e_norm": r_e_norm,
            "global_collapse": bool(collapse),
            "artifact_suspected": bool(not collapse)})
    return None


def trace_branch(p: Parameters, grid: RadialGrid, limits: dict = None,
                 h_first: float = H_FIRST, h_min: float = H_MIN,
                 h_max: float = H_MAX, tol: float = NEWTON_TOL,
                 sigma_check: bool = False) -> Branch:
    """Trace the nontrivial branch from the sparking point until a
    termination condition fires.

    limits overrides entries of DEFAULT_LIMITS; unknown keys are
    rejected.  The s=0 entry is the trivial state at the sparking
    voltage and is exempt from the positivity classification.

    Every point records the test functions t_lambda and det_sign, and
    their sign changes are kept on Branch.events (crossing_events); a
    BranchPoint is also a warning.  det_sign is compared with the last
    nonzero sign, so a flip across secant-fallback points (det_sign 0)
    is a BranchPoint over the whole bracket, marked "fallback": True.
    sigma_check adds the bordered
    sigma_min to every point, from inverse iteration on the corrector's
    last LU (tangent_and_sigma) run to its residual stop test (two refined band solves per step; a
    median of 4 and at most 60 steps per point along a 120-point (2,3,1)
    branch at n=129), and warns below SIGMA_WARN or, with sigma_min NaN,
    when the iteration did not converge.
    """
    lim = dict(DEFAULT_LIMITS)
    if limits:
        bad = set(limits) - set(lim)
        if bad:
            raise ValueError(f"unknown limit keys: {sorted(bad)}")
        lim.update(limits)

    spark = sparking_voltage(p, grid)
    lam_dagger = spark.lambda_dagger
    from .adjoint import nullspace_triple
    triple = nullspace_triple(lam_dagger, spark.u_dagger, p, grid)
    tangent = initial_tangent(lam_dagger, triple, grid)

    start = trivial_state(lam_dagger, grid)
    points = [BranchPoint(0.0, start, _diagnostics(start, grid, 0, 0.0))]
    points[0].diagnostics.update(t_lambda=tangent.dlam, det_sign=0)
    warnings = []
    events = []
    signed = None           # last point with a nonzero det_sign
    h = h_first
    easy = 0

    for _ in range(lim["max_steps"]):
        try:
            point, h_used, tangent = arclength_step(
                points[-1], tangent, h, p, grid, h_min=h_min, tol=tol,
                sigma_check=sigma_check)
        except StepFailure as exc:
            termination = Termination("NewtonFailure", {
                "s": exc.s, "h_last": exc.h_last, "error": str(exc)})
            break
        points.append(point)
        found = crossing_events(points[-2], point, len(points) - 1)
        sign = point.diagnostics["det_sign"]
        if signed is not None and signed is not points[-2] \
                and signed.diagnostics["det_sign"] * sign < 0:
            found.append(dict(_branch_point(signed, point, len(points) - 1),
                              fallback=True))
        if sign:
            signed = point
        for event in found:
            events.append(event)
            msg = (f"{event['kind']} at s={event['s']:.6f}, "
                   f"lambda={event['lambda']:.9f}")
            if event.get("fallback"):
                msg += " (bracket contains a secant fallback)"
            if event["kind"] == "BranchPoint":
                msg += ": possible secondary bifurcation"
                warnings.append(msg)
                log.warning(msg)
            else:
                log.info(msg)

        if h_used < h or point.diagnostics["newton_iters"] > EASY_ITERS:
            easy = 0
        else:
            easy += 1
        h = h_used
        if easy >= 2:
            h = min(h * GROW_FACTOR, h_max)
            easy = 0

        if sigma_check:
            sigma = point.diagnostics["sigma_min"]
            msg = None
            if np.isnan(sigma):
                msg = (f"sigma_min inverse iteration did not converge at "
                       f"s={point.s:.6f}")
            elif sigma < SIGMA_WARN:
                msg = (f"bordered Jacobian sigma_min={sigma:.3e} at "
                       f"s={point.s:.6f}: possible secondary bifurcation")
            if msg:
                warnings.append(msg)
                log.warning(msg)

        termination = _classify(point, lam_dagger, lim, p, grid)
        if termination is not None:
            break
    else:
        termination = Termination("MaxSteps", {
            "steps": lim["max_steps"], "s": points[-1].s,
            "lambda": points[-1].state.lam})

    return Branch(points, termination, lam_dagger, grid, warnings, events)


def high_voltage_diagnostic(branch: Branch, p: Parameters) -> HighVoltageReport:
    """Check the expected high-voltage decay on a voltage-blowup tail.

    Only meaningful when the trace actually ran into the voltage cap
    and the parameters satisfy the high-voltage hypothesis; otherwise
    the report refuses to certify rather than guessing.  PASS means
    sup rho_i and the L1 mass of rho_e both decrease monotonically over
    the last quartile of accepted points.
    """
    if branch.termination.kind != "VoltageBlowup":
        return HighVoltageReport(
            False, f"terminated by {branch.termination.kind}, "
                   "not VoltageBlowup")
    if not high_voltage_condition(p):
        return HighVoltageReport(
            False, "parameters fail the high-voltage hypothesis")
    pts = branch.points[1:]
    if len(pts) < 8:
        return HighVoltageReport(False, "too few points for a tail quartile")
    tail = pts[-max(2, len(pts) // 4):]
    sup_i = np.array([q.diagnostics["sup_rho_i"] for q in tail])
    l1_e = np.array([integrate(np.abs(densities(q.state, branch.grid).rho_e),
                               branch.grid) for q in tail])
    slack = 1.0e-12
    mono_i = bool(np.all(np.diff(sup_i) <= slack * (1.0 + sup_i[:-1])))
    mono_e = bool(np.all(np.diff(l1_e) <= slack * (1.0 + l1_e[:-1])))
    return HighVoltageReport(True, "voltage-blowup tail analyzed",
                             mono_i, mono_e, mono_i and mono_e)
