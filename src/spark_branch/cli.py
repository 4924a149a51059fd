"""Command-line front end: spark | branch | scan | validate.

Configuration is a flat JSON document with exactly the RunConfig keys;
unknown keys are rejected so a typo cannot silently fall back to a
default.  All outputs are deterministic for a fixed config: floats are
written with repr (shortest round-trip decimal), files are UTF-8 and
newline-terminated, and scan rows are computed and written in axis order.

Exit codes: 0 success, 1 solver/check failure, 2 sparking voltage not
found, 64 usage error (including an --out path that cannot be written).
"""

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass

import numpy as np

from .adjoint import (adjoint_identity_check, nullspace_residual,
                      nullspace_triple, solve_adjoint_w,
                      transversality_F, transversality_crosscheck)
from .continuation import DEFAULT_LIMITS, H_FIRST, H_MAX, H_MIN
from .electron import (ROOT_TOL_DEFAULT, NoSignChange, SolverFailure,
                       auxiliary_U_cathode_slope, auxiliary_U_solve_gap,
                       boundary_functional, critical_gamma, sparking_voltage)
from .grid import DEFAULT_N, MIN_NODES, BandedSolveError, RadialGrid
from .model import Parameters, g_fn, harmonic_H, in_gamma_region
from . import continuation, steady

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_NO_SPARK = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Everything a run needs, restorable from one flat JSON file."""

    a: float = 2.0
    b: float = 3.0
    gamma: float = 1.0
    k_e: float = 1.0
    k_i: float = 1.0
    grid_n: int = DEFAULT_N
    root_tol: float = ROOT_TOL_DEFAULT
    newton_tol: float = steady.NEWTON_TOL
    max_steps: int = DEFAULT_LIMITS["max_steps"]
    sup_density_cap: float = DEFAULT_LIMITS["sup_density_cap"]
    lambda_cap: float = DEFAULT_LIMITS["lambda_cap"]
    field_floor: float = DEFAULT_LIMITS["field_floor"]
    loop_eps: float = DEFAULT_LIMITS["loop_eps"]
    h_first: float = H_FIRST
    h_min: float = H_MIN
    h_max: float = H_MAX
    out: str = ""

    def __post_init__(self):
        if self.grid_n < MIN_NODES:
            raise UsageError(f"grid_n must be at least {MIN_NODES}, "
                             f"got {self.grid_n}")
        if self.max_steps < 1:
            raise UsageError(f"max_steps must be at least 1, "
                             f"got {self.max_steps}")
        for key in ("h_first", "h_min", "h_max", "newton_tol", "root_tol",
                    "sup_density_cap", "lambda_cap", "field_floor", "loop_eps"):
            if not 0.0 < getattr(self, key) < np.inf:
                raise UsageError(f"{key} must be positive and finite, "
                                 f"got {getattr(self, key)!r}")
        if not self.h_min <= self.h_first <= self.h_max:
            raise UsageError("need h_min <= h_first <= h_max")

    def parameters(self) -> Parameters:
        return Parameters(a=self.a, b=self.b, gamma=self.gamma,
                          k_e=self.k_e, k_i=self.k_i)

    def grid(self) -> RadialGrid:
        return RadialGrid(self.grid_n)

    def limits(self) -> dict:
        return {key: getattr(self, key) for key in DEFAULT_LIMITS}


_INT_KEYS = {"grid_n", "max_steps"}
_STR_KEYS = {"out"}


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(raw) - known
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    clean = {}
    for key, value in raw.items():
        if key in _STR_KEYS:
            if not isinstance(value, str):
                raise UsageError(f"config key {key} must be a string")
            clean[key] = value
        elif key in _INT_KEYS:
            if not isinstance(value, int) or isinstance(value, bool):
                raise UsageError(f"config key {key} must be an integer")
            clean[key] = value
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise UsageError(f"config key {key} must be a number")
            clean[key] = float(value)
    cfg = RunConfig(**clean)
    try:
        cfg.parameters()
    except ValueError as exc:
        raise UsageError(str(exc))
    return cfg


def _write_text(path: str, text: str):
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write output {path}: {exc}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- spark

def cmd_spark(cfg: RunConfig) -> int:
    p = cfg.parameters()
    grid = cfg.grid()
    try:
        spark = sparking_voltage(p, grid, tol=cfg.root_tol)
    except NoSignChange as exc:
        print(f"no sparking voltage: {exc}", file=sys.stderr)
        return EXIT_NO_SPARK
    except SolverFailure as exc:
        print(f"sparking solve failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    idx = np.linspace(0, grid.n - 1, 9).astype(int)
    report = {
        "lambda_dagger": spark.lambda_dagger,
        "bracket": list(spark.bracket),
        "residual_B": spark.residual_B,
        "in_gamma_region": in_gamma_region(p),
        "u_dagger_samples": {
            "r": [float(v) for v in grid.r[idx]],
            "u": [float(v) for v in spark.u_dagger.u[idx]],
        },
    }
    _write_text(cfg.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- branch

BRANCH_HEADER = ("s,lambda,sup_rho_i,sup_rho_e,min_field,"
                 "norm_state,newton_iters,residual_norm")


def branch_csv(branch: continuation.Branch) -> str:
    lines = [BRANCH_HEADER]
    for point in branch.points[1:]:
        d = point.diagnostics
        lines.append(",".join([
            repr(float(point.s)),
            repr(float(point.state.lam)),
            repr(float(d["sup_rho_i"])),
            repr(float(d["sup_rho_e"])),
            repr(float(d["min_field"])),
            repr(float(d["norm_state"])),
            str(int(d["newton_iters"])),
            repr(float(d["residual_norm"])),
        ]))
    for event in branch.events:
        lines.append(f"# event={event['kind']} s={float(event['s'])!r} "
                     f"lambda={float(event['lambda'])!r}")
    lines.append(f"# termination={branch.termination.kind}")
    return "\n".join(lines) + "\n"


def cmd_branch(cfg: RunConfig) -> int:
    p = cfg.parameters()
    grid = cfg.grid()
    try:
        branch = continuation.trace_branch(
            p, grid, limits=cfg.limits(), h_first=cfg.h_first,
            h_min=cfg.h_min, h_max=cfg.h_max, tol=cfg.newton_tol)
    except NoSignChange as exc:
        print(f"no sparking voltage, no branch: {exc}", file=sys.stderr)
        return EXIT_NO_SPARK
    except (SolverFailure, BandedSolveError, steady.NewtonError,
            steady.AdmissibilityError, np.linalg.LinAlgError) as exc:
        # Partial output is still worth flushing for a post-mortem.
        _write_text(cfg.out, BRANCH_HEADER + "\n# termination=error\n")
        print(f"branch trace failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    _write_text(cfg.out, branch_csv(branch))
    return EXIT_OK


# ---------------------------------------------------------------- scan

def _scan_axis_row(cfg: RunConfig, p: Parameters):
    grid = cfg.grid()
    try:
        spark = sparking_voltage(p, grid, tol=cfg.root_tol)
        lam = spark.lambda_dagger
        w_sol = solve_adjoint_w(lam, p, grid)
        f_val = transversality_F(lam, spark.u_dagger, w_sol, p, grid)
        cg = critical_gamma(lam, p, grid)
        return lam, abs(f_val), cg
    except (NoSignChange, SolverFailure, BandedSolveError):
        return float("nan"), float("nan"), float("nan")


def cmd_scan(cfg: RunConfig, axis: str, lo: float, hi: float,
             count: int) -> int:
    if count < 1 or not (lo < hi or (lo == hi and count == 1)):
        raise UsageError("empty scan range")
    values = np.linspace(lo, hi, count)
    try:
        params = [dataclasses.replace(cfg.parameters(), **{axis: v})
                  for v in values]
    except ValueError as exc:
        raise UsageError(f"scan over {axis}: {exc}")
    lines = [f"{axis},lambda_dagger,abs_F,critical_gamma"]
    for value, p in zip(values, params):
        row = _scan_axis_row(cfg, p)
        lines.append(",".join(repr(float(v)) for v in (value, *row)))
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- validate

def _validation_checks():
    """Name -> callable(cfg, ctx) -> (measured, bound).  A check passes
    when measured <= bound; ctx caches the expensive shared solves."""

    def ctx_spark(cfg, ctx):
        if "spark" not in ctx:
            ctx["spark"] = sparking_voltage(cfg.parameters(), cfg.grid(),
                                            tol=cfg.root_tol)
        return ctx["spark"]

    def trivial_residual(cfg, ctx):
        p, grid = cfg.parameters(), cfg.grid()
        worst = 0.0
        for lam in (0.7, 3.1, 17.0):
            res = steady.residual(steady.trivial_state(lam, grid), p, grid)
            worst = max(worst, steady.norm_Y(res, grid))
        return worst, 1e-12

    def boundary_b_zero_voltage(cfg, ctx):
        p, grid = cfg.parameters(), cfg.grid()
        b = boundary_functional(0.0, harmonic_H(grid.r), p, grid)
        return abs(b - 0.5), 1e-6

    def gamma_region_g_negative(cfg, ctx):
        p = cfg.parameters()
        ell = np.concatenate([np.logspace(-8, 2, 200), [1e6]])
        return float(np.max(g_fn(ell, p))), 0.0

    def auxiliary_slope(cfg, ctx):
        worst = max(abs(auxiliary_U_cathode_slope(lam) - 1.0)
                    for lam in (1.0, 5.0, 20.0, 60.0))
        return worst, 1e-12

    def auxiliary_solve_gap(cfg, ctx):
        grid = cfg.grid()
        worst = max(auxiliary_U_solve_gap(lam, grid)
                    for lam in (1.0, 5.0, 20.0, 60.0))
        return worst, 5.0 * grid.delta ** 2

    def sparking_residual_b(cfg, ctx):
        return abs(ctx_spark(cfg, ctx).residual_B), 1e-10

    def electron_positive(cfg, ctx):
        spark = ctx_spark(cfg, ctx)
        return float(-np.min(spark.u_dagger.u[1:])), 0.0

    def nullspace_resid(cfg, ctx):
        cfgp, grid = cfg.parameters(), cfg.grid()
        spark = ctx_spark(cfg, ctx)
        triple = nullspace_triple(spark.lambda_dagger, spark.u_dagger,
                                  cfgp, grid)
        ctx["triple"] = triple
        value = nullspace_residual(spark.lambda_dagger, triple, cfgp, grid)
        return value["total"], 5.0 * grid.delta ** 2

    def transversality_gap(cfg, ctx):
        p, grid = cfg.parameters(), cfg.grid()
        spark = ctx_spark(cfg, ctx)
        lam = spark.lambda_dagger
        w_sol = solve_adjoint_w(lam, p, grid)
        triple = ctx.get("triple") or nullspace_triple(lam, spark.u_dagger,
                                                       p, grid)
        f1 = transversality_F(lam, spark.u_dagger, w_sol, p, grid)
        f2 = transversality_crosscheck(lam, triple, w_sol, p, grid)
        return abs(f1 - f2), 5.0 * grid.delta ** 2

    def adjoint_identity(cfg, ctx):
        p, grid = cfg.parameters(), cfg.grid()
        spark = ctx_spark(cfg, ctx)
        worst = adjoint_identity_check(spark.lambda_dagger, p, grid)
        return worst, 1e-3

    def jacobian_fd(cfg, ctx):
        from .validation import fd_jacobian
        p = cfg.parameters()
        grid = RadialGrid(65)   # dense FD comparison, keep it small
        r = grid.r
        state = steady.State(3.0,
                             0.05 * (r - 1.0) * (2.0 - r),
                             0.04 * (r - 1.0) * np.exp(-r),
                             3.0 * (2.0 - 2.0 / r) * 0.02 * np.sin(np.pi * (r - 1.0)))
        state.rho_i[0] = state.rho_i[-1] = 0.0
        state.R_e[0] = 0.0
        state.V[0] = state.V[-1] = 0.0
        J = steady.jacobian(state, p, grid).toarray()
        Jfd = fd_jacobian(state, p, grid, eps=1e-7)
        scale = np.abs(Jfd).max()
        return float(np.abs(J - Jfd).max() / scale), 1e-6

    def branch_departure(cfg, ctx):
        p, grid = cfg.parameters(), cfg.grid()
        branch = continuation.trace_branch(p, grid, limits={"max_steps": 1},
                                           h_first=cfg.h_first,
                                           tol=cfg.newton_tol)
        point = branch.points[-1]
        gap = abs(point.diagnostics["norm_state"] - point.s) / point.s
        return gap, 1e-2

    return [
        ("trivial_residual_zero", trivial_residual),
        ("boundary_B_zero_voltage", boundary_b_zero_voltage),
        ("gamma_region_g_negative", gamma_region_g_negative),
        ("auxiliary_U_cathode_slope", auxiliary_slope),
        ("auxiliary_U_solve_gap", auxiliary_solve_gap),
        ("sparking_residual_B", sparking_residual_b),
        ("electron_profile_positive", electron_positive),
        ("nullspace_residual", nullspace_resid),
        ("transversality_double_eval", transversality_gap),
        ("adjoint_identity", adjoint_identity),
        ("jacobian_fd_gap", jacobian_fd),
        ("branch_departure_norm", branch_departure),
    ]


def cmd_validate(cfg: RunConfig, list_only: bool = False) -> int:
    checks = _validation_checks()
    if list_only:
        _write_text(cfg.out, "".join(f"{name}\n" for name, _ in checks))
        return EXIT_OK
    ctx = {}
    failures = 0
    lines = [f"{'check':32s} {'measured':>13s} {'bound':>13s}  status"]
    for name, fn in checks:
        try:
            measured, bound = fn(cfg, ctx)
            ok = measured <= bound
        except (NoSignChange, SolverFailure, BandedSolveError,
                steady.NewtonError, np.linalg.LinAlgError, ValueError) as exc:
            # ValueError also covers steady.AdmissibilityError
            lines.append(f"{name:32s} {'error':>13s} {'':>13s}  FAIL ({exc})")
            failures += 1
            continue
        status = "ok" if ok else "FAIL"
        lines.append(f"{name:32s} {measured:13.4e} {bound:13.4e}  {status}")
        failures += 0 if ok else 1
    if failures:
        lines.append(f"{failures} check(s) failed")
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return EXIT_FAILURE if failures else EXIT_OK


# ---------------------------------------------------------------- main

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="spark-branch",
                     description="Sparking voltages and steady-state "
                                 "branches of a radial discharge model")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spark", "branch", "scan", "validate"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="path to a flat JSON RunConfig")
        cmd.add_argument("--out", help="output path (default: stdout)")
        cmd.add_argument("--grid-n", type=int, help="override grid size")
        if name == "scan":
            cmd.add_argument("--axis", choices=("gamma", "a", "b"),
                             required=True)
            cmd.add_argument("--range", nargs=2, type=float, required=True,
                             metavar=("LO", "HI"))
            cmd.add_argument("--count", type=int, required=True)
        if name == "validate":
            cmd.add_argument("--list", action="store_true",
                             help="print check names without running")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out=args.out)
        if args.grid_n is not None:
            cfg = dataclasses.replace(cfg, grid_n=args.grid_n)
        if args.command == "spark":
            return cmd_spark(cfg)
        if args.command == "branch":
            return cmd_branch(cfg)
        if args.command == "scan":
            return cmd_scan(cfg, args.axis, args.range[0], args.range[1],
                            args.count)
        return cmd_validate(cfg, list_only=args.list)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
