"""The four benchmark workloads: seeded inputs, one pass, correctness gates.

A workload is `Workload(grid_n, make_inputs, run_pass, check, working_set)`.
`make_inputs(sb, seed, root, out_dir)` builds every input before timing.
`run_pass(sb, inputs, i)` is the timed unit; pass i uses case
i % len(inputs.cases), and every solver exception is caught per operation
so that it counts as a failure instead of ending the run.
`check(sb, inputs, i, result)` returns (attempted, [failure messages]),
one message per failed operation.  `working_set(sb, inputs, result)`
gives the computed sizes of the pass's largest matrices.

Solver functions are always reached through the `sb` package attribute at
call time, so the traced run sees the rebound versions.
"""

import ast
import contextlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

A, B = 2.0, 3.0
GAMMA_BAND = (0.8, 1.25)
# Every corrector below the cap takes at most this many iterations on the
# seed; a slower corrector means the cap has run into the tolerance artifact
# at the branch end.
MAX_CORRECTOR_ITERS = 2
SOLVER_ERRORS = (RuntimeError, ValueError, ArithmeticError)


@dataclass
class Inputs:
    grid: object
    cases: list
    extra: dict = field(default_factory=dict)


@dataclass
class Workload:
    grid_n: int
    make_inputs: object
    run_pass: object
    check: object
    working_set: object


def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except SOLVER_ERRORS as exc:
        return exc


# ------------------------------------------------------------------ traces

def _trace_inputs(n, cap_offset, strata):
    """Passes cycle through `strata` gamma values, one from each equal
    slice of GAMMA_BAND, in seeded order."""
    def make(sb, seed, root, out_dir):
        rng = np.random.default_rng(seed)
        lo, hi = GAMMA_BAND
        gammas = lo + (np.arange(strata) + rng.random(strata)) \
            / strata * (hi - lo)
        rng.shuffle(gammas)
        grid = sb.RadialGrid(n)
        cases = []
        for gamma in gammas:
            p = sb.Parameters(A, B, float(gamma))
            lam = sb.sparking_voltage(p, grid).lambda_dagger
            cases.append((p, {"lambda_cap": lam + cap_offset}))
        return Inputs(grid, cases)
    return make


def _trace_pass(sb, inputs, i):
    p, limits = inputs.cases[i % len(inputs.cases)]
    return _attempt(sb.trace_branch, p, inputs.grid, limits=limits)


def _trace_check(sb, inputs, i, branch):
    p, limits = inputs.cases[i % len(inputs.cases)]
    where = f"trace gamma={p.gamma!r}"
    if isinstance(branch, Exception):
        return 1, [f"{where}: raised {branch!r}"]
    cap = limits["lambda_cap"]
    pts = branch.points
    errors = []
    if branch.termination.kind != "VoltageBlowup":
        errors.append(f"{where}: ended by {branch.termination.kind}")
    elif not (len(pts) >= 3 and pts[-2].state.lam <= cap < pts[-1].state.lam):
        errors.append(f"{where}: did not stop at the first point past {cap}")
    tol = sb.steady.NEWTON_TOL
    for q in pts[1:]:
        d = q.diagnostics
        if not d["positive"]:
            errors.append(f"{where}: nonpositive density at s={q.s}")
        if not d["residual_norm"] <= tol:
            errors.append(f"{where}: residual {d['residual_norm']} at s={q.s}")
        if d["newton_iters"] > MAX_CORRECTOR_ITERS:
            errors.append(f"{where}: {d['newton_iters']} corrector iterations "
                          f"at lambda={q.state.lam} (cap {cap})")
    return 1, errors[:1]


def _trace_working_set(sb, inputs, branch):
    """Computed sizes of the Newton Jacobian and its sparse LU at the
    last accepted point of a trace."""
    import scipy.sparse.linalg
    p, _ = inputs.cases[0]
    J = sb.steady.jacobian(branch.points[-1].state, p, inputs.grid)
    lu = scipy.sparse.linalg.splu(J.tocsc())
    return {"n": inputs.grid.n, "jacobian_nnz": int(J.nnz),
            "lu_nnz": int(lu.nnz),
            "jacobian_plus_lu_mb": (J.nnz + lu.nnz) * 12 / 2 ** 20}


# ------------------------------------------------------------------- sweep

def load_continuum(root):
    """The frozen continuum table CONTINUUM from tests/conftest.py, read
    as a literal so that pytest is not imported."""
    tree = ast.parse((root / "tests" / "conftest.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "CONTINUUM"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise LookupError("CONTINUUM not found in tests/conftest.py")


def sweep_rows(sb, seed, continuum, drawn=3):
    """The frozen parameter sets "(a,b,gamma)" with their continuum
    sparking voltages, then `drawn` rows from the emission region
    gamma > 1/a, b > 4a/e, with no reference."""
    rows = []
    for key, ref in sorted(continuum.items()):
        a, b, gamma = (float(v) for v in key.strip("()").split(","))
        rows.append((sb.Parameters(a, b, gamma), ref["lambda_dagger"]))
    rng = np.random.default_rng(seed)
    for _ in range(drawn):
        a = rng.uniform(1.5, 3.0)
        b = 4.0 * a / math.e * rng.uniform(1.3, 2.2)
        gamma = rng.uniform(1.3, 3.0) / a
        rows.append((sb.Parameters(a, b, gamma), None))
    return rows


def _sweep_inputs(sb, seed, root, out_dir):
    rows = sweep_rows(sb, seed, load_continuum(root))
    return Inputs(sb.RadialGrid(1025), [rows])


def sweep_row(sb, p, grid):
    """One row: the local bifurcation certificate at the sparking voltage."""
    spark = sb.sparking_voltage(p, grid)
    lam = spark.lambda_dagger
    triple = sb.nullspace_triple(lam, spark.u_dagger, p, grid)
    null_res = sb.nullspace_residual(lam, triple, p, grid)["total"]
    w_sol = sb.solve_adjoint_w(lam, p, grid)
    F = sb.transversality_F(lam, spark.u_dagger, w_sol, p, grid)
    F_cross = sb.transversality_crosscheck(lam, triple, w_sol, p, grid)
    cg = sb.critical_gamma(lam, p, grid)
    return {"lam": lam, "B": spark.residual_B, "null_res": null_res,
            "F": F, "F_cross": F_cross, "critical_gamma": cg}


def _sweep_pass(sb, inputs, i):
    rows = inputs.cases[i % len(inputs.cases)]
    return [_attempt(sweep_row, sb, p, inputs.grid) for p, _ in rows]


def check_sweep_row(sb, p, ref, grid, row):
    """Failure messages for one sweep row; empty when it passes."""
    where = f"row a={p.a!r} b={p.b!r} gamma={p.gamma!r}"
    if isinstance(row, Exception):
        return [f"{where}: raised {row!r}"]
    d2 = grid.delta ** 2
    errors = []
    if not sb.in_gamma_region(p):
        errors.append(f"{where}: outside the emission region")
    if not abs(row["B"]) <= sb.electron.ROOT_TOL_DEFAULT:
        errors.append(f"{where}: |B| = {abs(row['B'])}")
    if not row["null_res"] <= 5.0 * d2:
        errors.append(f"{where}: nullspace residual {row['null_res']}")
    if not (math.isfinite(row["F"]) and row["F"] != 0.0):
        errors.append(f"{where}: F = {row['F']}")
    if not abs(row["F"] - row["F_cross"]) <= 5.0 * d2:
        errors.append(f"{where}: F crosscheck gap {row['F'] - row['F_cross']}")
    if not abs(row["critical_gamma"] - p.gamma) <= 1e-8 * p.gamma:
        errors.append(f"{where}: critical gamma {row['critical_gamma']}")
    if ref is not None and not abs(row["lam"] - ref) <= 10.0 * d2:
        errors.append(f"{where}: lambda_dagger {row['lam']} "
                      f"vs continuum {ref}")
    return errors


def _sweep_check(sb, inputs, i, results):
    rows = inputs.cases[i % len(inputs.cases)]
    errors = []
    for (p, ref), row in zip(rows, results):
        errors += check_sweep_row(sb, p, ref, inputs.grid, row)[:1]
    return len(rows), errors


def _dense_mb(unknowns):
    return unknowns ** 2 * 8 / 2 ** 20


def _sweep_working_set(sb, inputs, results):
    n = inputs.grid.n
    return {"n": n, "linearized_matrix_mb": _dense_mb(3 * n - 4)}


# ------------------------------------------------------------------ checks

def _validate(sb, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sb.cli.main(argv)
    return code, out.getvalue()


def _checks_inputs(sb, seed, root, out_dir):
    rng = np.random.default_rng(seed)
    gamma = float(rng.uniform(*GAMMA_BAND))
    cfg_path = out_dir / f"validate-seed{seed}.json"
    cfg_path.write_text(f'{{"a": {A!r}, "b": {B!r}, "gamma": {gamma!r}, '
                        f'"grid_n": 257}}\n')
    code, listing = _validate(sb, ["validate", "--list"])
    if code != 0:
        raise RuntimeError(f"validate --list exited {code}")
    grid = sb.RadialGrid(257)
    p = sb.Parameters(A, B, gamma)
    spark = sb.sparking_voltage(p, grid)
    triple = sb.nullspace_triple(spark.lambda_dagger, spark.u_dagger, p, grid)
    return Inputs(grid, [p], {
        "argv": ["validate", "--config", str(cfg_path)],
        "names": listing.split(),
        "lam": spark.lambda_dagger,
        "guess": sb.adjoint.pack_triple(triple),
        "seed": seed,
    })


def _checks_pass(sb, inputs, i):
    p, grid, x = inputs.cases[0], inputs.grid, inputs.extra
    lam = x["lam"]
    return {
        "validate": _validate(sb, x["argv"]),
        "svd": _attempt(sb.svd_probe, lam, p, grid),
        "pair": _attempt(sb.validation.discrete_bifurcation_pair,
                         lam, x["guess"], p, grid),
        "identity": _attempt(sb.adjoint_identity_check, lam, p, grid,
                             n_trials=5, seed=x["seed"]),
    }


def _checks_check(sb, inputs, i, out):
    grid, x = inputs.grid, inputs.extra
    errors = []
    code, text = out["validate"]
    status = {}
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] in x["names"]:
            status[parts[0]] = parts[3] if len(parts) > 3 else "error"
    for name in x["names"]:
        if status.get(name) != "ok":
            errors.append(f"validate {name}: {status.get(name, 'missing')}")
    if code != 0 and not errors:
        errors.append(f"validate exited {code}")

    svd = out["svd"]
    if isinstance(svd, Exception) or not svd[0] <= 1e-3 * svd[1]:
        errors.append(f"svd_probe does not split: {svd!r}")
    pair = out["pair"]
    if isinstance(pair, Exception):
        errors.append(f"bifurcation pair: {pair!r}")
    elif not (abs(pair[0] - x["lam"]) <= 5.0 * grid.delta
              and np.all(np.isfinite(pair[1]))):
        errors.append(f"bifurcation pair off: lambda*={pair[0]}")
    ident = out["identity"]
    if isinstance(ident, Exception) or not ident <= 1e-3:
        errors.append(f"adjoint identity: {ident!r}")
    return len(x["names"]) + 3, errors


def _checks_working_set(sb, inputs, out):
    n = inputs.grid.n
    # validate's FD Jacobian check runs on its own 65-node grid.
    return {"n": n, "linearized_matrix_mb": _dense_mb(3 * n - 4),
            "fd_jacobian_mb": _dense_mb(3 * 65 - 4)}


# Branch length varies by about 9% across the gamma band, so one gamma
# per run would make the median pass time depend on the seed.  At n=257 the
# point count moves smoothly with gamma and 8 values suffice.  At n=2049
# it takes only the values 24, 25 and 26, and the median of a few gammas
# jumps between them; 16 values keep it on one plateau.
WORKLOADS = {
    "trace-coarse": Workload(257, _trace_inputs(257, 0.15, 8), _trace_pass,
                             _trace_check, _trace_working_set),
    "trace-fine": Workload(2049, _trace_inputs(2049, 0.003, 16),
                           _trace_pass, _trace_check, _trace_working_set),
    "sweep": Workload(1025, _sweep_inputs, _sweep_pass, _sweep_check,
                      _sweep_working_set),
    "checks": Workload(257, _checks_inputs, _checks_pass, _checks_check,
                       _checks_working_set),
}
