"""Trace the global discharge branch from the sparking voltage.

Pseudo-arclength continuation follows the nontrivial steady states out
of the bifurcation point.  Every accepted point is Newton-polished to
the residual tolerance and screened for admissibility (positive
densities, nondegenerate field).  The trace runs until one of the
termination conditions in DEFAULT_LIMITS fires; with the defaults on
this parameter set the branch simply outruns float64 and the corrector
gives up at the residual floor, which the Termination record says
plainly.  Every point carries the fold and branch-point test functions
t_lambda and det_sign; their sign changes would be listed as events.

Takes a few seconds (n=129, several hundred arclength steps).

Run:  python3 demos/04_branch_trace.py
"""

import time

import spark_branch as sb


def main():
    p = sb.Parameters(2.0, 3.0, 1.0)
    grid = sb.RadialGrid(129)

    print(f"tracing the branch at a={p.a} b={p.b} gamma={p.gamma}, n={grid.n}")
    t0 = time.perf_counter()
    branch = sb.trace_branch(p, grid)
    elapsed = time.perf_counter() - t0
    print(f"done: {len(branch.points)} points in {elapsed:.1f} s")
    print(f"bifurcates from lambda_dagger = {branch.lambda_dagger:.9f}")
    print()

    # t_lambda changes sign at a fold in lambda, det_sign (the sign of
    # det of the bordered Jacobian) at a branch point
    hdr = f"{'s':>10s} {'lambda':>12s} {'sup rho_i':>11s} {'sup rho_e':>11s} {'min field':>11s} {'t_lambda':>10s} {'det':>4s} {'its':>4s}"
    print(hdr)
    stride = max(1, len(branch.points) // 14)
    shown = list(range(0, len(branch.points), stride))
    if shown[-1] != len(branch.points) - 1:
        shown.append(len(branch.points) - 1)
    for i in shown:
        pt = branch.points[i]
        d = pt.diagnostics
        # the seed point has t_lambda = 0 and det_sign = 0: nothing was
        # factorized there
        print(f"{pt.s:10.4f} {pt.state.lam:12.6f} {d['sup_rho_i']:11.4e} "
              f"{d['sup_rho_e']:11.4e} {d['min_field']:11.4e} "
              f"{d['t_lambda']:10.3e} {d['det_sign']:4d} {d['newton_iters']:4d}")
    print()

    term = branch.termination
    print(f"termination: {term.kind}")
    for key, val in term.evidence.items():
        print(f"  {key} = {val}")
    print(f"fold / branch-point events: {len(branch.events)}")
    for ev in branch.events:
        print(f"  {ev['kind']} at s={ev['s']:.6f}, lambda={ev['lambda']:.9f} "
              f"(point {ev['index']})")
    if branch.warnings:
        print("warnings:")
        for w in branch.warnings:
            print(f"  {w}")
    print()

    worst = max(pt.diagnostics["residual_norm"] for pt in branch.points)
    print(f"max accepted residual norm along the branch: {worst:.2e}")
    # the seed is the trivial state with identically zero densities, so
    # the strict positivity flag only applies from the first step on
    print(f"all traced points positive: "
          f"{all(pt.diagnostics['positive'] for pt in branch.points[1:])}")
    print()

    # the high-voltage sanity report declines here, and says why: it only
    # applies when the trace ends in a genuine voltage blowup
    rep = sb.high_voltage_diagnostic(branch, p)
    print(f"high-voltage diagnostic: applicable={rep.applicable} ({rep.reason})")


if __name__ == "__main__":
    main()
