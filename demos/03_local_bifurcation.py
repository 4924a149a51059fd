"""Inspect the linearization at the sparking voltage.

At lambda-dagger the linearized steady operator acquires a one
dimensional kernel.  This script builds the kernel triple
(phi_i, phi_e, phi_v), measures how well it annihilates the operator,
probes the two smallest singular values (one collapses, the next stays
away from zero), and evaluates the transversality functional F whose
nonvanishing makes the bifurcation generic.

Run:  python3 demos/03_local_bifurcation.py
"""

import numpy as np

import spark_branch as sb

SETS = [(2.0, 3.0, 1.0), (2.0, 3.0, 2.0), (3.0, 5.0, 1.0)]


def main():
    grid = sb.RadialGrid(129)
    print(f"kernel and transversality at the sparking voltage, n={grid.n}")
    print()
    for a, b, gamma in SETS:
        p = sb.Parameters(a, b, gamma)
        res = sb.sparking_voltage(p, grid)
        lam = res.lambda_dagger
        print(f"a={a} b={b} gamma={gamma}   lambda_dagger = {lam:.9f}")

        triple = sb.nullspace_triple(lam, res.u_dagger, p, grid)
        resid = sb.nullspace_residual(lam, triple, p, grid)
        blocks = {k: v for k, v in resid.items() if k != "total"}
        worst = max(blocks, key=blocks.get)
        print(f"  kernel residual   {resid['total']:.3e} total, worst block '{worst}'")

        s1, s2 = sb.svd_probe(lam, p, grid)
        print(f"  singular values   sigma_min = {s1:.3e}, next = {s2:.3e}")

        w = sb.solve_adjoint_w(lam, p, grid)
        F = sb.transversality_F(lam, res.u_dagger, w, p, grid)
        Fx = sb.transversality_crosscheck(lam, triple, w, p, grid)
        print(f"  transversality    F = {F:+.9f}  (crosscheck gap {abs(F - Fx):.1e})")

        # adjoint pairing identity on random smooth test functions
        err = sb.adjoint_identity_check(lam, p, grid, n_trials=3, seed=1)
        print(f"  adjoint identity  worst pairing error {err:.2e}")
        print()

    print("sigma_min collapses with the grid spacing while the next singular")
    print("value stays order one: the kernel is one dimensional.  F != 0 is")
    print("the transversality that lets a branch of discharge states leave")
    print("the trivial line at lambda_dagger.")


if __name__ == "__main__":
    main()
