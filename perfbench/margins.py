"""Distance between each trace workload's voltage cap and the first slow
corrector, across the gamma band.

Usage (from the root of a checkout):  python3 perfbench/margins.py

For the two ends and the middle of the band, traces past the cap and
prints, as lambda - lambda_dagger, where the first corrector needing more
than MAX_CORRECTOR_ITERS iterations appears (or where the trace stopped
if none did).  A positive margin means every corrector up to the cap is
clear of the tolerance artifact at the branch end.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spark_branch as sb  # noqa: E402
from workloads import A, B, GAMMA_BAND, MAX_CORRECTOR_ITERS  # noqa: E402

# (workload, n, cap offset, how far past lambda_dagger to look)
CASES = [("trace-coarse", 257, 0.15, 0.4), ("trace-fine", 2049, 0.003, 0.01)]


def first_slow(p, grid, look):
    lam_dagger = sb.sparking_voltage(p, grid).lambda_dagger
    branch = sb.trace_branch(p, grid, limits={"lambda_cap": lam_dagger + look})
    for q in branch.points[1:]:
        if q.diagnostics["newton_iters"] > MAX_CORRECTOR_ITERS:
            return q.state.lam - lam_dagger, "slow corrector"
    return branch.points[-1].state.lam - lam_dagger, branch.termination.kind


def main():
    lo, hi = GAMMA_BAND
    for name, n, cap, look in CASES:
        grid = sb.RadialGrid(n)
        for gamma in (lo, 0.5 * (lo + hi), hi):
            at, why = first_slow(sb.Parameters(A, B, gamma), grid, look)
            print(f"{name} n={n} gamma={gamma:.4f} cap=+{cap} "
                  f"first={why} at +{at:.5f} margin={at - cap:+.5f}")


if __name__ == "__main__":
    main()
