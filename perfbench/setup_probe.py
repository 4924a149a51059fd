"""Set-up probe, started as a fresh interpreter by run.py.

Usage: python3 -I setup_probe.py ROOT N

Imports spark_branch from ROOT/src, builds the n-node grid, and makes one
residual_vector and one jacobian call (which fill the per-grid operator
caches), then prints "ready".  run.py times the span from starting this
process to reading that line.
"""

import sys
from pathlib import Path

root, n = Path(sys.argv[1]), int(sys.argv[2])
sys.path.insert(0, str(root / "src"))

import spark_branch as sb  # noqa: E402
from spark_branch import steady  # noqa: E402

grid = sb.RadialGrid(n)
p = sb.Parameters(2.0, 3.0, 1.0)
state = steady.trivial_state(3.5, grid)
steady.residual_vector(state, p, grid)
steady.jacobian(state, p, grid)
print("ready", flush=True)
