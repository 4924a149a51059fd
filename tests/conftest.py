"""Shared fixtures and the acceptance-criteria report hook.

Heavy objects (sparking voltages, nullspace data, traced branches) are
deterministic, so they are computed once per session and shared.  The
continuum reference values below come from the independent shooting and
quadrature oracle in oracles.py next to this file; regenerate the table
with `python3 -m oracles` from this directory.
"""

import numpy as np
import pytest

from spark_branch.model import Parameters
from spark_branch.grid import RadialGrid
from spark_branch.electron import sparking_voltage, solve_electron
from spark_branch.adjoint import nullspace_triple, solve_adjoint_w
from spark_branch.continuation import trace_branch

# Continuum (grid-free) references, frozen from the oracle run.
CONTINUUM = {
    "(2,3,1)": {"lambda_dagger": 3.574003401532, "F": -5.885891801520},
    "(2,3,2)": {"lambda_dagger": 2.581637010715, "F": -7.750879396530},
    "(3,5,1)": {"lambda_dagger": 4.042007110308, "F": -6.181938380675},
}

PARAMS = {
    "(2,3,1)": Parameters(2.0, 3.0, 1.0),
    "(2,3,2)": Parameters(2.0, 3.0, 2.0),
    "(3,5,1)": Parameters(3.0, 5.0, 1.0),
}

# Collocation sparking voltage at (2,3,1) on the n=513 grid.  Used as a
# fixed voltage when comparing grid-dependent quantities across grids,
# so that the comparison is not polluted by the moving root.
LAMBDA_REF_231 = 3.5740133655


class _Cache:
    """Session-wide memo for grids, sparking results and adjoint data."""

    def __init__(self):
        self._grids = {}
        self._spark = {}
        self._triple = {}
        self._wsol = {}

    def grid(self, n):
        if n not in self._grids:
            self._grids[n] = RadialGrid(n)
        return self._grids[n]

    def spark(self, key, n):
        if (key, n) not in self._spark:
            self._spark[(key, n)] = sparking_voltage(PARAMS[key], self.grid(n))
        return self._spark[(key, n)]

    def triple(self, key, n):
        if (key, n) not in self._triple:
            sp = self.spark(key, n)
            u = solve_electron(sp.lambda_dagger, PARAMS[key], self.grid(n))
            self._triple[(key, n)] = nullspace_triple(
                sp.lambda_dagger, u, PARAMS[key], self.grid(n))
        return self._triple[(key, n)]

    def wsol(self, key, n):
        if (key, n) not in self._wsol:
            sp = self.spark(key, n)
            self._wsol[(key, n)] = solve_adjoint_w(
                sp.lambda_dagger, PARAMS[key], self.grid(n))
        return self._wsol[(key, n)]


@pytest.fixture(scope="session")
def cache():
    return _Cache()


@pytest.fixture(scope="session")
def grid65(cache):
    return cache.grid(65)


@pytest.fixture(scope="session")
def grid129(cache):
    return cache.grid(129)


@pytest.fixture(scope="session")
def grid257(cache):
    return cache.grid(257)


@pytest.fixture(scope="session")
def grid513(cache):
    return cache.grid(513)


@pytest.fixture(scope="session")
def p231():
    return PARAMS["(2,3,1)"]


@pytest.fixture(scope="session")
def short_branch(cache):
    """n=65 trace at (2,3,1) to lambda_dagger + 0.05 (about 55 points)."""
    lam_dagger = cache.spark("(2,3,1)", 65).lambda_dagger
    return trace_branch(PARAMS["(2,3,1)"], cache.grid(65),
                        limits={"lambda_cap": lam_dagger + 0.05})


@pytest.fixture(scope="session")
def branch257_full(cache):
    """Full default-limit trace at (2,3,1), n=257 (terminates on its own)."""
    return trace_branch(PARAMS["(2,3,1)"], cache.grid(257))


@pytest.fixture(scope="session")
def branch129_long(cache):
    """n=129 trace long enough to cover the n=257 branch's s-range,
    with the opt-in sigma_min on every point."""
    return trace_branch(PARAMS["(2,3,1)"], cache.grid(129),
                        limits={"max_steps": 400}, sigma_check=True)


# ---------------------------------------------------------------------------
# acceptance reporting
# ---------------------------------------------------------------------------

_ACCEPTANCE_LINES = []


def record_criterion(num, label, ok, detail=""):
    """Register one acceptance line; echoed in the terminal summary."""
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d}  {label:<42s} {status}  {detail}"
    _ACCEPTANCE_LINES.append((num, line))
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
