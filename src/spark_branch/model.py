"""Closed-form ingredients of the spherical glow-discharge model.

The discharge gap is the radial shell 1 <= r <= 2 (anode at r = 1,
cathode at r = 2).  The impact-ionization yield per unit path length at
local field strength ell is the Townsend law

    h(ell) = a * ell * exp(-b / ell),        h(0) := 0 (limit),

and the combination that controls the electron equation and all
comparison arguments is

    g(ell) = h(ell) - ell**2 / 4.

The harmonic profile H(r) = 2*(1 - 1/r) is the unit-voltage potential of
the shell, so an applied voltage lambda produces the background drift
field lambda * H'(r) = 2*lambda / r**2.

Parameter region where the secondary-emission mechanism can sustain a
discharge: gamma > 1/a together with b > 4a/e.  There g < 0 for every
field strength (the minimum of ell*exp(b/ell) is b*e at ell = b), which
is what the maximum principle and the comparison solution rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

R_ANODE = 1.0
R_CATHODE = 2.0

#: tolerance in the non-degeneracy test |gamma/(1+gamma) - exp(-a)| > 0
HIGH_VOLTAGE_TOL = 1e-12

# slack for floating-point endpoints when range-checking r
_R_SLACK = 1e-9


@dataclass(frozen=True)
class Parameters:
    """Physical constants: ionization coefficients a, b, secondary-emission
    yield gamma, and the electron/ion mobilities k_e, k_i.  All positive."""

    a: float
    b: float
    gamma: float
    k_e: float = 1.0
    k_i: float = 1.0

    def __post_init__(self):
        for name in ("a", "b", "gamma", "k_e", "k_i"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"parameter {name} must be positive and finite, got {value!r}")


def _eval(ell, fn):
    """Apply fn to a scalar or array, returning the matching kind."""
    arr = np.asarray(ell, dtype=float)
    out = fn(arr)
    return float(out) if arr.ndim == 0 else out


def townsend_h(ell, p: Parameters):
    """Ionization rate h(ell) = a*ell*exp(-b/ell) for ell >= 0; h(0) = 0."""
    def fn(arr):
        if (arr < 0.0).any():
            raise ValueError("field strength must be nonnegative")
        # At ell = 0 (abs maps -0.0 there) and at subnormal ell, -b/ell
        # is -inf and exp gives the limit h = 0.
        ell = np.abs(arr)
        with np.errstate(divide="ignore", over="ignore"):
            return p.a * ell * np.exp(-p.b / ell)
    return _eval(ell, fn)


def townsend_h_prime(ell, p: Parameters):
    """h'(ell) = a*exp(-b/ell)*(1 + b/ell), defined for ell > 0 only."""
    def fn(arr):
        if np.any(arr <= 0.0):
            raise ValueError("h'(ell) needs ell > 0")
        return p.a * np.exp(-p.b / arr) * (1.0 + p.b / arr)
    return _eval(ell, fn)


def g_fn(ell, p: Parameters):
    """g(ell) = h(ell) - ell**2/4, the net growth coefficient."""
    def fn(arr):
        return townsend_h(arr, p) - 0.25 * arr ** 2
    return _eval(ell, fn)


def g_prime(ell, p: Parameters):
    """g'(ell) = h'(ell) - ell/2 for ell > 0."""
    def fn(arr):
        return townsend_h_prime(arr, p) - 0.5 * arr
    return _eval(ell, fn)


def _check_radius(arr):
    if np.any(arr < R_ANODE - _R_SLACK) or np.any(arr > R_CATHODE + _R_SLACK):
        raise ValueError("radius outside the shell [1, 2]")


def harmonic_H(r):
    """Unit-voltage potential H(r) = 2*(1 - 1/r) on the shell."""
    def fn(arr):
        _check_radius(arr)
        return 2.0 * (1.0 - 1.0 / arr)
    return _eval(r, fn)


def harmonic_dH(r):
    """H'(r) = 2/r**2; note the identity r**2 * H'(r) = 2."""
    def fn(arr):
        _check_radius(arr)
        return 2.0 / arr ** 2
    return _eval(r, fn)


def in_gamma_region(p: Parameters) -> bool:
    """True when (a, b, gamma) lies in the secondary-emission region:
    gamma > 1/a and b > 4a/e (the latter makes g < 0 everywhere)."""
    return p.gamma > 1.0 / p.a and p.b > 4.0 * p.a / np.e


def high_voltage_condition(p: Parameters) -> bool:
    """Non-degeneracy needed by the dilute-gas (high-voltage) diagnostic:
    gamma/(1+gamma) must differ from exp(-a)."""
    return abs(p.gamma / (1.0 + p.gamma) - np.exp(-p.a)) > HIGH_VOLTAGE_TOL
