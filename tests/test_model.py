"""Closed-form model ingredients: Townsend law, g, harmonic profile."""

import warnings

import numpy as np
import pytest

from oracles import townsend_h_masked
from spark_branch.model import (Parameters, townsend_h, townsend_h_prime,
                                g_fn, g_prime, harmonic_H, harmonic_dH,
                                in_gamma_region, high_voltage_condition)

P = Parameters(2.0, 3.0, 1.0)


def test_parameters_reject_nonpositive():
    with pytest.raises(ValueError):
        Parameters(0.0, 3.0, 1.0)
    with pytest.raises(ValueError):
        Parameters(2.0, -3.0, 1.0)
    with pytest.raises(ValueError):
        Parameters(2.0, 3.0, 1.0, k_e=0.0)
    with pytest.raises(ValueError):
        Parameters(2.0, np.inf, 1.0)


def test_townsend_h_basics():
    assert townsend_h(0.0, P) == 0.0
    assert townsend_h(3.0, P) == pytest.approx(2.0 * 3.0 * np.exp(-1.0))
    ell = np.linspace(0.0, 10.0, 50)
    vals = townsend_h(ell, P)
    assert vals.shape == ell.shape
    assert np.all(vals >= 0.0)
    with pytest.raises(ValueError):
        townsend_h(-1.0, P)


def test_townsend_h_matches_the_masked_form_bit_for_bit():
    """h(0) comes from exp(-b/0) = exp(-inf) = 0 with no warning, and
    every entry, zeros, -0.0 and subnormals included, equals the masked
    form's bits."""
    rng = np.random.default_rng(3)
    ell = np.concatenate([[0.0, -0.0, 1e-300, 5e-324, 1e-3, 1e6],
                          rng.random(500) * 20.0])
    ell[rng.integers(0, ell.size, 60)] = 0.0
    for p in (P, Parameters(3.0, 5.0, 1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = townsend_h(ell, p)
            h0 = townsend_h(0.0, p)
        with np.errstate(over="ignore"):     # -b/5e-324 in the masked form
            assert h.tobytes() == townsend_h_masked(ell, p).tobytes()
        assert h0 == 0.0 and not np.signbit(h0)


def test_townsend_h_prime_matches_difference_quotient():
    for ell in (0.5, 1.0, 3.0, 8.0):
        eps = 1e-6 * ell
        fd = (townsend_h(ell + eps, P) - townsend_h(ell - eps, P)) / (2 * eps)
        assert townsend_h_prime(ell, P) == pytest.approx(fd, rel=1e-8)
    with pytest.raises(ValueError):
        townsend_h_prime(0.0, P)


def test_g_and_g_prime_consistency():
    ell = np.array([0.3, 1.0, 2.5, 6.0])
    assert np.allclose(g_fn(ell, P), townsend_h(ell, P) - 0.25 * ell ** 2)
    for e in ell:
        eps = 1e-6
        fd = (g_fn(e + eps, P) - g_fn(e - eps, P)) / (2 * eps)
        assert g_prime(e, P) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_harmonic_profile_identities():
    r = np.linspace(1.0, 2.0, 101)
    H = harmonic_H(r)
    assert H[0] == 0.0
    assert H[-1] == pytest.approx(1.0)
    # r^2 H'(r) = 2 up to one rounding of 2/r^2
    assert np.max(np.abs(r ** 2 * harmonic_dH(r) - 2.0)) <= 1e-15
    with pytest.raises(ValueError):
        harmonic_H(0.5)
    with pytest.raises(ValueError):
        harmonic_dH(2.5)


def test_gamma_region_predicate():
    assert in_gamma_region(P)
    # gamma too small
    assert not in_gamma_region(Parameters(2.0, 3.0, 0.4))
    # b below the 4a/e threshold
    assert not in_gamma_region(Parameters(2.0, 2.0, 1.0))
    assert in_gamma_region(Parameters(3.0, 5.0, 1.0))


def test_g_negative_throughout_gamma_region():
    # b > 4a/e forces h(ell) < ell^2/4 for every field strength; probe a
    # wide log range plus the minimizer region ell ~ b of ell*exp(b/ell).
    rng = np.random.default_rng(42)
    for _ in range(200):
        a = np.exp(rng.uniform(np.log(0.2), np.log(50.0)))
        b = 4.0 * a / np.e * (1.0 + np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        p = Parameters(a, b, 1.0)
        assert in_gamma_region(Parameters(a, b, 2.0 / a + 1.0))
        ell = np.concatenate([np.logspace(-8, 3, 120), [b, 1e6]])
        assert np.all(g_fn(ell, p) < 0.0)


def test_g_can_be_positive_outside_region():
    # with b below the threshold the ionization term wins somewhere
    p = Parameters(2.0, 1.0, 1.0)
    ell = np.linspace(0.5, 20.0, 400)
    assert np.max(g_fn(ell, p)) > 0.0


def test_high_voltage_condition_examples():
    assert high_voltage_condition(P)
    # gamma/(1+gamma) = 1/2 = exp(-ln 2): degenerate pair
    assert not high_voltage_condition(Parameters(np.log(2.0), 3.0, 1.0))
