"""Theta engine: normalization, quasi-periodicity, zeros, series oracle."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwbc import (DegenerateParameter, InvalidParameter, ThetaContext,
                  is_on_lattice, require_off_lattice, theta,
                  theta_deriv_at_zero)

from oracles import THETA_QUARTER_TAU_I, theta_series

TAUS = [1j, 0.3 + 0.8j]


def test_frozen_golden_value(ctx):
    val = theta(ctx, 0.25)
    assert abs(val - THETA_QUARTER_TAU_I) < 1e-15
    assert abs(val.imag) < 1e-15


@pytest.mark.parametrize("tau", TAUS)
def test_series_oracle_agreement(tau):
    """Product form vs the independent alternating series, 100 points."""
    ctx = ThetaContext(tau)
    rng = np.random.default_rng(91)
    pts = rng.uniform(-1.5, 1.5, 100) + 1j * rng.uniform(-0.3, 0.3, 100)
    for u in pts:
        if is_on_lattice(ctx, u, 1e-6):
            continue
        a = theta(ctx, complex(u))
        b = theta_series(complex(u), tau)
        assert abs(a - b) / abs(b) < 1e-11


@pytest.mark.parametrize("tau", TAUS)
def test_quasi_periodicity(tau):
    ctx = ThetaContext(tau)
    rng = np.random.default_rng(7)
    for u in rng.uniform(-0.8, 0.8, 20) + 1j * rng.uniform(-0.4, 0.4, 20):
        u = complex(u)
        base = theta(ctx, u)
        assert abs(theta(ctx, u + 1) + base) <= 1e-10 * max(1.0, abs(base))
        shifted = theta(ctx, u + tau)
        expected = -cmath.exp(-2j * cmath.pi * u - 1j * cmath.pi * tau) * base
        assert abs(shifted - expected) <= 1e-10 * max(1.0, abs(expected))


@given(st.floats(-2, 2), st.floats(-0.4, 0.4))
@settings(max_examples=80, deadline=None)
def test_oddness(re, im):
    ctx = ThetaContext(1j)
    u = complex(re, im)
    assert abs(theta(ctx, u) + theta(ctx, -u)) < 1e-12


@pytest.mark.parametrize("tau", TAUS)
def test_derivative_normalized_at_zero(tau):
    ctx = ThetaContext(tau)
    assert abs(theta_deriv_at_zero(ctx) - 1.0) < 1e-9


@pytest.mark.parametrize("tau", TAUS)
def test_zero_set_is_exactly_the_lattice(tau):
    ctx = ThetaContext(tau)
    for m in (-2, -1, 0, 1, 3):
        for n in (-1, 0, 2):
            # rounding in m + n*tau can leave a ~1e-16 offset from the exact
            # lattice point, amplified by the quasi-periodicity phase
            assert abs(theta(ctx, m + n * tau)) < 1e-10
            assert is_on_lattice(ctx, m + n * tau)
    # the guard has no search window: far lattice points are found too
    for x in (60, 51 + tau, 3 + 70 * tau, -80 - 55 * tau):
        assert is_on_lattice(ctx, x)
        with pytest.raises(DegenerateParameter, match="lattice"):
            require_off_lattice(ctx, x, "x")
        assert not is_on_lattice(ctx, x + 0.01)
    # nearby but off-lattice points are not zeros
    for u in (0.02, 1.03 + tau, 0.5, 0.5 * tau):
        assert abs(theta(ctx, u)) > 1e-8
        assert not is_on_lattice(ctx, u, 1e-6)


def test_argument_reduction_large_shift(ctx):
    """Values far from the fundamental cell reduce without overflow."""
    u0 = 0.31 + 0.07j
    base = theta(ctx, u0)
    val = theta(ctx, u0 + 5 - 3 * ctx.tau)
    phase = (-1) ** (5 + 3) * cmath.exp(
        -2j * cmath.pi * (-3) * u0 - 1j * cmath.pi * 9 * ctx.tau)
    assert abs(val - phase * base) / abs(val) < 1e-12


def test_trig_limit_on_grid():
    ctx = ThetaContext(10j)
    for u in np.linspace(-0.5, 0.5, 41):
        assert abs(theta(ctx, float(u)) - math.sin(math.pi * u) / math.pi) < 1e-6


def test_context_rejects_bad_tau():
    with pytest.raises(InvalidParameter):
        ThetaContext(0.5)          # real tau
    with pytest.raises(InvalidParameter):
        ThetaContext(0.3 - 0.2j)   # lower half plane
    with pytest.raises(InvalidParameter, match="too close to 1"):
        ThetaContext(0.001j)       # 4000 product factors leave a 1e-11 tail


def test_off_lattice_guard_names_the_argument(ctx):
    with pytest.raises(DegenerateParameter, match="lambda.*lattice"):
        require_off_lattice(ctx, 1 + 2 * ctx.tau, "lambda")
    # a clean value passes silently
    require_off_lattice(ctx, 0.31, "lambda")


def test_truncation_scales_with_nome():
    assert ThetaContext(1j).truncation_terms <= 10
    assert ThetaContext(0.05j).truncation_terms > ThetaContext(1j).truncation_terms
    # huge Im tau: nome underflows, a single factor suffices
    assert ThetaContext(200j).truncation_terms == 1
    # the 1e-16 target needs ~4500 factors; 4000 still reach the 1e-12 floor
    assert ThetaContext(0.0013j).truncation_terms == 4000
