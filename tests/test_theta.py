"""Theta engine: normalization, quasi-periodicity, zeros, series oracle,
modular transforms and agreement with mpmath."""

import cmath
import math
import sys
import threading

import numpy as np
import pytest

from dwbc import (DegenerateParameter, InvalidParameter, ThetaContext,
                  interpolate, is_on_lattice, require_off_lattice, theta,
                  theta_deriv_at_zero)
from dwbc.theta import _MEMO_LIMIT

from oracles import THETA_QUARTER_TAU_I, theta_mp, theta_series

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


def test_oddness():
    """theta(-u) = -theta(u) on a 9 x 9 grid of [-2, 2] x [-0.4, 0.4], whose
    corners, edges and lattice points are the awkward cases, and at a tiny u."""
    ctx = ThetaContext(1j)
    grid = [complex(re, im) for re in np.linspace(-2, 2, 9)
            for im in np.linspace(-0.4, 0.4, 9)]
    for u in grid + [1e-300]:
        assert abs(theta(ctx, u) + theta(ctx, -u)) < 1e-12, u


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
    # the lattice guard reduces in the caller's lattice, which is sound only
    # while 2 * 1e-10 < Im(tau)
    with pytest.raises(InvalidParameter, match=r"Im\(tau\) > 2\*1e-10"):
        ThetaContext(1e-11j)
    # far above that limit, a tiny Im(tau) is an ordinary context
    assert ThetaContext(0.001j).tau == 0.001j


def test_off_lattice_guard_names_the_argument(ctx):
    with pytest.raises(DegenerateParameter, match="lambda.*lattice"):
        require_off_lattice(ctx, 1 + 2 * ctx.tau, "lambda")
    # a clean value passes silently
    require_off_lattice(ctx, 0.31, "lambda")


# tau values of the accuracy test: no S step (i, 10i, 40i, 200i), one S step
# at every Im(tau) from 0.8 down to 0.002, and two S steps (0.45 + 0.1i)
MP_BOUNDS = {
    1j: 4e-15,
    10j: 4e-15,
    40j: 4e-15,
    200j: 4e-15,
    0.3 + 0.8j: 4e-15,
    0.1j: 2e-15,
    0.05j: 2e-15,
    0.02j: 2e-15,
    0.01j: 6e-15,
    0.002j: 6e-15,
    0.45 + 0.1j: 4e-15,
    -0.3 + 0.15j: 4e-15,
}


@pytest.mark.parametrize("tau", list(MP_BOUNDS))
def test_agrees_with_mpmath(tau):
    """Largest relative error against a 40-digit reference, on 40 points of
    [-1.3, 1.3] + i[-0.12, 0.12]; a point whose value is beyond the float
    range must raise instead."""
    pytest.importorskip("mpmath")
    ctx = ThetaContext(tau)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.3, 1.3, 40) + 1j * rng.uniform(-0.12, 0.12, 40)
    worst = 0.0
    for u in map(complex, pts):
        ref = theta_mp(u, tau)
        if not abs(ref) < sys.float_info.max:
            with pytest.raises(InvalidParameter, match="overflows"):
                theta(ctx, u)
            continue
        worst = max(worst, float(abs(theta(ctx, u) - ref) / abs(ref)))
    assert worst <= MP_BOUNDS[tau]


@pytest.mark.parametrize("tau", [0.3 + 0.8j, 0.1j, 0.02j, 0.45 + 0.1j,
                                 -0.3 + 0.15j, 1j, 0.6 + 2j])
def test_modular_identities(tau):
    """theta(u|tau + 1) = theta(u|tau) and
    theta(u|tau) = tau exp(-i pi u^2/tau) theta(u/tau | -1/tau), evaluated
    on both sides; each side may take S steps or none."""
    ctx, ctx_t, ctx_s = (ThetaContext(tau), ThetaContext(tau + 1),
                         ThetaContext(-1 / tau))
    rng = np.random.default_rng(17)
    for u in map(complex, rng.uniform(-0.9, 0.9, 12)
                 + 1j * rng.uniform(-0.1, 0.1, 12)):
        base = theta(ctx, u)
        assert abs(theta(ctx_t, u) - base) <= 1e-13 * abs(base)
        s_side = (tau * cmath.exp(-1j * math.pi * u * u / tau)
                  * theta(ctx_s, u / tau))
        assert abs(s_side - base) <= 1e-12 * abs(base)


def test_value_beyond_float_range_raises():
    ctx = ThetaContext(0.001j)
    # |theta(1/2 | 0.001i)| is about e^785
    with pytest.raises(InvalidParameter, match=r"theta.*overflows"):
        theta(ctx, 0.5)
    # a value in range at the same tau is finite and odd
    val = theta(ctx, 0.01 + 0.0003j)
    assert cmath.isfinite(val) and val != 0
    assert theta(ctx, -0.01 - 0.0003j) == -val


@pytest.mark.parametrize("tau", [1j, 1.5j, 10j, 40j, 200j, 0.6 + 2j])
def test_product_path_is_unchanged(tau):
    """Where tau needs no S step the value is the former product path's
    truncated product, bit for bit, although that path took
    max(1, ceil(log 1e-16 / log|p|)) factors (1 when p underflows) where
    the frame's rule takes as few as 0."""
    ctx = ThetaContext(tau)
    p = cmath.exp(2j * math.pi * tau)
    terms = 1 if p == 0 else max(1, math.ceil(math.log(1e-16)
                                              / math.log(abs(p))))
    for u in (0.25, 0.31 + 0.07j, -0.48 + 0.2j):
        ep, em = cmath.exp(2j * math.pi * u), cmath.exp(-2j * math.pi * u)
        prod, pk = 1.0 + 0j, 1.0 + 0j
        for _ in range(terms):
            pk *= p
            prod *= (1.0 - pk * ep) * (1.0 - pk * em) / (1.0 - pk) ** 2
        assert theta(ctx, u) == cmath.sin(math.pi * u) / math.pi * prod


# theta at the benchmark's small tau before the two evaluation paths merged
PINNED = {
    0.1j: (5.754740301136588 + 0j,
           10.317977170003063 + 11.411121536029592j,
           -137.7815185245684 + 35.37628122230675j),
    0.05j: (1040.4026815552484 + 0j,
            -746.2238644005316 + 7397.802975783216j,
            -557075.5525821398 + 306254.87665488984j),
    0.02j: (19673355717.14781 + 0j,
            -1367352712247.2158 - 2312067169297.219j,
            -5.610506825152979e+16 + 1.726736449098279e+17j),
}


@pytest.mark.parametrize("tau", list(PINNED))
def test_reduced_frame_values_are_pinned(tau):
    ctx = ThetaContext(tau)
    for u, val in zip((0.25, 0.31 + 0.07j, -0.48 + 0.2j), PINNED[tau]):
        assert theta(ctx, u) == val


def test_reduced_frame_needs_few_terms():
    assert ThetaContext(1j).truncation_terms == 6
    # huge Im tau: |p|^(1/4) < 1e-16, so the product is empty
    assert ThetaContext(200j).truncation_terms == 0
    # every tau is carried to Im(tau) >= sqrt(3)/2, where 7 factors suffice;
    # below Im(tau) = 0.042 the product is empty
    for tau in list(MP_BOUNDS) + [0.001j, 1e-9j, 0.21 + 0.003j, 0.5 + 0.866j]:
        assert ThetaContext(tau).truncation_terms <= 7
    assert ThetaContext(0.02j).truncation_terms == 0


def _bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("tau", [1j, 0.02j, 0.3 + 0.01j])
def test_memo_returns_the_values_of_a_fresh_context(tau):
    """One context fed repeats and lattice shifts (u, u + 1, u + tau) gives,
    call for call, the value a fresh context gives."""
    rng = np.random.default_rng(43)
    base = [complex(u) for u in rng.uniform(-0.3, 0.3, 6)
            + 1j * rng.uniform(-0.004, 0.004, 6)]
    batch = [w for u in base for w in (u, u + 1, u + tau)]
    batch += batch[::-1] + batch[:5]
    ctx = ThetaContext(tau)
    for u in batch:
        assert theta(ctx, u) == theta(ThetaContext(tau), u), u
    assert len(ctx._memo) == 3 * len(base)


@pytest.mark.parametrize("tau", [1j, 0.02j, 0.3 + 0.01j])
def test_memo_keeps_signed_zeros_apart(tau):
    """0.3 + 0j and 0.3 - 0j are equal dict keys; each sign variant still
    returns the bits a fresh context returns, in either order."""
    ctx = ThetaContext(tau)
    variants = [complex(x, y) for x, y in
                ((0.3, 0.0), (0.3, -0.0), (0.0, 0.002), (-0.0, 0.002),
                 (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0))]
    for u in variants + variants[::-1]:
        assert _bits(theta(ctx, u)) == _bits(theta(ThetaContext(tau), u)), u
    assert len(ctx._memo) == len(variants)


@pytest.mark.parametrize("tau,u,match", [
    (1j, complex(math.nan), "not finite"),
    (1j, complex(math.inf, 0.2), "not finite"),
    (1j, 0.31 + 50j, "overflows"),           # the CLI's --lambda 0.31+50i
    (0.001j, 0.5, "overflows"),
])
def test_memo_repeats_errors(tau, u, match):
    ctx = ThetaContext(tau)
    for _ in range(2):
        with pytest.raises(InvalidParameter, match=match):
            theta(ctx, u)
    assert not ctx._memo


def test_memo_is_bounded():
    ctx = ThetaContext(0.3 + 0.8j)
    args = [complex(k / 7919, 0.01) for k in range(_MEMO_LIMIT + 300)]
    values = [theta(ctx, u) for u in args]
    assert len(ctx._memo) == _MEMO_LIMIT
    for u, val in list(zip(args, values))[::97] + [(args[-1], values[-1])]:
        assert theta(ctx, u) == val == theta(ThetaContext(0.3 + 0.8j), u)
    assert len(ctx._memo) == _MEMO_LIMIT


def test_used_context_equals_a_fresh_one():
    ctx = ThetaContext(0.1j)
    for u in (0.25, 0.31 + 0.07j, -0.48 + 0.2j):
        theta(ctx, u)
    fresh = ThetaContext(0.1j)
    assert ctx._memo and not fresh._memo
    assert ctx == fresh
    assert hash(ctx) == hash(fresh)
    assert repr(ctx) == repr(fresh)


def test_memo_is_safe_to_share_between_threads():
    """Threads evaluating one context at once, switching every microsecond,
    all get the values a fresh context gives."""
    tau = 0.05j
    args = [complex(k / 200 - 0.3, 0.001 * (k % 7)) for k in range(120)]
    expected = [theta(ThetaContext(tau), u) for u in args]
    ctx = ThetaContext(tau)
    results = {}

    def work(k):
        order = list(range(len(args)))[k::3] + list(range(len(args)))
        results[k] = all(theta(ctx, args[i]) == expected[i] for i in order)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == dict.fromkeys(range(6), True)
    assert len(ctx._memo) == len(args)


NAN = complex(math.nan)


@pytest.mark.parametrize("name,call", [
    ("lattice guard argument", lambda: is_on_lattice(ThetaContext(1j), NAN)),
    ("x", lambda: require_off_lattice(ThetaContext(1j), math.inf, "x")),
    ("lattice guard argument",
     lambda: interpolate(ThetaContext(1j), [NAN], [1], 0.2, 0.1)),
], ids=["is_on_lattice-nan", "require_off_lattice-inf", "interpolate-nan"])
def test_lattice_guards_refuse_non_finite_arguments(name, call):
    with pytest.raises(InvalidParameter, match=rf"^{name}\b.* is not finite"):
        call()
