"""Closed forms: permutation sums, Izergin determinant, recursion, kernel."""

import numpy as np
import pytest

from dwbc import (DegenerateParameter, EllipticParams, SizeCap, ThetaContext,
                  TrigParams, enumerate_6v, enumerate_sos, enumerate_trig_sos,
                  recursion_factor, theta, weight_kernel, z_6v_sum,
                  z_izergin, z_sos_elliptic, z_trig_sos)

from helpers import draw_multiplicative, draw_spectral, rel_diff
from oracles import inversions, perm_sum, sixv_bruteforce

# Pinned regression values, produced by two independently implemented routes
# agreeing to ~1e-15 (state sum vs permutation sum; determinant vs the
# exhaustive-edge oracle in tests/oracles.py).
FROZEN_ELLIPTIC_N2 = 0.00020730644186473155 + 0j
FROZEN_SIXV_N3 = 2.172862028540731 + 0j


def test_single_vertex_hand_values(ctx):
    u, v, lam, hbar = 0.4, 0.1, 0.31, 0.17
    expected = theta(ctx, u - v - lam) * theta(ctx, hbar) / theta(ctx, -lam)
    got = z_sos_elliptic(ctx, EllipticParams([u], [v], lam, hbar))
    assert rel_diff(got, expected) < 1e-14

    z, w, q, mu = 0.8 + 0.1j, 2.0 - 0.05j, 1.3, 0.7
    assert rel_diff(z_izergin(TrigParams([z], [w], q)), (q - 1 / q) * w) < 1e-14
    assert rel_diff(z_6v_sum(TrigParams([z], [w], q)), (q - 1 / q) * w) < 1e-14
    assert rel_diff(z_trig_sos(TrigParams([z], [w], q, mu=mu)),
                    (z - w * mu) * (q - 1 / q) / (1 - mu)) < 1e-14


def test_frozen_regression_values(ctx):
    p = EllipticParams([0.40, 0.55], [0.10, 0.23], 0.31, 0.17)
    assert rel_diff(z_sos_elliptic(ctx, p), FROZEN_ELLIPTIC_N2) < 1e-12
    p6 = TrigParams([0.7, 0.9, 1.2], [1.7, 2.1, 2.4], 1.3)
    assert rel_diff(z_izergin(p6), FROZEN_SIXV_N3) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_permutation_sum_matches_enumeration(ctx, ctx_generic, rng, n):
    for context in (ctx, ctx_generic):
        p = EllipticParams(draw_spectral(rng, n), draw_spectral(rng, n),
                           0.31, 0.17)
        assert rel_diff(z_sos_elliptic(context, p),
                        enumerate_sos(context, p)) < 1e-11


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_recursion_identity(ctx, rng, n):
    lam, hbar = 0.31, 0.17
    u, v = draw_spectral(rng, n), draw_spectral(rng, n)
    u[-1] = v[-1] - hbar
    p = EllipticParams(u, v, lam, hbar)
    reduced = EllipticParams(u[:-1], v[:-1], lam, hbar)
    lhs = z_sos_elliptic(ctx, p)
    rhs = recursion_factor(ctx, p) * z_sos_elliptic(ctx, reduced)
    assert rel_diff(lhs, rhs) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_izergin_matches_sum(rng, n):
    p = TrigParams(draw_multiplicative(rng, n),
                   draw_multiplicative(rng, n, 1.6, 2.6), 1.3)
    assert rel_diff(z_izergin(p), z_6v_sum(p)) < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_izergin_matches_bruteforce(rng, n):
    z = draw_multiplicative(rng, n)
    w = draw_multiplicative(rng, n, 1.6, 2.6)
    assert rel_diff(z_izergin(TrigParams(z, w, 1.3)),
                    sixv_bruteforce(z, w, 1.3)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_trig_sum_matches_enumeration(rng, n):
    p = TrigParams(draw_multiplicative(rng, n),
                   draw_multiplicative(rng, n, 1.6, 2.6), 1.3, mu=0.7)
    assert rel_diff(z_trig_sos(p), enumerate_trig_sos(p)) < 1e-11


def test_izergin_warns_when_ill_conditioned():
    """Clustered column parameters compound the Cauchy-type conditioning."""
    n, gap = 5, 1e-3
    z = [1.0 + k * gap for k in range(n)]
    w = [2.0 + 0.2 * k for k in range(n)]
    with pytest.warns(RuntimeWarning, match="condition number"):
        z_izergin(TrigParams(z, w, 1.3))


def test_izergin_degenerate_nodes_raise():
    with pytest.raises(DegenerateParameter, match="z"):
        z_izergin(TrigParams([1.0, 1.0], [2.0, 2.2], 1.3))
    with pytest.raises(DegenerateParameter, match="w"):
        z_izergin(TrigParams([1.0, 1.2], [2.0, 2.0], 1.3))
    with pytest.raises(DegenerateParameter, match="pole"):
        # q z_1 = w_1 / q hits a determinant-entry pole
        z_izergin(TrigParams([1.0], [1.3 * 1.3], 1.3))


def test_elliptic_sum_guards_v_collisions(ctx):
    with pytest.raises(DegenerateParameter, match=r"v\[2\] - v\[1\]"):
        z_sos_elliptic(ctx, EllipticParams([0.4, 0.5], [0.1, 0.1],
                                           0.31, 0.17))


def test_regular_at_near_v_collision(ctx):
    """Individual factors blow up like 1/eps, the full sum stays finite."""
    eps = 1e-6
    u = [0.40, 0.55, 0.71]
    v = [0.10, 0.10 + eps, 0.23]
    p = EllipticParams(u, v, 0.31, 0.17)
    zs = z_sos_elliptic(ctx, p)
    ze = enumerate_sos(ctx, p)   # manifestly regular route
    assert rel_diff(zs, ze) < 1e-6


def test_kernel_single_vertex_value(ctx):
    u, v, lam, hbar = 0.4, 0.1, 0.31, 0.17
    got = weight_kernel(ctx, EllipticParams([u], [v], lam, hbar), [v])
    expected = theta(ctx, u - v - lam) / (theta(ctx, u - v) * theta(ctx, -lam))
    assert rel_diff(got, expected) < 1e-14


def test_kernel_simple_pole_at_u_equals_v(ctx):
    """Residue check by scaling: halving the distance doubles the value."""
    v = [0.10, 0.23]
    lam, hbar = 0.31, 0.17
    vals = []
    for eps in (1e-4, 5e-5):
        p = EllipticParams([v[0] + eps, 0.55], v, lam, hbar)
        vals.append(weight_kernel(ctx, p, v))
    ratio = abs(vals[1]) / abs(vals[0])
    assert abs(ratio - 2.0) < 0.01


def test_kernel_guard_names_the_pole(ctx):
    v = [0.10, 0.23]
    p = EllipticParams([0.10, 0.55], v, 0.31, 0.17)
    with pytest.raises(DegenerateParameter, match=r"u\[1\] - vperm\[1\]"):
        weight_kernel(ctx, p, v)


@pytest.mark.parametrize("n", [2, 3])
def test_kernel_symmetrization(ctx, rng, n):
    """Symmetrising the kernel against the exchange factors rebuilds Z."""
    lam, hbar = 0.31, 0.17
    u, v = draw_spectral(rng, n), draw_spectral(rng, n)
    p = EllipticParams(u, v, lam, hbar)
    pref = theta(ctx, hbar) ** n
    for k in range(n):
        for j in range(n):
            pref *= theta(ctx, u[k] - v[j])
    for k in range(n):
        for m in range(k):
            pref *= theta(ctx, u[k] - u[m] + hbar) / theta(ctx, u[k] - u[m])
            pref *= theta(ctx, v[k] - v[m] - hbar) / theta(ctx, v[k] - v[m])

    def term(sig):
        t = 1.0 + 0j
        for a, b in inversions(sig):
            t *= theta(ctx, v[a] - v[b] + hbar) / theta(ctx, v[a] - v[b] - hbar)
        return t * weight_kernel(ctx, p, [v[s] for s in sig])

    total = pref * perm_sum(n, term)
    assert rel_diff(total, z_sos_elliptic(ctx, p)) < 1e-9


def test_factorial_cap(ctx):
    n = 10
    p = EllipticParams([0.1 * k + 0.05 for k in range(n)],
                       [0.1 * k for k in range(n)], 0.31, 0.17)
    with pytest.raises(SizeCap):
        z_sos_elliptic(ctx, p)
    p6 = TrigParams([1.0 + 0.1 * k for k in range(n)],
                    [2.0 + 0.1 * k for k in range(n)], 1.3)
    with pytest.raises(SizeCap):
        z_6v_sum(p6)
