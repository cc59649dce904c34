"""Elliptic polynomial spaces: membership, interpolation, addition formula."""

import numpy as np
import pytest

from dwbc import (Character, DegenerateNodes, DegenerateParameter,
                  EllipticParams, ThetaContext, addition_formula_residual, interpolate,
                  membership_residual, qj_interpolation_residual, theta,
                  theta_product_poly, vandermonde_ratio, z_sos_elliptic)

from helpers import draw_spectral, rel_diff


def product_with_zero_sum(rng, n, alpha):
    """Zeros for a theta product of degree n whose zero-sum is alpha."""
    zeros = draw_spectral(rng, n - 1) if n > 1 else []
    zeros.append(alpha - sum(zeros))
    return zeros


def test_character_multipliers(ctx):
    chi = Character(3, 0.4 + 0.1j)
    assert chi.chi_1 == (-1) ** 3
    assert abs(chi.chi_tau
               - (-1) ** 3 * np.exp(2j * np.pi * (0.4 + 0.1j))) < 1e-15


def test_theta_product_membership(ctx, rng):
    for n in (1, 2, 3, 4):
        zeros = product_with_zero_sum(rng, n, 0.27 + 0.03j)
        chi = Character(n, 0.27 + 0.03j)
        f = lambda u: theta_product_poly(ctx, zeros, u)
        assert membership_residual(ctx, f, chi, rng=rng) < 1e-9


def test_membership_detects_wrong_character(ctx, rng):
    zeros = product_with_zero_sum(rng, 3, 0.27 + 0.03j)
    f = lambda u: theta_product_poly(ctx, zeros, u)
    assert membership_residual(ctx, f, Character(3, 0.47 + 0.03j),
                               rng=rng) > 1e-3


def test_membership_detects_wrong_degree(ctx, rng):
    zeros = product_with_zero_sum(rng, 3, 0.27 + 0.03j)
    f = lambda u: theta_product_poly(ctx, zeros, u)
    assert membership_residual(ctx, f, Character(2, 0.27 + 0.03j),
                               rng=rng) > 1e-3


@pytest.mark.parametrize("slot", [0, 1])
def test_partition_function_membership_in_u(ctx, rng, slot):
    """Z is an elliptic polynomial of degree n in each u_i, with zero-sum
    character lam + sum(v)."""
    n = 2
    lam, hbar = 0.31, 0.17
    u, v = draw_spectral(rng, n), draw_spectral(rng, n)
    chi = Character(n, lam + sum(v))

    def f(x):
        uu = list(u)
        uu[slot] = x
        return z_sos_elliptic(ctx, EllipticParams(uu, v, lam, hbar))

    assert membership_residual(ctx, f, chi, samples=8, rng=rng) < 1e-9


@pytest.mark.parametrize("slot", [0, 1])
def test_partition_function_membership_in_v(ctx, rng, slot):
    n = 2
    lam, hbar = 0.31, 0.17
    u, v = draw_spectral(rng, n), draw_spectral(rng, n)
    chi = Character(n, -lam + sum(u))

    def f(x):
        vv = list(v)
        vv[slot] = x
        return z_sos_elliptic(ctx, EllipticParams(u, vv, lam, hbar))

    assert membership_residual(ctx, f, chi, samples=8, rng=rng) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_interpolation_round_trip(ctx, rng, n):
    """n nodes determine a degree-n elliptic polynomial completely."""
    alpha = 0.27 + 0.03j
    zeros = product_with_zero_sum(rng, n, alpha)
    f = lambda u: theta_product_poly(ctx, zeros, u)
    nodes = draw_spectral(rng, n)
    values = [f(x) for x in nodes]
    for x in draw_spectral(rng, 5):
        rebuilt = interpolate(ctx, nodes, values, alpha, x)
        assert rel_diff(rebuilt, f(x)) < 1e-9


def test_interpolation_rejects_colliding_nodes(ctx):
    with pytest.raises(DegenerateNodes):
        interpolate(ctx, [0.3, 0.3], [1.0, 1.0], 0.27, 0.5)


def test_qj_interpolation_rejects_colliding_nodes(ctx):
    with pytest.raises(DegenerateNodes, match=r"us\[3\] - us\[2\]"):
        qj_interpolation_residual(ctx, [0.1, 0.2, 0.2], 0.31, 0.17, 2, 0.05)


def test_vandermonde_ratio_is_node_independent(ctx, rng):
    """det of basis evaluations over the canonical theta Vandermonde is a
    constant of the basis, not of the nodes."""
    n, alpha = 3, 0.27 + 0.03j
    basis = []
    for _ in range(n):
        zeros = product_with_zero_sum(rng, n, alpha)
        basis.append(lambda u, zz=tuple(zeros): theta_product_poly(ctx, zz, u))
    r1 = vandermonde_ratio(ctx, basis, draw_spectral(rng, n), alpha)
    r2 = vandermonde_ratio(ctx, basis, draw_spectral(rng, n), alpha)
    assert rel_diff(r1, r2) < 1e-8


def test_vandermonde_ratio_single_function(ctx):
    """For the basis {theta(u - alpha)} the normalised ratio is exactly 1."""
    alpha = 0.27 + 0.03j
    basis = [lambda u: theta_product_poly(ctx, [alpha], u)]
    r = vandermonde_ratio(ctx, basis, [0.41 + 0.02j], alpha)
    assert rel_diff(r, 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_addition_formula(ctx, rng, n):
    lams = draw_spectral(rng, n)
    us = draw_spectral(rng, n)
    assert addition_formula_residual(ctx, lams, us, 0.4 + 0.01j) < 1e-9


def test_addition_formula_has_content(ctx, rng):
    """The identity is an equality of two different expressions, not a
    tautology: rebuilding the right side with a wrong total character
    produces a loud mismatch."""
    lams = draw_spectral(rng, 3)
    us = draw_spectral(rng, 3)
    v = 0.4 + 0.01j

    def g(x, l):
        return theta(ctx, x + l) / (theta(ctx, x) * theta(ctx, l))

    lhs = np.prod([g(ui - v, li) for ui, li in zip(us, lams)])
    lam0_wrong = sum(lams) + 0.05
    rhs_bad = sum(
        g(ui - v, lam0_wrong)
        * np.prod([g(uj - ui, lams[j]) for j, uj in enumerate(us) if j != i])
        for i, ui in enumerate(us))
    assert abs(lhs - rhs_bad) / max(1.0, abs(lhs)) > 1e-3


@pytest.mark.parametrize("lambdas,us,v,name", [
    ([0.21, 1.0, 0.13], [0.1, 0.35, 0.6], 0.4, r"lambdas\[2\]"),
    ([0.3, 0.7], [0.1, 0.35], 0.4, r"sum\(lambdas\)"),
    ([0.21, 0.13], [0.1, 1.4], 0.4, r"us\[2\] - v"),
    ([0.21, 0.13], [0.1, 1.1], 0.4, r"us\[2\] - us\[1\]"),
    (None, [0.1, 0.3], None, r"^lambda = "),
])
def test_lattice_guards_name_the_argument(ctx, lambdas, us, v, name):
    """Each theta denominator of the addition formula and of the Q_j
    interpolation is guarded, and the error names the argument."""
    with pytest.raises(DegenerateParameter, match=name + ".*lattice"):
        if lambdas is None:
            qj_interpolation_residual(ctx, us, 1 + ctx.tau, 0.17, 2, 0.37)
        else:
            addition_formula_residual(ctx, lambdas, us, v)


@pytest.mark.parametrize("n,j", [(2, 2), (3, 2), (3, 3), (5, 4)])
def test_qj_interpolation(ctx, rng, n, j):
    us = draw_spectral(rng, n)
    lam, hbar = 0.31, 0.17
    # at a general point
    assert qj_interpolation_residual(ctx, us, lam, hbar, j,
                                     0.37 + 0.02j) < 1e-9
    # at one of the defining nodes the match is exact to rounding
    assert qj_interpolation_residual(ctx, us, lam, hbar, j, us[1]) < 1e-12
