"""Elliptic polynomials: spaces of entire functions with prescribed
translation behaviour under u -> u + 1 and u -> u + tau.

A function f belongs to the degree-n space with character chi and norm
alpha when

    f(u + 1)   = chi_1 * f(u),              chi_1   = (-1)^n
    f(u + tau) = chi_tau * e^(-2 pi i n u - pi i n tau) * f(u),
                                            chi_tau = (-1)^n e^(2 pi i alpha)

The model example is a product of n theta factors, prod_k theta(u - a_k),
which has alpha = sum_k a_k.  The tools here check membership numerically,
interpolate such functions from n nodes, test the Cauchy-type addition
formula, and expose the determinant/Vandermonde ratio whose constancy
characterises the space.
"""

from __future__ import annotations

import cmath
import math

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateNodes, InvalidParameter
from .theta import ThetaContext, is_on_lattice, require_off_lattice, theta


@dataclass(frozen=True)
class Character:
    """Translation multipliers of a degree-n elliptic polynomial."""

    degree_n: int
    alpha: complex
    chi_1: complex = field(init=False)
    chi_tau: complex = field(init=False)

    def __post_init__(self):
        if self.degree_n < 1:
            raise InvalidParameter(f"degree must be >= 1, got {self.degree_n}")
        object.__setattr__(self, "alpha", complex(self.alpha))
        sign = -1.0 if self.degree_n % 2 else 1.0
        object.__setattr__(self, "chi_1", complex(sign))
        object.__setattr__(
            self, "chi_tau",
            sign * cmath.exp(2j * math.pi * self.alpha))


def theta_product_poly(ctx: ThetaContext, zeros, u: complex) -> complex:
    """prod_k theta(u - a_k): the canonical degree-n elliptic polynomial with
    zero set `zeros` and norm alpha = sum(zeros)."""
    out = 1.0 + 0j
    for a in zeros:
        out *= theta(ctx, u - a)
    return out


def membership_residual(ctx: ThetaContext, f, chi: Character,
                        samples: int = 25, *, rng) -> float:
    """Largest normalised violation of the two translation laws over random
    sample points.

    Points are drawn by rng, any object with a `uniform(low, high)` method
    (`dwbc.draws.default_rng` or a numpy Generator), from the box Re in
    [-0.4, 0.4], Im in [-0.2, 0.2]; each residual is scaled by
    max(1, |f(u)|).
    """
    if samples < 1:
        raise InvalidParameter("samples must be >= 1")
    n = chi.degree_n
    tau = ctx.tau
    worst = 0.0
    for _ in range(samples):
        u = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        fu = f(u)
        scale = max(1.0, abs(fu))
        r1 = abs(f(u + 1) - chi.chi_1 * fu) / scale
        mult = chi.chi_tau * cmath.exp(-2j * math.pi * n * u - 1j * math.pi * n * tau)
        r2 = abs(f(u + tau) - mult * fu) / scale
        worst = max(worst, r1, r2)
    return worst


def _check_distinct(ctx, nodes, label="nodes", first=1):
    """Raise DegenerateNodes if two nodes coincide modulo the lattice;
    nodes[i] is named label[i + first] in the message."""
    for i in range(len(nodes)):
        for j in range(i):
            if is_on_lattice(ctx, nodes[i] - nodes[j]):
                raise DegenerateNodes(
                    f"{label}[{i + first}] - {label}[{j + first}] = "
                    f"{nodes[i] - nodes[j]} lies on the lattice Gamma "
                    f"(coinciding nodes)")


def _check_nodes(ctx, nodes, alpha):
    _check_distinct(ctx, nodes)
    s = sum(nodes) - alpha
    if is_on_lattice(ctx, s):
        raise DegenerateNodes(
            f"sum(nodes) - alpha = {s} lies on the lattice Gamma "
            f"(interpolation denominator theta(alpha - sum u) vanishes)")


def interpolate(ctx: ThetaContext, nodes, values, alpha: complex,
                u: complex) -> complex:
    """Value at u of the degree-n elliptic polynomial with norm alpha taking
    the given values at n nodes:

        P(u) = sum_i values_i
               * theta(u_i - u + alpha - sum_m u_m) / theta(alpha - sum_m u_m)
               * prod_{k != i} theta(u_k - u) / theta(u_k - u_i)

    Exact at the nodes by cardinality; the tests verify that it reproduces
    theta products everywhere.
    """
    nodes = [complex(x) for x in nodes]
    values = [complex(x) for x in values]
    if len(nodes) != len(values) or not nodes:
        raise InvalidParameter(
            f"need matching node/value lists, n >= 1; got {len(nodes)} nodes "
            f"and {len(values)} values")
    _check_nodes(ctx, nodes, alpha)
    total = sum(nodes)
    den0 = theta(ctx, alpha - total)
    out = 0j
    for i, (ui, fi) in enumerate(zip(nodes, values)):
        t = fi * theta(ctx, ui - u + alpha - total) / den0
        for k, uk in enumerate(nodes):
            if k != i:
                t *= theta(ctx, uk - u) / theta(ctx, uk - ui)
        out += t
    return out


def vandermonde_ratio(ctx: ThetaContext, basis, nodes, alpha: complex) -> complex:
    """det || basis_j(nodes_i) || divided by the reference product
    theta(sum_k u_k - alpha) * prod_{i<j} theta(u_i - u_j).

    For any basis of the degree-n space with norm alpha the ratio is a
    constant of the basis alone, independent of the nodes; comparing two
    node sets therefore tests both span and dimension.
    """
    nodes = [complex(x) for x in nodes]
    if len(basis) != len(nodes) or not nodes:
        raise InvalidParameter(
            f"need as many basis functions as nodes, n >= 1; got {len(basis)} "
            f"and {len(nodes)}")
    _check_nodes(ctx, nodes, alpha)
    n = len(nodes)
    mat = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            mat[i, j] = basis[j](nodes[i])
    den = theta(ctx, sum(nodes) - alpha)
    for i in range(n):
        for j in range(i + 1, n):
            den *= theta(ctx, nodes[i] - nodes[j])
    return complex(np.linalg.det(mat)) / den


def addition_formula_residual(ctx: ThetaContext, lambdas, us,
                              v: complex) -> float:
    """Residual of the Cauchy-type addition formula for
    G_l(x) = theta(x + l) / (theta(x) theta(l)):

        prod_i G_{l_i}(u_i - v)
            = sum_i prod_{j != i} G_{l_j}(u_j - u_i) * G_{l_0}(u_i - v)

    with l_0 = sum_i l_i.  Returns |lhs - rhs| / max(1, |lhs|).
    """
    lambdas = [complex(x) for x in lambdas]
    us = [complex(x) for x in us]
    if len(lambdas) != len(us) or not us:
        raise InvalidParameter(
            f"need one lambda per u, n >= 1; got {len(lambdas)} and {len(us)}")
    lam0 = sum(lambdas)
    for i, l in enumerate(lambdas):
        require_off_lattice(ctx, l, f"lambdas[{i + 1}]")
    require_off_lattice(ctx, lam0, "sum(lambdas)")
    for i, ui in enumerate(us):
        require_off_lattice(ctx, ui - v, f"us[{i + 1}] - v")
    for i in range(len(us)):
        for j in range(i):
            require_off_lattice(ctx, us[i] - us[j], f"us[{i + 1}] - us[{j + 1}]")

    def g(x, l):
        return theta(ctx, x + l) / (theta(ctx, x) * theta(ctx, l))

    lhs = 1.0 + 0j
    for ui, li in zip(us, lambdas):
        lhs *= g(ui - v, li)
    rhs = 0j
    for i, ui in enumerate(us):
        t = g(ui - v, lam0)
        for j, uj in enumerate(us):
            if j != i:
                t *= g(uj - ui, lambdas[j])
        rhs += t
    return abs(lhs - rhs) / max(1.0, abs(lhs))


def qj_interpolation_residual(ctx: ThetaContext, us, lam: complex,
                              hbar: complex, j: int, u: complex) -> float:
    """Residual of the n-1 node interpolation identity for the ratio

        Q_j(x) = theta(u_j - x + lam - (n - 2j + 2) hbar) / theta(u_j - x + hbar)
                 * prod_{k=2}^{j-1} theta(u_k - x - hbar) / theta(u_k - x + hbar)

    interpolated over the nodes u_2..u_n:

        Q_j(u) = sum_{i=2}^n Q_j(u_i) * theta(u_i - u + lam) / theta(lam)
                 * prod_{k=2}^n theta(u_k - u_i + hbar) / theta(u_k - u + hbar)
                 * prod_{k=2..n, k != i} theta(u_k - u) / theta(u_k - u_i)

    us lists u_1..u_n (u_1 plays no role); j must lie in [2, n].
    Returns |lhs - rhs| / max(1, |lhs|); exact at the nodes by cardinality.
    """
    us = [complex(x) for x in us]
    n = len(us)
    if n < 2:
        raise InvalidParameter("need n >= 2 variables")
    if not 2 <= j <= n:
        raise InvalidParameter(f"j must lie in [2, {n}], got {j}")
    require_off_lattice(ctx, lam, "lambda")
    _check_distinct(ctx, us[1:], "us", 2)

    def q_of(x):
        t = theta(ctx, us[j - 1] - x + lam - (n - 2 * j + 2) * hbar) \
            / theta(ctx, us[j - 1] - x + hbar)
        for k in range(2, j):
            t *= theta(ctx, us[k - 1] - x - hbar) / theta(ctx, us[k - 1] - x + hbar)
        return t

    lhs = q_of(u)
    tl = theta(ctx, lam)
    rhs = 0j
    for i in range(2, n + 1):
        ui = us[i - 1]
        t = q_of(ui) * theta(ctx, ui - u + lam) / tl
        for k in range(2, n + 1):
            uk = us[k - 1]
            t *= theta(ctx, uk - ui + hbar) / theta(ctx, uk - u + hbar)
            if k != i:
                t *= theta(ctx, uk - u) / theta(ctx, uk - ui)
        rhs += t
    return abs(lhs - rhs) / max(1.0, abs(lhs))
