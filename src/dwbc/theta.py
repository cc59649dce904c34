"""Odd quasi-periodic theta function theta(u | tau).

The function is fixed by three conditions:

    theta(u + 1)   = -theta(u)
    theta(u + tau) = -exp(-2*pi*i*u - pi*i*tau) * theta(u)
    theta'(0)      = 1

with tau in the upper half-plane.  It is entire and odd, vanishes exactly
on the period lattice Gamma = Z + Z*tau, and degenerates to sin(pi*u)/pi
as Im(tau) -> +inf.

Evaluation reduces the argument into the fundamental cell |Re u| <= 1/2,
|Im u| <= Im(tau)/2 via the translation law

    theta(u + m + n*tau) = (-1)^(m+n) exp(-2*pi*i*n*u - pi*i*n^2*tau) theta(u)

and then applies the truncated product representation

    theta(u) = sin(pi*u)/pi * prod_{k=1..N} (1 - p^k E)(1 - p^k / E) / (1 - p^k)^2

with E = exp(2*pi*i*u) and nome p = exp(2*pi*i*tau).  The depth N is fixed
per context so that |p|^N < 1e-16; inside the cell |p^k E^{+-1}| <= |p|^(k-1/2),
so the neglected tail is below machine precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import DegenerateParameter, InvalidParameter

_TRUNCATION_TARGET = 1e-16
_TRUNCATION_FLOOR = 1e-12
_MAX_TERMS = 4000       # product factors a context may use
_LATTICE_TOL = 1e-10    # distance below which a point counts as on Gamma


@dataclass(frozen=True)
class ThetaContext:
    """Modular parameter with its derived nome and truncation depth.

    Immutable and stateless after construction, so a single context can be
    shared freely between threads.  Construction fails if Im(tau) <= 0 or
    if the nome is so close to the unit circle that 4000 product factors
    cannot reach a 1e-12 tail.
    """

    tau: complex
    nome_p: complex = field(init=False)
    truncation_terms: int = field(init=False)

    def __post_init__(self):
        tau = complex(self.tau)
        if not tau.imag > 0.0:
            raise InvalidParameter(
                f"tau = {tau} must have strictly positive imaginary part")
        p = cmath.exp(2j * math.pi * tau)
        ap = abs(p)
        if ap == 0.0:
            # Nome underflowed (huge Im tau): the product is empty and the
            # function is exactly the trigonometric limit.
            terms = 1
        else:
            terms = max(1, math.ceil(math.log(_TRUNCATION_TARGET) / math.log(ap)))
            if terms > _MAX_TERMS:
                if ap ** _MAX_TERMS >= _TRUNCATION_FLOOR:
                    raise InvalidParameter(
                        f"|nome| = {ap:.8f} is too close to 1: {_MAX_TERMS} "
                        f"product terms cannot push the tail below {_TRUNCATION_FLOOR:g}")
                terms = _MAX_TERMS
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "nome_p", p)
        object.__setattr__(self, "truncation_terms", terms)


def _cell_value(ctx: ThetaContext, u: complex) -> complex:
    """Product form, valid for u already inside the fundamental cell."""
    ep = cmath.exp(2j * math.pi * u)
    em = cmath.exp(-2j * math.pi * u)
    prod = 1.0 + 0j
    pk = 1.0 + 0j
    for _ in range(ctx.truncation_terms):
        pk *= ctx.nome_p
        prod *= (1.0 - pk * ep) * (1.0 - pk * em) / (1.0 - pk) ** 2
    return cmath.sin(math.pi * u) / math.pi * prod


def _reduce(ctx: ThetaContext, u: complex) -> tuple:
    """(m, n, u0) with u = u0 + m + n*tau and u0 in the fundamental cell."""
    u = complex(u)
    n = round(u.imag / ctx.tau.imag)
    u1 = u - n * ctx.tau
    m = round(u1.real)
    return m, n, complex(u1.real - m, u1.imag)


def theta(ctx: ThetaContext, u: complex) -> complex:
    """Evaluate theta(u | tau) for any complex argument.

    The argument is translated into the fundamental cell by integer steps
    (m, n) along (1, tau); the accumulated quasi-periodicity phase is exact,
    so the translation laws hold to rounding error by construction.  A phase
    beyond the float range raises InvalidParameter.
    """
    m, n, u0 = _reduce(ctx, u)
    value = _cell_value(ctx, u0)
    if m == 0 and n == 0:
        return value
    sign = -1.0 if (m + n) % 2 else 1.0
    try:
        phase = cmath.exp(-2j * math.pi * n * u0
                          - 1j * math.pi * n * n * ctx.tau)
    except OverflowError:
        raise InvalidParameter(
            f"theta({complex(u)} | tau = {ctx.tau}) overflows: its "
            f"quasi-periodicity phase exceeds the float range") from None
    return sign * phase * value


def theta_deriv_at_zero(ctx: ThetaContext) -> complex:
    """Central-difference derivative at 0; equals 1 for a correct normalisation.

    Step h = eps^(1/3) balances rounding against the O(h^2) truncation of the
    difference quotient, leaving an error far below 1e-9.
    """
    h = (2.0 ** -52) ** (1.0 / 3.0)
    return (theta(ctx, h) - theta(ctx, -h)) / (2.0 * h)


def is_on_lattice(ctx: ThetaContext, x: complex,
                  tol: float = _LATTICE_TOL) -> bool:
    """True if x lies within tol of the lattice point m + n*tau that theta's
    reduction subtracts from it.  No other point of Gamma is that close
    while 2*tol < Im(tau); every ThetaContext has Im(tau) > 1e-3."""
    return abs(_reduce(ctx, x)[2]) <= tol


def require_off_lattice(ctx: ThetaContext, x: complex, name: str) -> None:
    """Raise DegenerateParameter if x sits on the period lattice Gamma.

    `name` identifies the offending theta argument in the diagnostic, e.g.
    "lambda + 3*hbar" or "v[3] - v[1]".
    """
    if is_on_lattice(ctx, x):
        raise DegenerateParameter(
            f"{name} = {complex(x)} lies on the lattice Gamma within "
            f"{_LATTICE_TOL:g} (theta denominator vanishes)")
