"""Odd quasi-periodic theta function theta(u | tau).

The function is fixed by three conditions:

    theta(u + 1)   = -theta(u)
    theta(u + tau) = -exp(-2*pi*i*u - pi*i*tau) * theta(u)
    theta'(0)      = 1

with tau in the upper half-plane.  It is entire and odd, vanishes exactly
on the period lattice Gamma = Z + Z*tau, and degenerates to sin(pi*u)/pi
as Im(tau) -> +inf.

Evaluation first reduces the argument into the fundamental cell
|Re u| <= 1/2, |Im u| <= Im(tau)/2 of the caller's lattice via

    theta(u + m + n*tau) = (-1)^(m+n) exp(-2*pi*i*n*u - pi*i*n^2*tau) theta(u).

Frame.  Each context carries tau to the SL(2, Z) fundamental domain
(DLMF 20.7(viii)) by the two modular identities of this normalization,

    theta(u | tau + 1) = theta(u | tau),
    theta(u | t)       = t * exp(-i*pi*u^2/t) * theta(u/t | -1/t),

applied as t <- tau - round(Re tau), then an S step while |t| < 1, repeated
(none when tau is already in the fundamental domain).  The final t has
Im(t) >= sqrt(3)/2 and nome p = exp(2*pi*i*t), and the context tabulates
(p^k, (1 - p^k)^2) for k = 1..K.  One product over that table,

    P(E) = prod_{k=1..K} (1 - p^k E)(1 - p^k / E) / (1 - p^k)^2,

serves both ways into the final frame.  With no S step, theta(u) =
sin(pi*u)/pi * P(exp(2*pi*i*u)) for u in the cell.  After S steps, the last
S step and the sine factor fold into two exponentials, with c = -i*pi/t and
v = u - M for the integer M that takes u to its cell up to multiples of t:

    theta(v | t) = t/(2*pi*i) * (exp(c*v*(v - 1)) - exp(c*v*(v + 1)))
                   * P(exp(-2*c*v)).

Every factor has |p^k E^(+-1)| <= |p|^(k - 3/4) in the cell, so the one
rule K = max(0, ceil(log(1e-16) / log|p| - 1/4)) leaves a tail below
machine precision; K <= 7, and K = 0 once Im(t) >= 23.5 (on the imaginary
axis, Im(tau) >= 23.5 or Im(tau) <= 0.042).  The exponents grow like
1/Im(tau) (about 39 at tau = 0.02i), and a plain double would lose that
many times the unit roundoff; so c is stored as a double-double and each
exponent is formed with error-free transforms (Dekker's product, Knuth's
sum).  A value beyond the float range raises InvalidParameter.

Memo.  Each context remembers the values theta has returned on it, keyed
on the argument's bits, so an argument that recurs while the context lives
is evaluated once.  The routes of a request share the vertex weights built
from those values (enumeration._source), so they ask theta once per vertex.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import DegenerateParameter, InvalidParameter, _check_finite

_TRUNCATION_TARGET = 1e-16
_LATTICE_TOL = 1e-10    # distance below which a point counts as on Gamma
_PI_LO = 1.2246467991473532e-16   # pi - math.pi, the tail of pi's double-double
_SPLIT = 134217729.0    # 2**27 + 1, Dekker's splitter for a 53-bit mantissa
_MEMO_LIMIT = 4096      # values one context remembers; later ones are not stored


@dataclass(frozen=True)
class ThetaContext:
    """Modular parameter with its reduced frame, and a memo of theta's values.

    The frame is fixed at construction.  The CLI builds one context per
    request, and it remembers two things while it lives, each in a dict of
    at most _MEMO_LIMIT = 4,096 entries that takes no part in equality,
    hash or repr: `_memo`, the finite value theta returned for the bits of
    each argument (both parts and the signs of their zeros), and
    `_checked`, kept by `_check_once`, the largest n at which each key
    passed its check (EllipticParams.validate keys on (lam, hbar); a
    failure is never stored).  A context can be shared freely between
    threads: a dict get or set is atomic under the interpreter lock, and a
    stored entry is the one any thread would compute, so a race costs at
    most a repeated evaluation or check, or a few entries past the limit.

    Construction fails unless Im(tau) > 2 * 1e-10, the lattice guard's
    tolerance: below that, two lattice points could both lie within the
    tolerance of one argument.
    `truncation_terms` is K, the number of product factors one evaluation
    multiplies.
    """

    tau: complex
    truncation_terms: int = field(init=False)
    _frame: tuple = field(init=False, repr=False, compare=False)
    _memo: dict = field(init=False, repr=False, compare=False,
                        default_factory=dict)
    _checked: dict = field(init=False, repr=False, compare=False,
                           default_factory=dict)

    def __post_init__(self):
        tau = complex(self.tau)
        _check_finite(tau=tau)
        if not tau.imag > 2 * _LATTICE_TOL:
            raise InvalidParameter(
                f"tau = {tau} must have Im(tau) > 2*{_LATTICE_TOL:g}, twice "
                f"the lattice guard's tolerance")
        frame = _reduced_frame(tau)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "truncation_terms", len(frame[3]))
        object.__setattr__(self, "_frame", frame)

    def _check_once(self, key, n: int, check) -> None:
        """Run check() unless `key` passed at an n no smaller on this
        context; record n once it passes (a failure is never recorded)."""
        if self._checked.get(key, 0) < n:
            check()
            if len(self._checked) < _MEMO_LIMIT:
                self._checked[key] = n


def _minus_i_pi_over(t: complex) -> tuple:
    """-i*pi/t as a double-double (hi, lo) pair of complex numbers: the
    double quotient q plus one Newton correction (-i*pi - q*t)/t, whose
    residual is formed exactly (q*t by _mul, then a cancelling subtraction
    that is exact by Sterbenz's lemma)."""
    q = -1j * math.pi / t
    qt_hi, qt_lo = _mul(q, 0j, t)
    residual = (-1j * math.pi - qt_hi) + (-1j * _PI_LO - qt_lo)
    return _two_sum(q, residual / t)


def _reduced_frame(tau: complex) -> tuple:
    """(n0, steps, last, table) for tau.

    n0 = round(Re tau).  Each S step is taken at a t reduced by its T step,
    while |t| < 1 (strictly, so |tau| = 1 takes none), and is stored as
    (t, c_hi, c_lo) with c = -i*pi/t as a double-double.  `steps` holds
    every S step but the last, each with the t of the step after it;
    `last` is the final S step as (t/(2*pi*i), c_hi, c_lo), or None when
    tau takes none.  `table` holds (p^k, (1 - p^k)^2) for k = 1..K, the
    powers formed by repeated multiplication.
    """
    n0 = round(tau.real)
    t = tau - n0
    levels = []
    while abs(t) < 1.0:
        levels.append((t, *_minus_i_pi_over(t)))
        s = -1.0 / t
        t = s - round(s.real)
    if levels:
        t_last, c_hi, c_lo = levels[-1]
        last = (t_last / (2j * math.pi), c_hi, c_lo)
        p = cmath.exp(2.0 * c_hi)
    else:
        last, p = None, cmath.exp(2j * math.pi * tau)   # = exp(2*pi*i*t)
    # |p^k E^(+-1)| <= |p|^(k - 3/4) with log|p| = -2*pi*Im(t)
    terms = max(0, math.ceil(math.log(_TRUNCATION_TARGET)
                             / (-2.0 * math.pi * t.imag) - 0.25))
    table, pk = [], 1.0 + 0j
    for _ in range(terms):
        pk *= p
        table.append((pk, (1.0 - pk) ** 2))
    steps = tuple(step + (after[0],) for step, after in zip(levels, levels[1:]))
    return n0, steps, last, tuple(table)


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth); complex
    arguments are handled componentwise."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _mul(hi: complex, lo: complex, z: complex) -> tuple:
    """(hi + lo) * z as a double-double pair: the four real products of
    hi * z are exact by Dekker's split, so the error is that of lo * z and
    of the tail sums, about 2^-104 |hi * z|."""
    a, b, x, y = hi.real, hi.imag, z.real, z.imag
    s = _SPLIT * a
    ah = s - (s - a)
    al = a - ah
    s = _SPLIT * b
    bh = s - (s - b)
    bl = b - bh
    s = _SPLIT * x
    xh = s - (s - x)
    xl = x - xh
    s = _SPLIT * y
    yh = s - (s - y)
    yl = y - yh
    ax, by, ay, bx = a * x, b * y, a * y, b * x
    e_re = (((ah * xh - ax) + ah * xl + al * xh) + al * xl
            - (((bh * yh - by) + bh * yl + bl * yh) + bl * yl))
    e_im = (((ah * yh - ay) + ah * yl + al * yh) + al * yl
            + (((bh * xh - bx) + bh * xl + bl * xh) + bl * xl))
    s, e = _two_sum(complex(ax, ay), complex(-by, bx))
    return s, e + complex(e_re, e_im) + lo * z


def _add(x: tuple, y: tuple) -> tuple:
    """Sum of two double-double pairs."""
    s, e = _two_sum(x[0], y[0])
    return s, e + x[1] + y[1]


def _exp(x: tuple) -> complex:
    """exp(hi + lo) for a double-double exponent: |lo| is a few units in the
    last place of hi, so exp(lo) = 1 + lo to double precision while
    |hi| < 1e7."""
    return cmath.exp(x[0]) * (1.0 + x[1])


def _product(table: tuple, x: complex, prod: complex) -> complex:
    """prod * P(E) with E = exp(x), the one product loop of both entries."""
    if table:
        ep, em = cmath.exp(x), cmath.exp(-x)
        for pk, d in table:
            prod *= (1.0 - pk * ep) * (1.0 - pk * em) / d
    return prod


def _frame_value(ctx: ThetaContext, u: complex, m: int, n: int,
                 u0: complex) -> complex:
    """theta(u | tau) through the reduced frame, given the reduction
    u = u0 + m + n*tau in the caller's lattice."""
    n0, steps, last, table = ctx._frame
    if last is None:
        value = cmath.sin(math.pi * u0) / math.pi * _product(
            table, 2j * math.pi * u0, 1.0 + 0j)
        if m or n:
            sign = -1.0 if (m + n) % 2 else 1.0
            phase = cmath.exp(-2j * math.pi * n * u0
                              - 1j * math.pi * n * n * ctx.tau)
            value = sign * phase * value
        return value
    factor, c_hi, c_lo = last      # factor = t/(2*pi*i) times each t_s
    # theta(u | tau) = theta(u | t) = (-1)^M theta(u - M | t), t = tau - n0;
    # v = u0 + n*t exactly, with no rounding of n*t
    flip = m + n * n0
    v = u - flip
    gauss = None
    for t_s, c_shi, c_slo, t_next in steps:
        # theta(v | t_s) = t_s exp(c_s v^2) theta(v/t_s | t_next + integer);
        # w is handed on in plain double, and where the next frame is still
        # ill-conditioned (near-real tau, tiny Im tau) its rounding costs
        # digits: about 1e-13 relative at tau = 0.21 + 0.003i
        factor *= t_s
        g = _mul(*_mul(c_shi, c_slo, v), v)
        gauss = g if gauss is None else _add(gauss, g)
        w = v / t_s
        m, n, u0 = _reduce(t_next, w)
        flip += m
        v = w - m
    cv = _mul(c_hi, c_lo, v)
    a = _mul(*cv, v)
    if gauss is not None:
        a = _add(a, gauss)
    # exp(c*v*(v -+ 1)) = exp(a -+ cv); near a zero of theta the two cancel,
    # and their difference is taken as -2 exp(a) sinh(cv) instead
    if abs(cv[0].real) > 1.0:
        core = _exp(_add(a, (-cv[0], -cv[1]))) - _exp(_add(a, cv))
    else:
        core = -2.0 * _exp(a) * (cmath.sinh(cv[0]) + cmath.cosh(cv[0]) * cv[1])
    # the product is periodic under v -> v + t, so it takes u0 in the cell,
    # with E = exp(2*pi*i*u0/t); a p that needs a factor at all has
    # |p| > e^-148, so |E^(+-1)| <= |p|^(-3/4) < e^111 cannot overflow
    value = factor * _product(table, -2.0 * c_hi * u0, core)
    return -value if flip % 2 else value


def _reduce(tau: complex, u: complex, name: str = "theta argument") -> tuple:
    """(m, n, u0) with u = u0 + m + n*tau and u0 in the fundamental cell.
    A non-finite u raises InvalidParameter, calling it `name`."""
    u = complex(u)
    try:
        n = round(u.imag / tau.imag)
        u1 = u - n * tau
        m = round(u1.real)
    except (ValueError, OverflowError):     # round() of a nan or an inf
        raise InvalidParameter(f"{name} {u} is not finite") from None
    return m, n, complex(u1.real - m, u1.imag)


def theta(ctx: ThetaContext, u: complex) -> complex:
    """Evaluate theta(u | tau) for any complex argument.

    The argument is translated into the fundamental cell by integer steps
    (m, n) along (1, tau); the accumulated quasi-periodicity phase is exact,
    so the translation laws hold to rounding error by construction.  A
    non-finite argument, or a value beyond the float range, raises
    InvalidParameter, and raises again on every later call, since only
    finite values enter the context's memo.
    """
    u = complex(u)
    # equal finite floats have equal bits, except 0.0 == -0.0: a part that
    # is zero keys on its sign as well
    re, im = u.real, u.imag
    key = u if re and im else (re, im, math.copysign(1.0, re),
                               math.copysign(1.0, im))
    memo = ctx._memo
    value = memo.get(key)
    if value is not None:
        return value
    m, n, u0 = _reduce(ctx.tau, u)
    try:
        value = _frame_value(ctx, u, m, n, u0)
    except OverflowError:
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise InvalidParameter(
            f"theta({u} | tau = {ctx.tau}) overflows: its value is "
            f"beyond the float range")
    if len(memo) < _MEMO_LIMIT:
        memo[key] = value
    return value


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
    while 2*tol < Im(tau), which every ThetaContext guarantees for the
    default tol.  A non-finite x raises InvalidParameter."""
    return abs(_reduce(ctx.tau, x, "lattice guard argument")[2]) <= tol


def require_off_lattice(ctx: ThetaContext, x: complex, name: str) -> None:
    """Raise DegenerateParameter if x sits on the period lattice Gamma, and
    InvalidParameter if x is not finite.

    `name` identifies the offending theta argument in the diagnostic, e.g.
    "lambda + 3*hbar" or "v[3] - v[1]".
    """
    if abs(_reduce(ctx.tau, x, f"{name} =")[2]) <= _LATTICE_TOL:
        raise DegenerateParameter(
            f"{name} = {complex(x)} lies on the lattice Gamma within "
            f"{_LATTICE_TOL:g} (theta denominator vanishes)")
