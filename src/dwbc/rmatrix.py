"""Boltzmann weights (R-matrices) for the three models.

A vertex with edge signs alpha (top), beta (right), gamma (bottom), delta
(left) has nonzero weight only if sign flow is conserved (the ice rule),
alpha + beta = gamma + delta, so an RMatrix4 is just the five weights
(a, b, bbar, c, cbar).  Its matrix `.m` on C^2 (x) C^2, basis ordered
(++, +-, -+, --), maps the incoming pair (gamma, delta) to the outgoing
pair (alpha, beta).  _LAYOUT, the one statement of the ice rule (_SLOTS,
_BRANCHES and _TAKE are derived from it), places the weights as

        a  .  .  .
        .  b  cb .          b  = R[+-,+-]   cb = R[+-,-+]
        .  c  bb .          c  = R[-+,+-]   bb = R[-+,-+]
        .  .  .  a

The dynamical (SOS) matrix carries one extra complex parameter lam that is
shifted by +-hbar according to the sign on a spectator space; the checker
for the dynamical Yang-Baxter equation expands that shift over the two
eigen-sectors of H = diag(1, -1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import DegenerateParameter, InvalidParameter, _check_finite
from .theta import _LATTICE_TOL, ThetaContext, require_off_lattice, theta

# weight slot of each matrix entry: 0 a, 1 b, 2 bbar, 3 c, 4 cbar, 5 zero
_LAYOUT = ((0, 5, 5, 5),
           (5, 1, 4, 5),
           (5, 3, 2, 5),
           (5, 5, 5, 0))
_SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))   # basis order
# (alpha, beta, gamma, delta) -> weight slot, for the six admissible vertices
_SLOTS = {_SIGN_PAIRS[row] + _SIGN_PAIRS[col]: slot
          for row, slots in enumerate(_LAYOUT)
          for col, slot in enumerate(slots) if slot < 5}
# (alpha, beta) -> ((gamma, delta, weight slot), ...) for each vertex the ice
# rule admits below (alpha, beta), in layout order
_BRANCHES = {ab: tuple(v[2:] + (slot,) for v, slot in _SLOTS.items()
                       if v[:2] == ab)
             for ab in _SIGN_PAIRS}
_TAKE = np.array(_LAYOUT).ravel()


class RMatrix4(NamedTuple):
    """The five vertex weights; the 4x4 matrix `.m` is derived from them."""

    a: complex
    b: complex
    bbar: complex
    c: complex
    cbar: complex

    def entry(self, alpha: int, beta: int, gamma: int, delta: int) -> complex:
        """Weight of the vertex with these (top, right, bottom, left) signs."""
        slot = _SLOTS.get((alpha, beta, gamma, delta))
        return 0j if slot is None else self[slot]

    @property
    def m(self) -> np.ndarray:
        """The 4x4 weight matrix in the (++, +-, -+, --) basis."""
        return _matrices([self])[0]


def _matrices(rs) -> np.ndarray:
    """The (k, 4, 4) stack of the weight matrices of the k R-matrices rs."""
    padded = np.array([r + (0j,) for r in rs], dtype=complex)
    return padded.take(_TAKE, axis=1).reshape(-1, 4, 4)


def _layout_index(rows, zero) -> np.ndarray:
    """Indices into a flat weight list, 16 per matrix in _TAKE's layout, of
    the matrices whose five weights start at each offset in rows (None for
    the zero matrix); zero indexes a 0 in that list."""
    slots = _TAKE.tolist()
    return np.array([zero if r is None or t == 5 else r + t
                     for r in rows for t in slots])


@dataclass(frozen=True)
class EllipticParams:
    """Spectral and dynamical parameters of the elliptic SOS model.

    u, v are the column and row spectral parameters (length n each), lam is
    the dynamical parameter attached to the corner face, hbar the step by
    which face heights shift it.  `_source` (no part of equality, hash or
    repr) is the routes' shared weight table (enumeration._source).
    """

    u: tuple
    v: tuple
    lam: complex
    hbar: complex
    _source: tuple | None = field(init=False, repr=False, compare=False,
                                  default=None)

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(complex(x) for x in self.u))
        object.__setattr__(self, "v", tuple(complex(x) for x in self.v))
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "hbar", complex(self.hbar))
        _check_finite(u=self.u, v=self.v, lam=self.lam, hbar=self.hbar)
        if len(self.u) != len(self.v) or not self.u:
            raise InvalidParameter(
                f"need equally many u and v parameters, n >= 1; "
                f"got {len(self.u)} and {len(self.v)}")

    @property
    def n(self) -> int:
        return len(self.u)

    def validate(self, ctx: ThetaContext) -> None:
        """Check every dynamical theta denominator reachable at this size.

        Face heights across a domain-wall lattice shift lam by integer
        multiples of hbar bounded by 2n, so lam + k*hbar must stay off the
        lattice for all |k| <= 2n, and hbar itself must be off-lattice
        (else every c-weight vanishes identically).  A call at an n no
        larger than one this (lam, hbar) passed at on ctx returns at once.
        """
        def check():
            require_off_lattice(ctx, self.hbar, "hbar")
            for k in range(-2 * self.n, 2 * self.n + 1):
                require_off_lattice(ctx, self.lam + k * self.hbar,
                                    f"lambda + {k}*hbar")
        ctx._check_once((self.lam, self.hbar), self.n, check)


@dataclass(frozen=True)
class TrigParams:
    """Multiplicative spectral parameters z, w with anisotropy q and, for the
    dynamical trigonometric model, the multiplicative dynamical parameter mu;
    `_source` as in EllipticParams.

    None of the model's rules needs tau, so construction checks them all:
    q - 1/q finite, q^2 != 1 and, when mu is given, 1 - mu q^(2k) off zero
    for every face offset |k| <= 2n.  A TrigParams that exists is valid.
    """

    z: tuple
    w: tuple
    q: complex
    mu: complex | None = None
    _source: tuple | None = field(init=False, repr=False, compare=False,
                                  default=None)

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(complex(x) for x in self.z))
        object.__setattr__(self, "w", tuple(complex(x) for x in self.w))
        object.__setattr__(self, "q", complex(self.q))
        if self.mu is not None:
            object.__setattr__(self, "mu", complex(self.mu))
        _check_finite(z=self.z, w=self.w, q=self.q, mu=self.mu)
        if len(self.z) != len(self.w) or not self.z:
            raise InvalidParameter(
                f"need equally many z and w parameters, n >= 1; "
                f"got {len(self.z)} and {len(self.w)}")
        _cfac(self.q)                    # q != 0, q - 1/q finite
        if abs(self.q * self.q - 1.0) < _LATTICE_TOL:
            raise DegenerateParameter(
                f"q = {self.q} has q^2 = 1: q - 1/q vanishes and with it "
                f"every c-weight")
        if self.mu is not None:
            for k in range(-2 * self.n, 2 * self.n + 1):
                val = _mu_shift(self.mu, self.q, k)
                if abs(val - 1.0) < _LATTICE_TOL:
                    raise DegenerateParameter(
                        f"mu*q^(2*{k}) = {val} hits 1 (dynamical denominator "
                        f"1 - mu*q^(2k) vanishes)")

    @property
    def n(self) -> int:
        return len(self.z)


def _cfac(q: complex) -> complex:
    """q - 1/q, every c-weight's factor; q = 0 or an overflow is an error."""
    if q == 0:
        raise InvalidParameter("q must be nonzero")
    cfac = q - 1.0 / q
    if not cmath.isfinite(cfac):
        raise InvalidParameter(f"q - 1/q overflows at q = {q}")
    return cfac


def _require_mu(p: TrigParams) -> complex:
    """p.mu, which every trigonometric SOS route needs."""
    if p.mu is None:
        raise InvalidParameter("the trigonometric SOS model needs mu")
    return p.mu


def _mu_shift(mu: complex, q: complex, k: int) -> complex:
    """mu * q^(2k), the image of the dynamical shift lam -> lam + k*hbar;
    a value beyond the float range is a parameter error."""
    try:
        val = mu * q ** (2 * k)
    except (OverflowError, ZeroDivisionError):   # q^(2k) itself overflows
        val = complex(math.inf)
    if not cmath.isfinite(val):
        raise InvalidParameter(
            f"mu*q^(2k) overflows at mu = {mu}, q = {q}, k = {k}")
    return val


def sos_rmatrix(ctx: ThetaContext, x: complex, lam: complex,
                hbar: complex) -> RMatrix4:
    """Dynamical elliptic R-matrix: the face weights of the elliptic SOS model

        a    = theta(x + hbar)
        b    = theta(x) theta(lam + hbar) / theta(lam)
        bbar = theta(x) theta(lam - hbar) / theta(lam)
        c    = theta(x + lam) theta(hbar) / theta(lam)
        cbar = theta(x - lam) theta(hbar) / theta(-lam)

    x is the spectral argument (column minus row parameter), lam the
    dynamical parameter of the face the vertex sits against.
    """
    require_off_lattice(ctx, lam, "dynamical parameter lambda")
    tl = theta(ctx, lam)
    tx = theta(ctx, x)
    th = theta(ctx, hbar)
    a = theta(ctx, x + hbar)
    b = tx * theta(ctx, lam + hbar) / tl
    bbar = tx * theta(ctx, lam - hbar) / tl
    c = theta(ctx, x + lam) * th / tl
    cbar = theta(ctx, x - lam) * th / (-tl)  # theta is odd: theta(-lam) = -theta(lam)
    return RMatrix4(a, b, bbar, c, cbar)


def sixv_rmatrix(z: complex, w: complex, q: complex) -> RMatrix4:
    """Six-vertex weight matrix in multiplicative variables.

        a = q z - w / q,  b = z - w  (both diagonals),
        c = (q - 1/q) z,  cbar = (q - 1/q) w.
    """
    cfac = _cfac(q)
    b = z - w
    return RMatrix4(q * z - w / q, b, b, cfac * z, cfac * w)


def trig_sos_rmatrix(z: complex, w: complex, mu: complex,
                     q: complex) -> RMatrix4:
    """Dynamical trigonometric R-matrix (the Im(tau) -> inf limit of the
    elliptic one, in multiplicative variables z, w, mu)."""
    cfac = _cfac(q)
    if abs(mu - 1.0) < _LATTICE_TOL:
        raise DegenerateParameter(
            f"mu = {mu} is within {_LATTICE_TOL:g} of 1 (dynamical denominator "
            f"mu - 1 vanishes)")
    d = z - w
    a = z * q - w / q
    b = d * (mu * q - 1.0 / q) / (mu - 1.0)
    bbar = d * (mu / q - q) / (mu - 1.0)
    c = (z * mu - w) * cfac / (mu - 1.0)
    cbar = (z - w * mu) * cfac / (1.0 - mu)
    return RMatrix4(a, b, bbar, c, cbar)


def trig_nondyn_rmatrix(z: complex, w: complex, q: complex) -> RMatrix4:
    """Non-dynamical trigonometric R-matrix (mu -> inf limit); differs from
    the six-vertex matrix only by the gauge factor q on the b-weights."""
    cfac = _cfac(q)
    d = z - w
    return RMatrix4(q * z - w / q, q * d, d / q, cfac * z, cfac * w)


def gauge_rescale(r: RMatrix4, rho: complex) -> RMatrix4:
    """Rescale b -> rho*b and bbar -> bbar/rho.

    This gauge leaves domain-wall partition functions invariant, because in
    any configuration every internal horizontal edge is counted once as a
    right edge and once as a left edge.
    """
    if rho == 0:
        raise InvalidParameter("gauge factor rho must be nonzero")
    return r._replace(b=r.b * rho, bbar=r.bbar / rho)


# the two sides of the DYBE, each factor left to right as (argument: 0, 1,
# 2 for x12, x13, x23; shifted by the spectator's sign?; its spaces a, b, c)
_DYBE_SIDES = (
    ((0, False, (0, 1, 2)), (1, True, (0, 2, 1)), (2, False, (1, 2, 0))),
    ((2, True, (1, 2, 0)), (1, False, (0, 2, 1)), (0, True, (0, 1, 2))))
# the nine (argument, shift) pairs in the order the sides first need them,
# for the spectator sign +1, then -1: the order the builder is called in
_DYBE_KEYS = tuple(dict.fromkeys((x, k if shifted else 0)
                                 for side in _DYBE_SIDES
                                 for x, shifted, _ in side for k in (1, -1)))


@cache
def _dybe_index() -> np.ndarray:
    """The (6, 8, 8) index of _DYBE_SIDES' six factors into the flattened
    weights of _DYBE_KEYS' matrices and a zero: factor (x, shifted, (a, b,
    c)) acts on spaces (a, b) as matrix (x, s if shifted else 0), s the sign
    on space c (index 0: +1).  Built once per process, on first use."""
    zero = 5 * len(_DYBE_KEYS)
    mats = _layout_index(range(0, zero, 5), zero).reshape(-1, 2, 2, 2, 2)
    out = np.full((6,) + (2,) * 6, zero)    # (out0, out1, out2, in0, in1, in2)
    factors = [f for side in _DYBE_SIDES for f in side]
    for f, (x, shifted, (a, b, c)) in enumerate(factors):
        for sc, s in enumerate((1, -1)):
            g = mats[_DYBE_KEYS.index((x, s if shifted else 0))]
            sl = [f] + [slice(None)] * 6
            sl[1 + c] = sl[4 + c] = sc          # leaves (out, out, in, in) of a, b
            out[tuple(sl)] = g if a < b else g.transpose(1, 0, 3, 2)
    out = out.reshape(6, 8, 8)
    out.flags.writeable = False
    return out


def dybe_residual_from_builder(builder, x12, x13, x23) -> float:
    """Relative max-norm residual of the dynamical Yang-Baxter equation on
    C^2 (x) C^2 (x) C^2 for R(x; k) = builder(x, k), where k in {-1, 0, +1}
    counts dynamical shift steps contributed by the spectator space.

    Both sides are built as dense 8x8 matrices:

        R12(x12; 0) R13(x13; H2) R23(x23; 0)
            = R23(x23; H1) R13(x13; 0) R12(x12; H3)

    with Hk meaning the shift is driven by the sign on space k.  Each of the
    nine (argument, shift) matrices is built once, in the order the two
    products first need them, and one take along _dybe_index() gathers all
    six factors from their weights before the first matmul.
    Returns max|lhs - rhs| / max(1, largest |entry| of either side): at
    small Im(tau) the weights, and so both sides, grow far past 1.
    """
    xs = (x12, x13, x23)
    weights = [w for x, k in _DYBE_KEYS for w in builder(xs[x], k)]
    l1, l2, l3, r1, r2, r3 = np.array(weights + [0j], dtype=complex) \
        .take(_dybe_index())
    lhs = l1 @ l2 @ l3
    rhs = r1 @ r2 @ r3
    scale = max(1.0, np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs)) / scale)


def dybe_residual(ctx: ThetaContext, t1: complex, t2: complex, t3: complex,
                  lam: complex, hbar: complex) -> float:
    """Dynamical Yang-Baxter residual for the elliptic SOS R-matrix at
    spectral points t1, t2, t3 and dynamical parameter lam."""

    def builder(x, k):
        return sos_rmatrix(ctx, x, lam + k * hbar, hbar)

    return dybe_residual_from_builder(builder, t1 - t2, t1 - t3, t2 - t3)


def dybe_residual_trig(z1: complex, z2: complex, z3: complex,
                       mu: complex, q: complex) -> float:
    """Dynamical Yang-Baxter residual for the trigonometric dynamical
    R-matrix; the shift lam -> lam + k*hbar becomes mu -> mu * q^(2k)."""

    def builder(zw, k):
        return trig_sos_rmatrix(zw[0], zw[1], _mu_shift(mu, q, k), q)

    return dybe_residual_from_builder(builder, (z1, z2), (z1, z3), (z2, z3))


def ybe_residual_nondyn(z1: complex, z2: complex, z3: complex,
                        q: complex) -> float:
    """Ordinary Yang-Baxter residual of the non-dynamical trigonometric
    matrix (the dynamical shifts act trivially)."""

    def builder(zw, k):
        return trig_nondyn_rmatrix(zw[0], zw[1], q)

    return dybe_residual_from_builder(builder, (z1, z2), (z1, z3), (z2, z3))
