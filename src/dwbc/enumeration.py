"""Oracle-grade evaluation of domain-wall partition sums.

Two independent routes live here:

* a sum over every ice configuration compatible with domain-wall
  boundary conditions, built column by column and memoized on the
  (column, right-edge signs) state, the signs held as a bit mask, so each
  state is expanded once: at n = 6 it asks its weight source 1,324 times
  and multiplies in 1,989 vertex weights, each read by its weight slot,
  against 184,884 for a depth-first walk of every configuration;
* contraction of a product of column transfer matrices, carrying the
  dynamical shift through spectator spaces, one batched matrix product
  per (column, row) step, with one weight matrix per face offset
  (126 weight-source calls at n = 6).

Both cost exponentially in n and are capped at n <= SIZE_CAP = 6.  The
routes run on one params object and one context share one vertex source
per model, and build each matrix on first use: a `compute --route all`
request builds 40 elliptic matrices at n = 4 (the transfer's 40 (i, j, k)
include the enumeration's 32) and 36 six-vertex ones at n = 6.

Geometry conventions.  Columns i = 1..n are numbered right to left, rows
j = 1..n bottom to top.  The vertex in column i, row j carries edge signs
alpha (top), beta (right), gamma (bottom), delta (left); vertical
neighbours share gamma_{i,j+1} = alpha_{i,j} and horizontal neighbours
share delta_{i,j} = beta_{i+1,j}.  Domain-wall boundaries fix all top
edges to +1, right edges to -1, bottom edges to -1 and left edges to +1.
Face heights enter only through their integer offset k from the corner
height d_nn: the face left of vertex (i, j) and above its row carries
k = (n - i) + sum of delta_{i,l} over l > j, and the vertex weight is
taken at dynamical parameter lam + k*hbar.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial

import numpy as np

from .errors import _check_cap
from .rmatrix import _ADMITTED, _SLOTS, EllipticParams, RMatrix4, \
    TrigParams, _matrices, _mu_shift, _require_mu, sixv_rmatrix, \
    sos_rmatrix, trig_sos_rmatrix
from .theta import ThetaContext

SIZE_CAP = 6
_UNIT = RMatrix4(1, 1, 1, 1, 1)     # every admissible vertex weighs 1
# (alpha, beta) -> ((gamma, delta, weight slot), ...), in _ADMITTED's order
_BRANCHES = {ab: tuple(gd + (_SLOTS[ab + gd],) for gd in gds)
             for ab, gds in _ADMITTED.items()}


def asm_number(n: int) -> int:
    """Number of alternating-sign matrices of order n: prod (3k+1)!/(n+k)!."""
    num = den = 1
    for k in range(n):
        num *= factorial(3 * k + 1)
        den *= factorial(n + k)
    return num // den


def _column_branches(n, i, right, source):
    """All consistent fillings of column i, given its right-edge signs.

    Column states are bit masks: bit j-1 of `right` is set when the sign
    entering vertex (i, j) from the right is +1.  source(i, j, k) is the
    RMatrix4 of vertex (i, j) at face offset k.  Returns a list of
    (column_weight, left_edge_mask).  Rows are filled top-down: each partial
    filling (weight, alpha, k, lefts) reads its vertex's weights once and
    takes every (gamma, delta, slot) that _BRANCHES lists for its
    (alpha, beta), and the bottom edge closes on -1.
    """
    fills = [(1.0 + 0j, 1, n - i, 0)]
    for j in range(n, 0, -1):
        bit = 1 << (j - 1)
        beta = 1 if right & bit else -1
        fills = [(w * r[slot], gamma, k + delta,
                  lefts | bit if delta > 0 else lefts)
                 for w, alpha, k, lefts in fills
                 for r in (source(i, j, k),)
                 for gamma, delta, slot in _BRANCHES[alpha, beta]]
    return [(w, lefts) for w, gamma, _, lefts in fills if gamma == -1]


def _weight_sum(n, source):
    """Sum of weight products over all domain-wall ice configurations.

    from_col(i, right), the summed weight of columns i..n given column i's
    right-edge mask, is memoized on that state for this call only.  Every
    column turns one more edge sign to +1 (sum(delta) = sum(beta) + 2), so
    each path through the n columns ends on the all-plus left boundary."""

    @cache
    def from_col(i, right):
        if i > n:
            return 1.0 + 0j
        return sum(w * from_col(i + 1, lefts)
                   for w, lefts in _column_branches(n, i, right, source))

    return from_col(1, 0)


def count_configurations(n: int) -> int:
    """Number of ice configurations compatible with domain-wall boundaries
    (equals the alternating-sign-matrix number)."""
    _check_cap(n, SIZE_CAP, "enumeration")
    total = _weight_sum(n, lambda *_: _UNIT)
    return int(round(total.real))


@dataclass(frozen=True)
class SignConfig:
    """Edge signs of one ice configuration; arrays are indexed [i-1, j-1]."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray

    @property
    def n(self) -> int:
        return self.alpha.shape[0]

    @classmethod
    def from_states(cls, states):
        """Assemble from the n + 1 column states: states[i - 1] and states[i]
        are the right- and left-edge signs of column i, row j at index j - 1.
        Sign conservation fixes the rest: gamma_j = 1 + sum over l >= j of
        (beta_l - delta_l), and alpha is gamma shifted up one row, +1 on top.
        """
        s = np.array(states, dtype=np.int8)
        beta, delta = s[:-1], s[1:]
        gamma = 1 + np.flip(np.cumsum(np.flip(beta - delta, 1), 1, np.int8), 1)
        alpha = np.roll(gamma, -1, axis=1)
        alpha[:, -1] = 1
        return cls(alpha, beta, gamma, delta)


def dwbc_sign_configs(n: int):
    """Yield every SignConfig compatible with domain-wall boundaries,
    in the deterministic depth-first order of the enumerator."""
    _check_cap(n, SIZE_CAP, "enumeration")

    def paths(i, masks):
        if i > n:
            yield masks
            return
        for _, lefts in _column_branches(n, i, masks[-1], lambda *_: _UNIT):
            yield from paths(i + 1, masks + (lefts,))

    for masks in paths(1, (0,)):
        yield SignConfig.from_states(
            [[1 if m >> j & 1 else -1 for j in range(n)] for m in masks])


@dataclass(frozen=True)
class HeightField:
    """Face heights of an SOS configuration, stored as integer offsets from
    the corner height d_nn; offsets[i, j] belongs to the face with corners
    between columns i, i+1 and rows j, j+1, for i, j = 0..n."""

    offsets: np.ndarray

    @property
    def n(self) -> int:
        return self.offsets.shape[0] - 1

    @classmethod
    def from_signs(cls, cfg: SignConfig) -> "HeightField":
        n = cfg.n
        off = np.zeros((n + 1, n + 1), dtype=np.int64)
        off[n, n] = 0
        for j in range(n, 0, -1):           # leftmost face column via delta
            off[n, j - 1] = off[n, j] + cfg.delta[n - 1, j - 1]
        for i in range(n, 0, -1):           # top face row via alpha
            off[i - 1, n] = off[i, n] + cfg.alpha[i - 1, n - 1]
        for i in range(n, 0, -1):           # interior via beta
            for j in range(n, 0, -1):
                off[i - 1, j - 1] = off[i - 1, j] + cfg.beta[i - 1, j - 1]
        return cls(off)

    def heights(self, lam: complex, hbar: complex) -> np.ndarray:
        """Complex heights d with hbar*d_nn = lam."""
        return lam / hbar + self.offsets.astype(complex)

    def step_violations(self) -> int:
        """Count adjacent face pairs whose height difference is not +-1."""
        d = self.offsets
        bad = np.sum(np.abs(np.diff(d, axis=0)) != 1)
        bad += np.sum(np.abs(np.diff(d, axis=1)) != 1)
        return int(bad)


def _source(p, rmatrix_fn, standard, build, ctx=None):
    """The vertex source build(rmatrix_fn) if a custom builder is given.
    Otherwise build(standard), which every route run on params p and
    context ctx shares: p._sources keeps one per standard builder (a
    function, so keyed by identity) and rebuilds it when asked for another
    context, which it tells apart by identity, never by equality; so p keeps
    at most one context alive.  A build that raises is not recorded, and a
    source closes over p's fields, never over p."""
    if rmatrix_fn:
        return build(rmatrix_fn)
    hit = p._sources.get(standard)
    if hit is None or hit[0] is not ctx:
        hit = p._sources[standard] = ctx, build(standard)
    return hit[1]


def _sos_source(ctx, p, rmatrix_fn):
    """Elliptic SOS weights: vertex (i, j) at face offset k sees the
    dynamical parameter lam + k*hbar.  Each matrix is built on first use,
    so the first route to ask evaluates theta in its own order."""
    u, v, lam, hbar = p.u, p.v, p.lam, p.hbar
    return _source(p, rmatrix_fn, sos_rmatrix, lambda make: cache(
        lambda i, j, k: make(ctx, u[i - 1] - v[j - 1], lam + k * hbar,
                             hbar)), ctx)


def _sixv_source(p, rmatrix_fn):
    """Six-vertex weights carry no dynamical parameter, so one matrix per
    vertex serves every face offset."""
    def build(make):
        table = [[make(z, w, p.q) for w in p.w] for z in p.z]
        return lambda i, j, k: table[i - 1][j - 1]
    return _source(p, rmatrix_fn, sixv_rmatrix, build)


def _trig_source(p):
    """Trigonometric SOS weights: face offset k acts multiplicatively,
    mu -> mu * q^(2k); TrigParams.validate keeps 1 - mu q^(2k) off zero
    for every offset |k| <= 2n the routes reach."""
    mu, z, w, q = _require_mu(p), p.z, p.w, p.q
    return _source(p, None, trig_sos_rmatrix, lambda make: cache(
        lambda i, j, k: make(z[i - 1], w[j - 1], _mu_shift(mu, q, k), q)))


def enumerate_6v(p: TrigParams, rmatrix_fn=None) -> complex:
    """Six-vertex domain-wall partition function by the memoized column sum
    over ice configurations (see the module docstring).

    rmatrix_fn(z, w, q) -> RMatrix4 may replace the standard weights (e.g.
    a gauge-transformed matrix); the default is sixv_rmatrix.
    """
    p.validate()
    _check_cap(p.n, SIZE_CAP, "enumeration")
    return _weight_sum(p.n, _sixv_source(p, rmatrix_fn))


def enumerate_sos(ctx: ThetaContext, p: EllipticParams,
                  rmatrix_fn=None) -> complex:
    """Elliptic SOS domain-wall partition function by the memoized column sum
    over ice configurations (see the module docstring).

    Heights appear only through the offset k of each face, so weights are
    cached per (column, row, k).  rmatrix_fn(ctx, x, lam, hbar) -> RMatrix4
    may replace sos_rmatrix.
    """
    p.validate(ctx)
    _check_cap(p.n, SIZE_CAP, "enumeration")
    return _weight_sum(p.n, _sos_source(ctx, p, rmatrix_fn))


def enumerate_trig_sos(p: TrigParams) -> complex:
    """Trigonometric dynamical SOS partition function by enumeration; the
    face offset k acts multiplicatively, mu -> mu * q^(2k)."""
    p.validate()
    _check_cap(p.n, SIZE_CAP, "enumeration")
    return _weight_sum(p.n, _trig_source(p))


def _transfer_contract(n: int, rfn) -> complex:
    """Contract n column transfer matrices between the all-plus (top) and
    all-minus (bottom) boundary states.

    Column i contributes an operator built from n R-matrix factors sharing
    one auxiliary space; rfn(i, j, k) supplies the 4x4 vertex matrix with
    face offset k, where k counts base offset (n - i) plus the signs still
    held on the rows above j.  The auxiliary line enters at the bottom with
    sign -1 and must exit at the top with +1.
    """
    # Quantum state vector over spaces (n, n-1, ..., 1); index 0 means +1.
    vec = np.zeros((2,) * n, dtype=complex)
    vec[(0,) * n] = 1.0
    # minus[p]: the -1 signs in spectator sign pattern p, its set bits
    minus = np.array([bin(p).count("1") for p in range(2 ** (n - 1))])
    for i in range(n, 0, -1):
        w = np.zeros((2,) + vec.shape, dtype=complex)
        w[1] = vec                              # auxiliary enters with sign -1
        base_k = n - i
        for j in range(1, n + 1):
            s = n - j                           # spaces l > j, still in input state
            # one vertex matrix per face offset, gathered for each sign pattern
            g = _matrices([rfn(i, j, base_k + s - 2 * c)
                           for c in range(s + 1)])[minus[:2 ** s]]
            ws = w.reshape(2, 2 ** s, 2, -1).swapaxes(0, 1)  # pattern first
            w = (g @ ws.reshape(2 ** s, 4, -1)).reshape(ws.shape) \
                .swapaxes(0, 1).reshape(w.shape)
        vec = w[0]                              # auxiliary exits with sign +1
    # A complex matmul can return with the upper halves of the AVX-512
    # registers dirty (seen with OpenBLAS 0.3.31's SkylakeX kernels); every
    # later libm call, theta's cmath.exp included, then ran 7-15x slower
    # until some AVX routine cleared them.  numpy's elementwise loops do.
    np.abs(vec.reshape(-1)[-1:])
    return complex(vec[(1,) * n])


def column_transfer_z(ctx: ThetaContext, p: EllipticParams) -> complex:
    """Elliptic SOS partition function as a product of column transfer
    matrices; the dynamical argument of vertex (i, j) is lam + k*hbar with
    the face offset k tracked through the contraction."""
    p.validate(ctx)
    _check_cap(p.n, SIZE_CAP, "transfer-matrix")
    return _transfer_contract(p.n, _sos_source(ctx, p, None))


def column_transfer_6v(p: TrigParams) -> complex:
    """Six-vertex partition function by the same column contraction; the
    weights carry no dynamical parameter, so the face offset is ignored."""
    p.validate()
    _check_cap(p.n, SIZE_CAP, "transfer-matrix")
    return _transfer_contract(p.n, _sixv_source(p, None))


def column_transfer_trig(p: TrigParams) -> complex:
    """Dynamical trigonometric partition function by column contraction;
    face offset k multiplies the dynamical parameter by q^(2k)."""
    p.validate()
    _check_cap(p.n, SIZE_CAP, "transfer-matrix")
    return _transfer_contract(p.n, _trig_source(p))
