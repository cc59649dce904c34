"""Oracle-grade evaluation of domain-wall partition sums.

Two independent routes live here:

* a sum over every ice configuration compatible with domain-wall
  boundary conditions, built column by column and memoized on the
  (column, right-edge signs) state, the signs held as a bit mask, so each
  state is expanded once: at n = 6 it multiplies in 1,989 vertex weights,
  each asked of its weight source and read by its weight slot, against
  184,884 for a depth-first walk of every configuration;
* contraction of a product of column transfer matrices, carrying the
  dynamical shift through spectator spaces, one batched matrix product
  per (column, row) step, with one weight matrix per face offset
  (126 weight-source calls at n = 6).

Neither route works out its combinatorics per request: the fillings of
each column state (`_column_plan`) and the contraction's layout
(`_transfer_plan`) hold no weights, so each is built once per size and
process, on first use, and a request only multiplies weights along them.

Both cost exponentially in n and are capped at n <= SIZE_CAP = 6.  Every
route reaches its vertex weights through `_source`, whose docstring states
when routes share them: a `compute --route all` request builds 40 elliptic
matrices at n = 4 (the transfer's 40 (i, j, k) include the enumeration's
32) and 36 six-vertex ones at n = 6.

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


@cache
def _column_plan(n, i, right):
    """The weight-free fillings of column i, given its right-edge signs.

    Column states are bit masks: bit j-1 of `right` is set when the sign
    entering vertex (i, j) from the right is +1.  Rows are filled top-down:
    each partial filling (alpha, k, lefts) takes every (gamma, delta, slot)
    that _BRANCHES lists for its (alpha, beta).  Returns (ops, closes).
    Filling 0 is the empty one; ops holds, in the order the fillings are
    made, one op (parent filling, row j, face offset k, weight slot) per
    filling, which is filling 1 + its position.  closes holds (filling,
    left mask) for the fillings whose bottom edge closes on -1.  Built once
    per (n, i, right) and process, on first use.
    """
    fills, ops = [(0, 1, n - i, 0)], []
    for j in range(n, 0, -1):
        bit = 1 << (j - 1)
        beta = 1 if right & bit else -1
        made = []
        for p, alpha, k, lefts in fills:
            for gamma, delta, slot in _BRANCHES[alpha, beta]:
                ops.append((p, j, k, slot))
                made.append((len(ops), gamma, k + delta,
                             lefts | bit if delta > 0 else lefts))
        fills = made
    return tuple(ops), tuple((f, lefts) for f, gamma, _, lefts in fills
                             if gamma == -1)


def _weight_sum(n, source):
    """Sum of weight products over all domain-wall ice configurations.

    from_col(i, right), the summed weight of columns i..n given column i's
    right-edge mask, is memoized on that state for this call only.  It
    walks _column_plan(n, i, right), weighing each filling as its parent's
    weight times source(i, j, k)[slot]; source(i, j, k) is the RMatrix4 of
    vertex (i, j) at face offset k.  Every column turns one more edge sign
    to +1 (sum(delta) = sum(beta) + 2), so each path through the n columns
    ends on the all-plus left boundary."""

    @cache
    def from_col(i, right):
        if i > n:
            return 1.0 + 0j
        ops, closes = _column_plan(n, i, right)
        ws = [1.0 + 0j]
        grow = ws.append
        for p, j, k, slot in ops:
            grow(ws[p] * source(i, j, k)[slot])
        return sum(ws[f] * from_col(i + 1, lefts) for f, lefts in closes)

    return from_col(1, 0)


def count_configurations(n: int) -> int:
    """Number of ice configurations compatible with domain-wall boundaries
    (equals the alternating-sign-matrix number)."""
    _check_cap(n, SIZE_CAP, "enumeration")
    total = _weight_sum(n, lambda *_: _UNIT)
    return int(round(total.real))


def _source(p, route, weights, ctx=None, rmatrix_fn=None):
    """Check p (on ctx, for the elliptic model) and n against the route's
    cap, then return the vertex source weights(p, ctx, make), which builds
    each vertex with make, or with the model's standard builder if None.

    The one shared-source rule: a custom rmatrix_fn gets a source of its
    own, neither read nor recorded.  Every route run on p and ctx shares the
    standard source, kept in p's one slot (ctx, weights, source) and
    matched by identity, never by equality (objects equal up to +-0 must
    not share); another context or model replaces it, so p keeps at most
    one context alive.  A build that raises is not recorded.  A source
    builds each matrix on first use, so the first route to ask evaluates
    theta in its own order, and closes over p's fields, never over p."""
    if ctx is None:
        p.validate()
    else:
        p.validate(ctx)
    _check_cap(p.n, SIZE_CAP, route)
    if rmatrix_fn:
        return weights(p, ctx, rmatrix_fn)
    slot = p._source
    if slot is None or slot[0] is not ctx or slot[1] is not weights:
        slot = ctx, weights, weights(p, ctx, None)
        object.__setattr__(p, "_source", slot)
    return slot[2]


def _sos(p, ctx, make):
    """Elliptic SOS weights: vertex (i, j) at face offset k sees the
    dynamical parameter lam + k*hbar."""
    make, u, v, lam, hbar = make or sos_rmatrix, p.u, p.v, p.lam, p.hbar
    return cache(lambda i, j, k: make(ctx, u[i - 1] - v[j - 1],
                                      lam + k * hbar, hbar))


def _sixv(p, ctx, make):
    """Six-vertex weights carry no dynamical parameter, so one matrix per
    vertex serves every face offset."""
    make = make or sixv_rmatrix
    table = [[make(z, w, p.q) for w in p.w] for z in p.z]
    return lambda i, j, k: table[i - 1][j - 1]


def _trig(p, ctx, make):
    """Trigonometric SOS weights: face offset k acts multiplicatively,
    mu -> mu * q^(2k); TrigParams.validate keeps 1 - mu q^(2k) off zero
    for every offset |k| <= 2n the routes reach."""
    mu, z, w, q = _require_mu(p), p.z, p.w, p.q
    make = make or trig_sos_rmatrix
    return cache(lambda i, j, k: make(z[i - 1], w[j - 1],
                                      _mu_shift(mu, q, k), q))


def enumerate_6v(p: TrigParams, rmatrix_fn=None) -> complex:
    """Six-vertex domain-wall partition function by the memoized column sum
    over ice configurations (see the module docstring).

    rmatrix_fn(z, w, q) -> RMatrix4 may replace the standard weights (e.g.
    a gauge-transformed matrix); the default is sixv_rmatrix.
    """
    return _weight_sum(p.n, _source(p, "enumeration", _sixv, None, rmatrix_fn))


def enumerate_sos(ctx: ThetaContext, p: EllipticParams,
                  rmatrix_fn=None) -> complex:
    """Elliptic SOS domain-wall partition function by the memoized column sum
    over ice configurations (see the module docstring).

    Heights appear only through the offset k of each face, so weights are
    cached per (column, row, k).  rmatrix_fn(ctx, x, lam, hbar) -> RMatrix4
    may replace sos_rmatrix.
    """
    return _weight_sum(p.n, _source(p, "enumeration", _sos, ctx, rmatrix_fn))


def enumerate_trig_sos(p: TrigParams) -> complex:
    """Trigonometric dynamical SOS partition function by enumeration; the
    face offset k acts multiplicatively, mu -> mu * q^(2k)."""
    return _weight_sum(p.n, _source(p, "enumeration", _trig))


@cache
def _transfer_plan(n):
    """_transfer_contract's weight-free layout at size n: (asks, rows).

    asks lists, in row-major (j, c) order, the (row j, face offset
    s - 2c relative to the column's base n - i) of the s + 1 = n - j + 1
    matrices each column's row j needs.  rows holds, per row j from 1 to
    n, (s, take): take[p] indexes into the column's stack of asks the
    matrix of spectator sign pattern p, whose set bits are its -1 signs.
    Built once per n and process, on first use.
    """
    # minus[p]: the -1 signs in spectator sign pattern p, its set bits
    minus = np.array([bin(p).count("1") for p in range(2 ** (n - 1))])
    asks, rows = [], []
    for j in range(1, n + 1):
        s = n - j                               # spaces l > j, still in input state
        take = len(asks) + minus[:2 ** s]
        take.flags.writeable = False
        rows.append((s, take))
        asks += [(j, s - 2 * c) for c in range(s + 1)]
    return tuple(asks), tuple(rows)


def _transfer_contract(n: int, rfn) -> complex:
    """Contract n column transfer matrices between the all-plus (top) and
    all-minus (bottom) boundary states.

    Column i contributes an operator built from n R-matrix factors sharing
    one auxiliary space; rfn(i, j, k) supplies the 4x4 vertex matrix with
    face offset k, where k counts base offset (n - i) plus the signs still
    held on the rows above j.  Each column asks for its n(n+1)/2 matrices
    at once, in _transfer_plan(n)'s order, one per (row, face offset), and
    each (column, row) step gathers one per sign pattern from that stack.
    The auxiliary line enters at the bottom with sign -1 and must exit at
    the top with +1.

    Within a column the state is held pattern first, as a (2^s, 4, rest)
    array before the step at row j: the spectator signs (spaces n..j+1),
    then the pair (auxiliary, space j) that the vertex matrix acts on, then
    spaces j-1..1.  Between steps one transposed copy moves space j+1 out of
    the pattern and into the pair, and space j into the rest.
    """
    # Quantum state vector over spaces (n, n-1, ..., 1); index 0 means +1.
    vec = np.zeros(2 ** n, dtype=complex)
    vec[0] = 1.0
    asks, rows = _transfer_plan(n)
    for i in range(n, 0, -1):
        base_k = n - i
        stack = _matrices([rfn(i, j, base_k + dk) for j, dk in asks])
        x = np.zeros((2 ** (n - 1), 4, 1), dtype=complex)
        x[:, 2:, 0] = vec.reshape(-1, 2)        # auxiliary enters with sign -1
        for s, take in rows:
            x = stack[take] @ x
            if s:
                x = x.reshape(2 ** (s - 1), 2, 2, 2, -1).swapaxes(1, 2) \
                    .reshape(2 ** (s - 1), 4, -1)
        vec = x[0, :2].reshape(-1)              # auxiliary exits with sign +1
    # A complex matmul can return with the upper halves of the AVX-512
    # registers dirty (seen with OpenBLAS 0.3.31's SkylakeX kernels); every
    # later libm call, theta's cmath.exp included, then ran 7-15x slower
    # until some AVX routine cleared them.  numpy's elementwise loops do.
    np.abs(vec[-1:])
    return complex(vec[-1])


def column_transfer_z(ctx: ThetaContext, p: EllipticParams) -> complex:
    """Elliptic SOS partition function as a product of column transfer
    matrices; the dynamical argument of vertex (i, j) is lam + k*hbar with
    the face offset k tracked through the contraction."""
    return _transfer_contract(p.n, _source(p, "transfer-matrix", _sos, ctx))


def column_transfer_6v(p: TrigParams) -> complex:
    """Six-vertex partition function by the same column contraction; the
    weights carry no dynamical parameter, so the face offset is ignored."""
    return _transfer_contract(p.n, _source(p, "transfer-matrix", _sixv))


def column_transfer_trig(p: TrigParams) -> complex:
    """Dynamical trigonometric partition function by column contraction;
    face offset k multiplies the dynamical parameter by q^(2k)."""
    return _transfer_contract(p.n, _source(p, "transfer-matrix", _trig))
