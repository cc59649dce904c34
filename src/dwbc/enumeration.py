"""Oracle-grade evaluation of domain-wall partition sums.

Two independent routes live here:

* a sum over every ice configuration compatible with domain-wall
  boundary conditions, built column by column and memoized on the
  (column, right-edge signs) state, the signs held as a bit mask, so each
  state is expanded once: at n = 6 it multiplies in 1,446 vertex weights,
  read by index from the request's weight table, against 184,884 for a
  depth-first walk of every configuration;
* contraction of a product of column transfer matrices, carrying the
  dynamical shift through spectator spaces, one batched matrix product
  per (column, row) step, gathered from one stack of the table's matrices.

Neither route works out its combinatorics per request: the vertices that
some configuration uses and the fillings that reach one (`_vertex_plan`)
and the contraction's layout (`_transfer_plan`) hold no weights, so each
is built once per size and process, on first use, and a request only
builds its table and multiplies weights along them.

Both cost exponentially in n and are capped at n <= SIZE_CAP = 6.  Every
route reads the weight table of `_source`, whose docstring states when
routes share it: a `compute --route all` request builds 26 elliptic
matrices at n = 4, one per (i, j, k) a configuration uses, and 36
six-vertex ones at n = 6.

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
from itertools import starmap
from math import factorial

import numpy as np

from .errors import _check_cap
from .rmatrix import _BRANCHES, EllipticParams, RMatrix4, TrigParams, \
    _matrices, _mu_shift, _require_mu, sixv_rmatrix, sos_rmatrix, \
    trig_sos_rmatrix
from .theta import ThetaContext

SIZE_CAP = 6
_UNIT = RMatrix4(1, 1, 1, 1, 1)     # every admissible vertex weighs 1
_ZERO = RMatrix4(0j, 0j, 0j, 0j, 0j)   # the transfer's unused vertices


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


@cache
def _vertex_plan(n):
    """The weight-free plan both configuration routes read at size n:
    (vertices, states).  vertices lists the (i, j, k) some domain-wall
    configuration uses (26 at n = 4, 71 at n = 6) in the order the column
    descent first reads them; a request's table holds their weights in that
    order.  states maps each column state (i, right) on some configuration
    to _column_plan's (ops, closes), kept to the fillings that close or are
    the parent of a kept one (every close completes: a column can add any
    one plus sign) and renumbered; an op is (parent, 5 * v + slot), the
    index of table[v][slot] in the flattened table.  Built once per n and
    process, on first use.
    """
    vertices, states = {}, {}

    def visit(i, right):
        ops, closes = _column_plan(n, i, right)
        keep = {f for f, _ in closes}
        for f in range(len(ops), 0, -1):    # a parent precedes its fillings
            if f in keep:
                keep.add(ops[f - 1][0])
        new, kept = [0] * (len(ops) + 1), []
        for f, (p, j, k, slot) in enumerate(ops, 1):
            if f in keep:
                v = vertices.setdefault((i, j, k), len(vertices))
                kept.append((new[p], 5 * v + slot))
                new[f] = len(kept)
        states[i, right] = tuple(kept), tuple((new[f], lefts)
                                              for f, lefts in closes)
        for _, lefts in closes:
            if i < n and (i + 1, lefts) not in states:
                visit(i + 1, lefts)

    visit(1, 0)
    return tuple(vertices), states


def _weight_sum(n, table):
    """Sum of weight products over all domain-wall ice configurations.

    from_col(i, right), the summed weight of columns i..n given column i's
    right-edge mask, is memoized on that state for this call only.  It
    walks _vertex_plan(n)'s fillings of that state, weighing each as its
    parent's weight times F[5 * v + slot], F being the flattened table of
    the plan's vertex weights.  Every column turns one more edge sign to +1
    (sum(delta) = sum(beta) + 2), so each path through the n columns ends
    on the all-plus left boundary."""
    F = [w for r in table for w in r]
    states = _vertex_plan(n)[1]

    @cache
    def from_col(i, right):
        if i > n:
            return 1.0 + 0j
        ops, closes = states[i, right]
        ws = [1.0 + 0j]
        grow = ws.append
        for p, x in ops:
            grow(ws[p] * F[x])
        return sum(ws[f] * from_col(i + 1, lefts) for f, lefts in closes)

    return from_col(1, 0)


def count_configurations(n: int) -> int:
    """Number of ice configurations compatible with domain-wall boundaries
    (equals the alternating-sign-matrix number)."""
    _check_cap(n, SIZE_CAP, "enumeration")
    total = _weight_sum(n, [_UNIT] * len(_vertex_plan(n)[0]))
    return int(round(total.real))


def _source(p, route, weights, ctx=None, rmatrix_fn=None):
    """Check p's lattice rules on ctx (the elliptic model; a TrigParams was
    checked when it was built) and n against the route's cap, then return
    the weight table of _vertex_plan(p.n)'s vertices, in the plan's order:
    weights(p, ctx, make)(i, j, k) builds each with make, or with the
    model's standard builder if None.

    The one shared-source rule: a custom rmatrix_fn gets a table of its
    own, neither read nor recorded.  Every route run on p and ctx shares the
    standard table, kept in p's one slot (ctx, weights, table) and
    matched by identity, never by equality (objects equal up to +-0 must
    not share); another context or model replaces it, so p keeps at most
    one context alive.  A build that raises is not recorded.  The table is
    built in the plan's order, whichever route asks first."""
    if ctx is not None:
        p.validate(ctx)
    _check_cap(p.n, SIZE_CAP, route)
    vertices = _vertex_plan(p.n)[0]
    if rmatrix_fn:
        return list(starmap(weights(p, ctx, rmatrix_fn), vertices))
    slot = p._source
    if slot is None or slot[0] is not ctx or slot[1] is not weights:
        slot = ctx, weights, list(starmap(weights(p, ctx, None), vertices))
        object.__setattr__(p, "_source", slot)
    return slot[2]


def _sos(p, ctx, make):
    """Elliptic SOS weights: vertex (i, j) at face offset k sees the
    dynamical parameter lam + k*hbar."""
    make, u, v, lam, hbar = make or sos_rmatrix, p.u, p.v, p.lam, p.hbar
    return lambda i, j, k: make(ctx, u[i - 1] - v[j - 1], lam + k * hbar,
                                hbar)


def _sixv(p, ctx, make):
    """Six-vertex weights carry no dynamical parameter, so one matrix per
    vertex serves every face offset."""
    make = make or sixv_rmatrix
    table = [[make(z, w, p.q) for w in p.w] for z in p.z]
    return lambda i, j, k: table[i - 1][j - 1]


def _trig(p, ctx, make):
    """Trigonometric SOS weights: face offset k acts multiplicatively,
    mu -> mu * q^(2k); TrigParams keeps 1 - mu q^(2k) off zero for every
    offset |k| <= 2n the routes reach."""
    mu, z, w, q = _require_mu(p), p.z, p.w, p.q
    make = make or trig_sos_rmatrix
    return lambda i, j, k: make(z[i - 1], w[j - 1], _mu_shift(mu, q, k), q)


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
    built once per (column, row, k).  rmatrix_fn(ctx, x, lam, hbar) ->
    RMatrix4 may replace sos_rmatrix.
    """
    return _weight_sum(p.n, _source(p, "enumeration", _sos, ctx, rmatrix_fn))


def enumerate_trig_sos(p: TrigParams) -> complex:
    """Trigonometric dynamical SOS partition function by enumeration; the
    face offset k acts multiplicatively, mu -> mu * q^(2k)."""
    return _weight_sum(p.n, _source(p, "enumeration", _trig))


@cache
def _transfer_plan(n):
    """_transfer_contract's weight-free layout at size n: per column i from
    n down to 1, per row j from 1 to n, (s, take).  s = n - j spaces l > j
    are still in their input state, and take[p] indexes the matrix of
    spectator sign pattern p (set bits: its -1 signs) in the stack of
    _vertex_plan(n)'s vertices and one zero matrix after them.  A vertex
    outside the plan gets the zero matrix: no configuration uses it, so the
    amplitude it would act on is exactly zero.  Built once per n and
    process, on first use.
    """
    index = {v: x for x, v in enumerate(_vertex_plan(n)[0])}
    minus = [bin(p).count("1") for p in range(2 ** (n - 1))]

    def take(i, j, s):          # pattern p's face offset: n - i + s - 2 m
        x = np.array([index.get((i, j, n - i + s - 2 * m), len(index))
                      for m in minus[:2 ** s]])
        x.flags.writeable = False
        return s, x

    return tuple(tuple(take(i, j, n - j) for j in range(1, n + 1))
                 for i in range(n, 0, -1))


def _transfer_contract(n: int, table) -> complex:
    """Contract n column transfer matrices between the all-plus (top) and
    all-minus (bottom) boundary states.

    Column i contributes an operator built from n R-matrix factors sharing
    one auxiliary space; table holds the vertex matrices of _vertex_plan(n),
    (i, j) at face offset k = (n - i) + the signs still held on the rows
    above j.  The table is stacked once, with a zero matrix after it, and
    each (column, row) step gathers one matrix per sign pattern from that
    stack along _transfer_plan(n).  The auxiliary line enters at the bottom
    with sign -1 and must exit at the top with +1.

    Within a column the state is held pattern first, as a (2^s, 4, rest)
    array before the step at row j: the spectator signs (spaces n..j+1),
    then the pair (auxiliary, space j) that the vertex matrix acts on, then
    spaces j-1..1.  Between steps one transposed copy moves space j+1 out of
    the pattern and into the pair, and space j into the rest.
    """
    # Quantum state vector over spaces (n, n-1, ..., 1); index 0 means +1.
    vec = np.zeros(2 ** n, dtype=complex)
    vec[0] = 1.0
    stack = _matrices([*table, _ZERO])
    for column in _transfer_plan(n):
        x = np.zeros((2 ** (n - 1), 4, 1), dtype=complex)
        x[:, 2:, 0] = vec.reshape(-1, 2)        # auxiliary enters with sign -1
        for s, take in column:
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
