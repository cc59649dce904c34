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

Neither route works out its combinatorics per request.  The vertices
some configuration uses have a closed form (`_vertices`); the descent's
kept fillings (`_descent_plan`) and the contraction's layout
(`_transfer_plan`) each read only that list, hold no weights, and are built
once per size and process, on first use.  A request only builds its table
and multiplies weights along the plan of its route.

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
def _vertices(n):
    """The (i, j, k) some domain-wall configuration uses, in (i, j, k)
    order: 26 at n = 4, 71 at n = 6.  The face offset beside vertex (i, j)
    lies between those of the two extreme height functions, |i - j| and
    min(i + j, 2n - i - j), and takes every value of the parity of i + j
    in between.  Built once per n and process, on first use."""
    return tuple((i, j, k) for i in range(1, n + 1) for j in range(1, n + 1)
                 for k in range(abs(i - j), min(i + j, 2 * n - i - j) + 1, 2))


@cache
def _descent_plan(n):
    """The column descent's weight-free plan at size n: one (ops, closes)
    per column state (i, right) on some configuration, each state after the
    states it closes onto, so the first state is a column n one and the
    last is (1, 0).  right is a bit mask: bit j-1 is set when the sign
    entering vertex (i, j) from the right is +1.  Rows are filled top-down:
    each partial filling (alpha, k, lefts) takes every (gamma, delta, slot)
    that _BRANCHES lists for its (alpha, beta).  Only the fillings that
    close on a bottom -1, or are the parent of a kept one, are kept (every
    close completes: a column can add any one plus sign).  Filling 0 is the
    empty one and op f - 1 makes filling f: (parent, 5 * v + slot), the
    index of table[v][slot] in the flattened table of _vertices(n).  A close
    is (filling, 1 + the position of the state it closes onto), or
    (filling, 0) past column n.  Built once per n and process, on first
    use."""
    index = {v: x for x, v in enumerate(_vertices(n))}
    # past column n every edge sign is +1: the state at position -1
    states, position = [], {(n + 1, 2 ** n - 1): -1}

    def visit(i, right):
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
        closes = [(f, lefts) for f, gamma, _, lefts in fills if gamma == -1]
        keep = {f for f, _ in closes}
        for f in range(len(ops), 0, -1):    # a parent precedes its fillings
            if f in keep:
                keep.add(ops[f - 1][0])
        new, kept = [0] * (len(ops) + 1), []
        for f, (p, j, k, slot) in enumerate(ops, 1):
            if f in keep:
                kept.append((new[p], 5 * index[i, j, k] + slot))
                new[f] = len(kept)
        for _, lefts in closes:
            if (i + 1, lefts) not in position:
                visit(i + 1, lefts)
        position[i, right] = len(states)
        states.append((tuple(kept), tuple((new[f], 1 + position[i + 1, lefts])
                                          for f, lefts in closes)))

    visit(1, 0)
    return tuple(states)


def _weight_sum(n, table):
    """Sum of weight products over all domain-wall ice configurations.

    values[s] is the summed weight of the columns from state s - 1 of
    _descent_plan(n) leftwards (values[0] = 1 past column n), filled in the
    plan's order, so each state's closes find their values made.  A state
    weighs each filling as its parent's weight times F[5 * v + slot], F
    being the flattened table of _vertices(n)'s weights.  Every column
    turns one more edge sign to +1 (sum(delta) = sum(beta) + 2), so each
    path through the n columns ends on the all-plus left boundary."""
    F = [w for r in table for w in r]
    values = [1.0 + 0j]
    for ops, closes in _descent_plan(n):
        ws = [1.0 + 0j]
        grow = ws.append
        for p, x in ops:
            grow(ws[p] * F[x])
        values.append(sum(ws[f] * values[s] for f, s in closes))
    return values[-1]


def count_configurations(n: int) -> int:
    """Number of ice configurations compatible with domain-wall boundaries
    (equals the alternating-sign-matrix number)."""
    _check_cap(n, SIZE_CAP, "enumeration")
    total = _weight_sum(n, [_UNIT] * len(_vertices(n)))
    return int(round(total.real))


def _source(p, route, weights, ctx=None, rmatrix_fn=None):
    """Check p's lattice rules on ctx (the elliptic model; a TrigParams was
    checked when it was built) and n against the route's cap, then return
    the weight table of _vertices(p.n), in that order:
    weights(p, ctx, make)(i, j, k) builds each with make, or with the
    model's standard builder if None.

    The one shared-source rule: a custom rmatrix_fn gets a table of its
    own, neither read nor recorded.  Every route run on p and ctx shares the
    standard table, kept in p's one slot (ctx, weights, table) and
    matched by identity, never by equality (objects equal up to +-0 must
    not share); another context or model replaces it, so p keeps at most
    one context alive.  A build that raises is not recorded.  The table is
    built in _vertices' order, whichever route asks first."""
    if ctx is not None:
        p.validate(ctx)
    _check_cap(p.n, SIZE_CAP, route)
    vertices = _vertices(p.n)
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
    _vertices(n)'s matrices and one zero matrix after them.  A vertex
    outside that list gets the zero matrix: no configuration uses it, so the
    amplitude it would act on is exactly zero.  It reads no descent plan.
    Built once per n and process, on first use.
    """
    index = {v: x for x, v in enumerate(_vertices(n))}
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
    one auxiliary space; table holds the vertex matrices of _vertices(n),
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
