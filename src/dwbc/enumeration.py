"""Oracle-grade evaluation of domain-wall partition sums.

Two independent routes live here:

* a sum over every ice configuration compatible with domain-wall
  boundary conditions, by a forward DP over vertex states (boundary signs
  as a bit mask, vertical sign), one vertex at a time: at n = 6 it
  multiplies in 780 vertex weights, read by index from the request's
  weight table, against 184,884 for a depth-first walk of every
  configuration;
* contraction of a product of column transfer matrices, carrying the
  dynamical shift through spectator spaces, one batched matrix product
  per (column, row) step, each a slice of one stack gathered from the
  table at once.

Neither route works out its combinatorics per request.  The vertices
some configuration uses have a closed form (`_vertices`); the DP's kept
ops (`_vertex_plan`) and the contraction's layout (`_transfer_plan`) each
read only that list, hold no weights, and are built once per size and
process, on first use.  A request only builds its table and multiplies
weights along the plan of its route.

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
    _layout_index, _mu_shift, _require_mu, sixv_rmatrix, sos_rmatrix, \
    trig_sos_rmatrix
from .theta import ThetaContext

SIZE_CAP = 6
_UNIT = RMatrix4(1, 1, 1, 1, 1)     # every admissible vertex weighs 1


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
def _vertex_plan(n):
    """The vertex DP's weight-free plan at size n: one (size, ops) layer per
    vertex (i, j), columns 1..n, rows n..1.  A state (mask, alpha) holds
    row j's edge sign at the column boundary on bit j-1 (set: +1) and the
    sign entering the next vertex from above.  Vertex (i, j), at face
    offset k = j - i + 2 * (plus signs above row j), takes each (gamma,
    delta, slot) of _BRANCHES[alpha, beta], at row 1 only gamma = -1, and
    op (s, d, 5 * v + slot) adds state s's amplitude times table[v][slot]
    into state d; a vertex outside _vertices(n) is skipped.  A backward pass
    drops every op that cannot reach the all-plus boundary, the last
    layer's one state.  Built once per n and process, on first use."""
    offset = {v: 5 * x for x, v in enumerate(_vertices(n))}
    layers, states = [], {(0, 1): 0}
    for i in range(1, n + 1):
        for j in range(n, 0, -1):
            bit, made, ops = 1 << (j - 1), {}, []
            for (mask, alpha), s in states.items():
                x = offset.get((i, j, j - i + 2 * (mask >> j).bit_count()))
                beta = 1 if mask & bit else -1
                for gamma, delta, slot in _BRANCHES[alpha, beta]:
                    if x is not None and (j > 1 or gamma < 0):
                        key = (mask | bit if delta > 0 else mask & ~bit,
                               gamma if j > 1 else 1)
                        d = made.setdefault(key, len(made))
                        ops.append((s, d, x + slot))
            layers.append(ops)
            states = made
    live = {states[2 ** n - 1, 1]}
    plan = []
    for ops in reversed(layers):
        ops = [op for op in ops if op[1] in live]
        new = {d: x for x, d in enumerate(sorted(live))}
        live = {s for s, _, _ in ops}
        old = {s: x for x, s in enumerate(sorted(live))}
        plan.append((len(new), tuple((old[s], new[d], x) for s, d, x in ops)))
    return tuple(reversed(plan))


def _weight_sum(n, table):
    """Sum of weight products over all domain-wall ice configurations:
    amp[s] sums the partial configurations ending in state s of a layer of
    _vertex_plan(n), each op adding its source's amplitude times
    F[5 * v + slot], F the flattened table of _vertices(n)'s weights."""
    F = [w for r in table for w in r]
    amp = [1.0 + 0j]
    for size, ops in _vertex_plan(n):
        new = [0j] * size
        for s, d, x in ops:
            new[d] += amp[s] * F[x]
        amp = new
    return amp[0]


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
    """Six-vertex domain-wall partition function by the vertex DP over ice
    configurations (see the module docstring).

    rmatrix_fn(z, w, q) -> RMatrix4 may replace the standard weights (e.g.
    a gauge-transformed matrix); the default is sixv_rmatrix.
    """
    return _weight_sum(p.n, _source(p, "enumeration", _sixv, None, rmatrix_fn))


def enumerate_sos(ctx: ThetaContext, p: EllipticParams,
                  rmatrix_fn=None) -> complex:
    """Elliptic SOS domain-wall partition function by the vertex DP over ice
    configurations (see the module docstring).

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
    """_transfer_contract's weight-free layout at size n: (take, columns),
    columns holding per column i from n down to 1, per row j from 1 to n,
    (s, start, stop): s = n - j spaces l > j are still in their input
    state, and the gathered matrices start..stop-1 serve spectator sign
    patterns p = 0.. (set bits: its -1 signs).  take indexes their entries
    in the flattened table of _vertices(n) and a zero after it; a vertex
    outside that list, which no configuration uses, gets the zero matrix.
    Built once per n and process, on first use."""
    offset = {v: 5 * x for x, v in enumerate(_vertices(n))}
    minus = [bin(p).count("1") for p in range(2 ** (n - 1))]
    rows, columns = [], []
    for i in range(n, 0, -1):
        column = []
        for j in range(1, n + 1):
            s = n - j           # pattern p's face offset: n - i + s - 2 m
            column.append((s, len(rows), len(rows) + 2 ** s))
            rows += [offset.get((i, j, n - i + s - 2 * m))
                     for m in minus[:2 ** s]]
        columns.append(tuple(column))
    take = _layout_index(rows, 5 * len(offset))
    take.flags.writeable = False
    return take, tuple(columns)


def _transfer_contract(n: int, table) -> complex:
    """Contract n column transfer matrices between the all-plus (top) and
    all-minus (bottom) boundary states.

    Column i contributes an operator built from n R-matrix factors sharing
    one auxiliary space; table holds the vertex matrices of _vertices(n),
    (i, j) at face offset k = (n - i) + the signs still held on the rows
    above j.  One take along _transfer_plan(n) gathers every step's matrices,
    one per sign pattern, from the flattened table and a zero after it, and
    each (column, row) step multiplies by its slice of that stack.  The
    auxiliary line enters at the bottom with sign -1 and must exit at the
    top with +1.

    Within a column the state is held pattern first, as a (2^s, 4, rest)
    array before the step at row j: the spectator signs (spaces n..j+1),
    then the pair (auxiliary, space j) that the vertex matrix acts on, then
    spaces j-1..1.  Between steps one transposed copy moves space j+1 out of
    the pattern and into the pair, and space j into the rest.
    """
    # Quantum state vector over spaces (n, n-1, ..., 1); index 0 means +1.
    vec = np.zeros(2 ** n, dtype=complex)
    vec[0] = 1.0
    take, columns = _transfer_plan(n)
    stack = np.array([w for r in table for w in r] + [0j], dtype=complex) \
        .take(take).reshape(-1, 4, 4)
    for column in columns:
        x = np.zeros((2 ** (n - 1), 4, 1), dtype=complex)
        x[:, 2:, 0] = vec.reshape(-1, 2)        # auxiliary enters with sign -1
        for s, start, stop in column:
            x = stack[start:stop] @ x
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
