"""Oracle-grade evaluation of domain-wall partition sums.

Two independent routes live here:

* a sum over every ice configuration compatible with domain-wall
  boundary conditions, built column by column and memoized on the
  (column, right-edge signs) state, so each state is expanded once;
* contraction of a product of column transfer matrices, carrying the
  dynamical shift through spectator spaces, one batched matrix product
  per (column, row) step.

Both cost exponentially in n and are capped at n <= SIZE_CAP = 6.

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
from itertools import product
from math import factorial

import numpy as np

from .errors import _check_cap
from .rmatrix import EllipticParams, TrigParams, _matrices, _require_mu, \
    sixv_rmatrix, sos_rmatrix, trig_sos_rmatrix
from .theta import ThetaContext

SIZE_CAP = 6


def asm_number(n: int) -> int:
    """Number of alternating-sign matrices of order n: prod (3k+1)!/(n+k)!."""
    num = den = 1
    for k in range(n):
        num *= factorial(3 * k + 1)
        den *= factorial(n + k)
    return num // den


def _column_branches(n, i, right, source, record=False):
    """All consistent fillings of column i, given its right-edge signs.

    `right[j-1]` is the sign entering vertex (i, j) from the right, and
    source(i, j, k) is the weight matrix of vertex (i, j) at face offset k
    (None weighs every vertex 1).  Returns a list of (column_weight,
    left_edge_signs, rows) where rows, present only when record is set,
    lists (alpha, beta, gamma, delta) for j = n..1.
    The descent runs top-down; at each vertex sign conservation leaves at
    most two (gamma, delta) choices, and the bottom edge must close on -1.
    """
    out = []

    def descend(j, alpha, k, w, deltas, rows):
        beta = right[j - 1]
        s = alpha + beta
        if s == 2:
            opts = ((1, 1),)
        elif s == -2:
            opts = ((-1, -1),)
        else:
            opts = ((1, -1), (-1, 1))
        for gamma, delta in opts:
            w2 = w * source(i, j, k).entry(alpha, beta, gamma, delta) \
                if source is not None else w
            d2 = deltas + (delta,)
            r2 = rows + ((alpha, beta, gamma, delta),) if record else rows
            if j == 1:
                if gamma == -1:
                    out.append((w2, d2[::-1], r2))
            else:
                descend(j - 1, gamma, k + delta, w2, d2, r2)

    descend(n, 1, n - i, 1.0 + 0j, (), ())
    return out


def _weight_sum(n, source):
    """Sum of weight products over all domain-wall ice configurations.

    from_col(i, right), the summed weight of columns i..n given column i's
    right-edge signs, is memoized on that state for this call only."""
    target = (1,) * n

    @cache
    def from_col(i, right):
        if i > n:
            return 1.0 + 0j if right == target else 0j
        return sum(w * from_col(i + 1, lefts)
                   for w, lefts, _ in _column_branches(n, i, right, source))

    return from_col(1, (-1,) * n)


def count_configurations(n: int) -> int:
    """Number of ice configurations compatible with domain-wall boundaries
    (equals the alternating-sign-matrix number)."""
    _check_cap(n, SIZE_CAP, "enumeration")
    total = _weight_sum(n, None)
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
    def from_columns(cls, n, columns):
        """Assemble from per-column rows ordered j = n..1 (as produced by the
        column descent)."""
        arrs = [np.zeros((n, n), dtype=np.int8) for _ in range(4)]
        for i0, rows in enumerate(columns):
            for pos, signs in enumerate(rows):
                j0 = n - 1 - pos
                for arr, s in zip(arrs, signs):
                    arr[i0, j0] = s
        return cls(*arrs)


def dwbc_sign_configs(n: int):
    """Yield every SignConfig compatible with domain-wall boundaries,
    in the deterministic depth-first order of the enumerator."""
    _check_cap(n, SIZE_CAP, "enumeration")
    target = (1,) * n

    def rec(i, right, acc):
        if i > n:
            if right == target:
                yield acc
            return
        for _, lefts, rows in _column_branches(n, i, right, None, record=True):
            yield from rec(i + 1, lefts, acc + (rows,))

    for cols in rec(1, (-1,) * n, ()):
        yield SignConfig.from_columns(n, cols)


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


def _sos_source(ctx, p, rmatrix_fn):
    """Elliptic SOS weights: vertex (i, j) at face offset k sees the
    dynamical parameter lam + k*hbar."""
    make = rmatrix_fn or sos_rmatrix
    return cache(lambda i, j, k: make(ctx, p.u[i - 1] - p.v[j - 1],
                                      p.lam + k * p.hbar, p.hbar))


def _sixv_source(p, rmatrix_fn):
    """Six-vertex weights carry no dynamical parameter, so one matrix per
    vertex serves every face offset."""
    make = rmatrix_fn or sixv_rmatrix
    table = [[make(z, w, p.q) for w in p.w] for z in p.z]
    return lambda i, j, k: table[i - 1][j - 1]


def _trig_source(p):
    """Trigonometric SOS weights: face offset k acts multiplicatively,
    mu -> mu * q^(2k); TrigParams.validate keeps 1 - mu q^(2k) off zero
    for every offset |k| <= 2n the routes reach."""
    mu = _require_mu(p)
    return cache(lambda i, j, k: trig_sos_rmatrix(
        p.z[i - 1], p.w[j - 1], mu * p.q ** (2 * k), p.q))


def enumerate_6v(p: TrigParams, rmatrix_fn=None) -> complex:
    """Six-vertex domain-wall partition function by brute-force enumeration.

    rmatrix_fn(z, w, q) -> RMatrix4 may replace the standard weights (e.g.
    a gauge-transformed matrix); the default is sixv_rmatrix.
    """
    p.validate()
    _check_cap(p.n, SIZE_CAP, "enumeration")
    return _weight_sum(p.n, _sixv_source(p, rmatrix_fn))


def enumerate_sos(ctx: ThetaContext, p: EllipticParams,
                  rmatrix_fn=None) -> complex:
    """Elliptic SOS domain-wall partition function by brute-force enumeration.

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
    for i in range(n, 0, -1):
        w = np.zeros((2,) + vec.shape, dtype=complex)
        w[1] = vec                              # auxiliary enters with sign -1
        base_k = n - i
        for j in range(1, n + 1):
            s = n - j                           # spaces l > j, still in input state
            # one vertex matrix per sign pattern of those spaces, in index order
            g = _matrices([rfn(i, j, base_k + s - 2 * sum(bits))
                           for bits in product((0, 1), repeat=s)])
            ws = w.reshape(2, 2 ** s, 2, -1).swapaxes(0, 1)  # pattern first
            w = (g @ ws.reshape(2 ** s, 4, -1)).reshape(ws.shape) \
                .swapaxes(0, 1).reshape(w.shape)
        vec = w[0]                              # auxiliary exits with sign +1
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
