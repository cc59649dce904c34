"""Independent reference implementations used only by the tests.

Everything here is deliberately written from scratch against the defining
formulas, without importing any internals from the package, so that the
library and the oracle cannot share a bug.  Two sections are exceptions.
The per-call loops of the configuration routes read the package's ice
table and matrix layout, since they exist to show that the planned routes
return the same bits.  Sign configurations and height fields, which only
tests use, fill columns from the package's ice table (_BRANCHES), so that a
test can rebuild the sum from the configurations the column descent
visits.
"""

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from dwbc.enumeration import SIZE_CAP, _BRANCHES
from dwbc.errors import _check_cap
from dwbc.rmatrix import _matrices

# ---------------------------------------------------------------------------
# Theta function via the alternating sine series
#
#   theta(u|tau) = sum_k (-1)^k q^{(k+1/2)^2} sin((2k+1) pi u)
#                  -----------------------------------------------
#                  pi * sum_k (-1)^k (2k+1) q^{(k+1/2)^2},   q = e^{i pi tau}.
#
# The numerator/denominator normalisation enforces theta'(0) = 1.  The series
# converges only while |Im u| is moderate (the sine factor grows like
# e^{(2k+1) pi |Im u|}), so callers should keep |Im u| small; the library
# itself has no such restriction because it reduces the argument first.
# ---------------------------------------------------------------------------


def theta_series(u, tau, terms=60):
    q = cmath.exp(1j * cmath.pi * tau)
    num = sum((-1) ** k * q ** ((k + 0.5) ** 2) * cmath.sin((2 * k + 1) * cmath.pi * u)
              for k in range(terms))
    den = sum((-1) ** k * (2 * k + 1) * q ** ((k + 0.5) ** 2) for k in range(terms))
    return num / (cmath.pi * den)


# Frozen reference value, cross-checked against the series above and against
# mpmath's jtheta to 22 significant digits.
THETA_QUARTER_TAU_I = 0.22592445084764337


# ---------------------------------------------------------------------------
# Theta function to 40 digits, from mpmath's Jacobi theta_1:
#
#   theta(u|tau) = theta_1(pi u, q) / (pi theta_1'(0, q)),   q = e^{i pi tau}.
#
# mpmath sums theta_1's series itself, at any |q| < 1, so this reference
# shares neither the product form nor the modular transform with the
# library.  At small Im(tau) both theta_1 values are about e^{-pi/(4 Im tau)}
# and come out of terms of size 1, so the working precision grows by that
# many digits.  The float arguments are taken exactly; the result is an mpc.
# ---------------------------------------------------------------------------


def _theta_mp_dps(tau):
    return 50 + math.ceil(math.pi / (4 * complex(tau).imag * math.log(10)))


@functools.lru_cache(maxsize=None)
def _pi_theta1_prime0(tau):
    import mpmath
    with mpmath.workdps(_theta_mp_dps(tau)):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        return mpmath.pi * mpmath.jtheta(1, 0, q, 1)


def theta_mp(u, tau):
    import mpmath
    with mpmath.workdps(_theta_mp_dps(tau)):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        return (mpmath.jtheta(1, mpmath.pi * mpmath.mpc(u), q)
                / _pi_theta1_prime0(complex(tau)))


# ---------------------------------------------------------------------------
# Permutation sums over the symmetric group, for tests that symmetrise a
# kernel by hand.  An inversion of sig is a pair of positions l < m whose
# values are out of order; it is reported as the value pair (sig[l], sig[m]).
# ---------------------------------------------------------------------------


def inversions(sig):
    return [(sig[l], sig[m])
            for l, m in itertools.combinations(range(len(sig)), 2)
            if sig[l] > sig[m]]


def perm_sum(n, term):
    """Sum of term(sig) over all n! permutations sig of range(n)."""
    total = 0j
    for sig in itertools.permutations(range(n)):
        total += term(sig)
    return total


# ---------------------------------------------------------------------------
# Factor tables of the permutation sums, in mpmath at the caller's working
# precision, from the exact float inputs.  Each builder returns (pref, G, F)
# with
#
#   Z = pref * sum_sig prod_{inversions (a, b) of sig} G[a][b]
#                    * prod_m prod F[m][sig(m)],
#
# G[a][b] given for a > b and F[m][j] the tuple of factors row m takes with
# the parameter j: the defining formulas of the elliptic SOS, six-vertex
# and trigonometric SOS sums, with every argument formed in mpmath, so a
# float route can be measured against the same formula evaluated exactly.
# ---------------------------------------------------------------------------


def sos_elliptic_tables_mp(u, v, lam, hbar, tau):
    import mpmath
    u, v = [mpmath.mpc(x) for x in u], [mpmath.mpc(x) for x in v]
    lam, hbar = mpmath.mpc(lam), mpmath.mpc(hbar)
    n = len(u)

    def th(x):
        return theta_mp(x, tau)

    pref = mpmath.mpc(1)
    for k in range(n):
        for m in range(k):
            pref *= th(v[k] - v[m] - hbar) / th(v[k] - v[m])
    G = [[th(v[a] - v[b] + hbar) / th(v[a] - v[b] - hbar) for b in range(a)]
         for a in range(n)]
    F = [[tuple(th(u[k] - v[j]) for k in range(m))
          + tuple(th(u[k] - v[j] + hbar) for k in range(m + 1, n))
          + (th(u[m] - v[j] - lam - m * hbar) * th(hbar)
             / th(-lam - m * hbar),)
          for j in range(n)] for m in range(n)]
    return pref, G, F


def trig_tables_mp(z, w, q, mu=None):
    """The six-vertex tables, or with mu the trigonometric SOS tables."""
    import mpmath
    z, w, q = [mpmath.mpc(x) for x in z], [mpmath.mpc(x) for x in w], \
        mpmath.mpc(q)
    n = len(z)
    pref = (q - 1 / q) ** n * mpmath.fprod(w) if mu is None else mpmath.mpc(1)
    for i in range(n):
        for j in range(i):
            pref *= (w[i] / q - q * w[j]) / (w[i] - w[j])
    G = [[(q * w[a] - w[b] / q) / (w[a] / q - q * w[b]) for b in range(a)]
         for a in range(n)]
    F = [[tuple(q * z[i] - w[j] / q for i in range(m + 1, n))
          + tuple(z[i] - w[j] for i in range(m)) for j in range(n)]
         for m in range(n)]
    if mu is not None:
        mu = mpmath.mpc(mu)
        for m in range(n):
            qk = mu * q ** (2 * m)
            F[m] = [row + ((z[m] - w[j] * qk) * (q - 1 / q) / (1 - qk),)
                    for j, row in enumerate(F[m])]
    return pref, G, F


# ---------------------------------------------------------------------------
# Brute-force six-vertex DWBC partition function.
#
# Sums over all sign assignments of the interior edges, keeping only those
# that conserve signs at every vertex.  Each edge carries a single sign seen
# identically by both endpoint vertices.  Vertex signs are read as
# (top, right | bottom, left) = (alpha, beta | gamma, delta) with weights
#
#   a    : (+,+|+,+) and (-,-|-,-)      = q z - w / q
#   b    : (+,-|+,-) and (-,+|-,+)      = z - w
#   cbar : (+,-|-,+)                    = (q - 1/q) w
#   c    : (-,+|+,-)                    = (q - 1/q) z
#
# Domain wall boundary: top edges +, bottom edges -, right edges -, left
# edges +.  Columns are numbered i = 1..n right to left (parameter z_i),
# rows j = 1..n bottom to top (parameter w_j).  This oracle is completely
# independent of the package's column state-sum: no shared traversal order,
# no pruning beyond skipping zero-weight vertices.
# ---------------------------------------------------------------------------


def sixv_vertex_weight(alpha, beta, gamma, delta, z, w, q):
    """Weight of a single vertex; zero unless sign-conserving."""
    if alpha + beta != gamma + delta:
        return 0.0
    if alpha == beta:
        return q * z - w / q                       # a (all four equal)
    if alpha == gamma:
        return z - w                               # b / bbar
    if alpha == 1:
        return (q - 1.0 / q) * w                   # cbar: (+,- | -,+)
    return (q - 1.0 / q) * z                       # c:    (-,+ | +,-)


def sixv_bruteforce(z, w, q):
    """DWBC partition function by exhaustive interior-edge search."""
    n = len(z)
    total = 0.0 + 0.0j
    vert_edges = n * (n - 1)   # between row j and j+1 of column i
    horiz_edges = n * (n - 1)  # between column i and i+1 of row j

    def edge_above(v, i, j):
        # sign of the vertical edge above vertex (i, j); top boundary is +1
        if j == n:
            return 1
        return v[(i - 1) * (n - 1) + (j - 1)]

    def edge_left(h, i, j):
        # sign of the horizontal edge left of vertex (i, j); column i + 1 is
        # the left neighbour, the leftmost boundary (i = n) carries +1
        if i == n:
            return 1
        return h[(j - 1) * (n - 1) + (i - 1)]

    for vbits in itertools.product((1, -1), repeat=vert_edges):
        for hbits in itertools.product((1, -1), repeat=horiz_edges):
            weight = 1.0 + 0.0j
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    alpha = edge_above(vbits, i, j)
                    gamma = -1 if j == 1 else edge_above(vbits, i, j - 1)
                    delta = edge_left(hbits, i, j)
                    beta = -1 if i == 1 else edge_left(hbits, i - 1, j)
                    weight *= sixv_vertex_weight(
                        alpha, beta, gamma, delta, z[i - 1], w[j - 1], q)
                    if weight == 0.0:
                        break
                else:
                    continue
                break
            total += weight
    return total


# ---------------------------------------------------------------------------
# Column transfer contraction, one tensordot per spectator sign pattern.
#
# Same contraction as the package's transfer route, written as the plain
# loop: at step (column i, row j) the rows l > j still hold their input
# signs, and each pattern of those signs fixes the face offset k of the
# vertex, so it gets its own 4x4 matrix rfn(i, j, k).m.  Spaces are stored
# in the order (auxiliary, n, n-1, ..., 1); index 0 means sign +1.
# ---------------------------------------------------------------------------


def transfer_contract_loop(n, rfn):
    vec = np.zeros((2,) * n, dtype=complex)
    vec[(0,) * n] = 1.0
    for i in range(n, 0, -1):
        w = np.zeros((2,) + vec.shape, dtype=complex)
        w[1] = vec                              # auxiliary enters with sign -1
        for j in range(1, n + 1):
            spect = range(1, 1 + n - j)
            new_w = np.empty_like(w)
            for bits in itertools.product((0, 1), repeat=len(spect)):
                k = (n - i) + sum(1 if b == 0 else -1 for b in bits)
                g = rfn(i, j, k).m.reshape(2, 2, 2, 2)
                sl = [slice(None)] * w.ndim
                for ax, bit in zip(spect, bits):
                    sl[ax] = bit
                new_w[tuple(sl)] = np.tensordot(g, w[tuple(sl)],
                                                axes=([2, 3], [0, 1]))
            w = new_w
        vec = w[0]                              # auxiliary exits with sign +1
    # a complex tensordot can leave the vector unit in a state that slows
    # every later libm call, theta's included, as _transfer_contract notes;
    # one numpy elementwise call clears it for the tests that follow
    np.abs(vec.reshape(-1)[-1:])
    return complex(vec[(1,) * n])


# ---------------------------------------------------------------------------
# Plain reference for the subset DP, one walk per call with nothing computed
# ahead: the library's planned walk must return the same bits.
#
# perm_sum_loop(G, F) visits the bit sets S in increasing order: adding the
# value j multiplies by G[a][j] for each a in S above j, then by each factor
# of F[|S|][j].
# ---------------------------------------------------------------------------


def perm_sum_loop(G, F):
    n = len(F)
    sums = [1.0 + 0j] + [0j] * ((1 << n) - 1)
    for S in range((1 << n) - 1):
        row, part = F[S.bit_count()], sums[S]
        for j in range(n):
            if not S >> j & 1:
                t = part
                for a in range(j + 1, n):
                    if S >> a & 1:
                        t *= G[a][j]
                for f in row[j]:
                    t *= f
                sums[S | 1 << j] += t
    return sums[-1]


# ---------------------------------------------------------------------------
# The configuration routes as loops that work everything out per call, with
# nothing planned ahead.
#
# vertex_dp_loop(n, source) is the library's vertex DP with its states held
# in dicts: vertex by vertex, columns 1..n and rows n..1, each state (mask,
# alpha) reads source(i, j, k) once and takes each (gamma, delta, slot) that
# _BRANCHES lists for its (alpha, beta), gamma = -1 only at row 1, adding
# its amplitude times the weight into the state it makes.  The library's
# planned walk must return the same bits.  transfer_row_loop(n, rfn) is the
# column contraction asking for one stack of s + 1 matrices per (column,
# row) step, and must return the planned contraction's bits.
#
# column_descent_loop(n, source) is an independent route, with its own order
# of products and sums: it fills each column top-down; every partial
# filling (weight, alpha, k, lefts) reads source(i, j, k) once and takes
# each (gamma, delta, slot) that _BRANCHES lists for its (alpha, beta), and
# the column's fillings are summed, in the order they are made, times the
# memoized value of the columns to its left.  It asks for every vertex some
# partial filling reaches, so the vertex list the library's table is built
# on must hold every (i, j, k) it asks for on a configuration.
# ---------------------------------------------------------------------------


def vertex_dp_loop(n, source):
    states = {(0, 1): 1.0 + 0j}
    for i in range(1, n + 1):
        for j in range(n, 0, -1):
            bit, made = 1 << (j - 1), {}
            for (mask, alpha), amp in states.items():
                r = source(i, j, j - i + 2 * (mask >> j).bit_count())
                beta = 1 if mask & bit else -1
                for gamma, delta, slot in _BRANCHES[alpha, beta]:
                    if j > 1 or gamma == -1:
                        key = (mask | bit if delta > 0 else mask & ~bit,
                               gamma if j > 1 else 1)
                        made[key] = made.get(key, 0j) + amp * r[slot]
            states = made
    return states[2 ** n - 1, 1]


def column_descent_loop(n, source):
    @functools.cache
    def from_col(i, right):
        if i > n:
            return 1.0 + 0j
        fills = [(1.0 + 0j, 1, n - i, 0)]
        for j in range(n, 0, -1):
            bit = 1 << (j - 1)
            beta = 1 if right & bit else -1
            fills = [(w * r[slot], gamma, k + delta,
                      lefts | bit if delta > 0 else lefts)
                     for w, alpha, k, lefts in fills
                     for r in (source(i, j, k),)
                     for gamma, delta, slot in _BRANCHES[alpha, beta]]
        return sum(w * from_col(i + 1, lefts)
                   for w, gamma, _, lefts in fills if gamma == -1)

    return from_col(1, 0)


def transfer_row_loop(n, rfn):
    vec = np.zeros((2,) * n, dtype=complex)
    vec[(0,) * n] = 1.0
    minus = np.array([bin(p).count("1") for p in range(2 ** (n - 1))])
    for i in range(n, 0, -1):
        w = np.zeros((2,) + vec.shape, dtype=complex)
        w[1] = vec
        for j in range(1, n + 1):
            s = n - j
            g = _matrices([rfn(i, j, (n - i) + s - 2 * c)
                           for c in range(s + 1)])[minus[:2 ** s]]
            ws = w.reshape(2, 2 ** s, 2, -1).swapaxes(0, 1)
            w = (g @ ws.reshape(2 ** s, 4, -1)).reshape(ws.shape) \
                .swapaxes(0, 1).reshape(w.shape)
        vec = w[0]
    np.abs(vec.reshape(-1)[-1:])      # as in transfer_contract_loop
    return complex(vec[(1,) * n])


# ---------------------------------------------------------------------------
# Sign configurations and height fields of the domain-wall ice
# configurations, in the column descent's depth-first order: each column is
# filled top-down from _BRANCHES, as column_descent_loop fills it, and its
# closing fillings' left masks are the next column's right masks.  The tests
# check the boundary conditions, the ice rule and the height dictionary on
# them, and rebuild the elliptic sum face by face from them.
# ---------------------------------------------------------------------------


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
    in the deterministic depth-first order of the column descent."""
    _check_cap(n, SIZE_CAP, "enumeration")

    def closes(right):          # the left masks of a column's fillings
        fills = [(1, 0)]        # (alpha, lefts), rows filled top-down
        for j in range(n, 0, -1):
            bit = 1 << (j - 1)
            beta = 1 if right & bit else -1
            fills = [(gamma, lefts | bit if delta > 0 else lefts)
                     for alpha, lefts in fills
                     for gamma, delta, _ in _BRANCHES[alpha, beta]]
        return [lefts for gamma, lefts in fills if gamma == -1]

    def paths(i, masks):
        if i > n:
            yield masks
            return
        for lefts in closes(masks[-1]):
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
