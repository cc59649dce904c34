"""Closed-form evaluations of the domain-wall partition functions.

Four formulas, each an independent route to values the enumerators also
produce: a permutation sum for the elliptic SOS model, the matching
trigonometric sums for the dynamical SOS and six-vertex models, and the
Izergin determinant for the six-vertex model.  Each sum builds its factor
tables once and hands them to `_perm_sum`, a dynamic program over subsets
(n 2^(n-1) steps in place of n! terms) in a fixed order, so sums are
reproducible bit for bit.  The DP's walk, `_plan(n)`, is built once per n.
"""

from __future__ import annotations

import cmath
import math
import warnings
from functools import cache

import numpy as np

from .errors import DegenerateParameter, InvalidParameter, _check_cap, \
    _check_finite
from .rmatrix import EllipticParams, TrigParams, _cfac, _mu_shift, \
    _require_mu
from .theta import ThetaContext, require_off_lattice, theta

# Accuracy, not time, bounds the sums.  Against a 50-digit reference, on
# 10 box draws per n, the six-vertex sum's median relative error is 2.9e-12
# at n = 9 and 4.3e-12 at n = 10, and cancellation takes the worst draw
# past the 1e-9 gate from n = 7 on; the cap stays at 9.
SUM_CAP = 9
_COND_WARN = 1e12


@cache
def _plan(n):
    """_perm_sum's weight-free walk at size n: (S, |S|, moves) for each bit
    set S below the full set, in increasing order, one move (j, members of
    S above j in increasing order, S | 1 << j) per j not in S."""
    return tuple((S, S.bit_count(), tuple(
        (j, tuple(a for a in range(j + 1, n) if S >> a & 1), S | 1 << j)
        for j in range(n) if not S >> j & 1)) for S in range((1 << n) - 1))


def _perm_sum(G, F):
    """Sum over all permutations sigma of range(n) of

        prod_{inversions (a, b) of sigma} G[a][b] * prod_m prod F[m][sigma(m)]

    where G[a][b] is given for a > b only and F[m][j] is the tuple of
    factors row m takes with the parameter j.  Along _plan(n), sums[S] sums
    the partial terms with the values of the bit set S at positions 0..|S|-1;
    adding j multiplies by G[a][j] for a in S above j, then by each f in
    F[|S|][j].
    """
    n = len(F)
    sums = [1.0 + 0j] + [0j] * ((1 << n) - 1)
    for S, m, moves in _plan(n):
        row, part = F[m], sums[S]
        for j, above, T in moves:
            t = part
            for a in above:
                t *= G[a][j]
            for f in row[j]:
                t *= f
            sums[T] += t
    return sums[-1]


def z_sos_elliptic(ctx: ThetaContext, p: EllipticParams) -> complex:
    """Elliptic SOS domain-wall partition function as a permutation sum.

    With th = theta(. | tau), 1-based indices and sigma running over all
    permutations of {1..n}:

        Z = prod_{k>m} th(v_k - v_m - hbar) / th(v_k - v_m)
            * sum_sigma  prod_{l<l', sigma(l)>sigma(l')}
                             th(v_sig(l) - v_sig(l') + hbar)
                           / th(v_sig(l) - v_sig(l') - hbar)
                         * prod_{k<m} th(u_k - v_sig(m))
                         * prod_{k>m} th(u_k - v_sig(m) + hbar)
                         * prod_m th(u_m - v_sig(m) - lam - (m-1) hbar)
                                  * th(hbar) / th(-lam - (m-1) hbar)

    The expression is regular at u_i = v_j (no such denominators appear),
    symmetric in the u's and in the v's, and obeys the standard recursion
    at u_n = v_n - hbar; the test suite checks all three.
    """
    return _elliptic_sum(ctx, p, p.u, p.v)[0]


def _elliptic_sum(ctx, p, u, v, t=None, ks=(), js=()):
    """(z_sos_elliptic's value, its theta tables) at the spectral parameters
    u, v, with lam, hbar, n and the dynamical checks taken from p.

    With t None every table is built afresh.  Otherwise t holds the tables
    of an earlier call whose u, v differ from these only at u_k for k in ks
    and v_j for j in js; only the entries those enter are evaluated again,
    and t is updated in place.  Either way the checks run first, and the
    theta entries are met in the formula's one order, so an overflow names
    the argument a fresh build would; a call that raises may leave t part
    updated, which the next call with the same ks, js repairs.
    """
    p.validate(ctx)
    n = p.n
    _check_cap(n, SUM_CAP, "permutation-sum")
    lam, hbar = p.lam, p.hbar
    every = t is None
    if every:
        # a fresh build evaluates every entry
        ks = js = set(range(n))
        # ratio[k][m] (m < k), the prefactor's ratios; G[a][b] (b < a);
        # per column j: lo[j][k] = th(u_k - v_j) (k < n - 1),
        # hi[j][k - 1] = th(u_k - v_j + hbar) (k > 0) and last[j][m], the
        # final factor of F[m][j]
        ratio, G = [[0j] * k for k in range(n)], [[0j] * a for a in range(n)]
        lo = [[0j] * (n - 1) for _ in range(n)]
        hi = [[0j] * (n - 1) for _ in range(n)]
        last = [[0j] * n for _ in range(n)]
    else:
        ratio, G, lo, hi, last, th_h, tminus = t
    for k in range(n):
        for m in range(k):
            if k in js or m in js:
                require_off_lattice(ctx, v[k] - v[m],
                                    f"v[{k + 1}] - v[{m + 1}]")
    for k in range(n):
        for m in range(k):
            if k in js or m in js:
                ratio[k][m] = (theta(ctx, v[k] - v[m] - hbar)
                               / theta(ctx, v[k] - v[m]))
    if every:
        th_h = theta(ctx, hbar)
        tminus = [theta(ctx, -lam - m * hbar) for m in range(n)]
    for a in range(n):
        for b in range(a):
            if a in js or b in js:
                G[a][b] = (theta(ctx, v[a] - v[b] + hbar)
                           / theta(ctx, v[a] - v[b] - hbar))
    for m in range(n):
        for j in range(n):
            col = j in js
            if not m:
                for k in range(1, n):
                    if col or k in ks:
                        hi[j][k - 1] = theta(ctx, u[k] - v[j] + hbar)
            elif col or m - 1 in ks:
                lo[j][m - 1] = theta(ctx, u[m - 1] - v[j])
            if col or m in ks:
                last[j][m] = (theta(ctx, u[m] - v[j] - lam - m * hbar) * th_h
                              / tminus[m])
    pref = 1.0 + 0j
    for row in ratio:
        for r in row:
            pref *= r
    F = [[(*lo[j][:m], *hi[j][m:], last[j][m]) for j in range(n)]
         for m in range(n)]
    return pref * _perm_sum(G, F), (ratio, G, lo, hi, last, th_h, tminus)


def _elliptic_view(ctx: ThetaContext, p: EllipticParams, side: int, i: int):
    """x -> z_sos_elliptic(ctx, p with u_i (side 0) or v_i (side 1), 0-based,
    replaced by x), bit for bit and raising as it would.

    Calls build every theta table until one succeeds; each later call
    evaluates only the entries x enters (3n or fewer for a u, 7n - 6 for
    a v), after the checks x can fail: its finiteness, p.validate, the
    size cap and, for a v, the lattice guards of its pairs.
    """
    uv = [list(p.u), list(p.v)]
    moved = ((i,), ()) if side == 0 else ((), (i,))
    tables = None

    def view(x):
        nonlocal tables
        x = complex(x)
        uv[side][i] = x
        if not cmath.isfinite(x):
            _check_finite(**{"uv"[side]: tuple(uv[side])})
        z, tables = _elliptic_sum(ctx, p, *uv, tables, *moved)
        return z

    return view


def recursion_factor(ctx: ThetaContext, p: EllipticParams) -> complex:
    """Proportionality factor relating sizes n and n-1 at u_n = v_n - hbar:

        theta(lam + n hbar) theta(hbar) / theta(lam + (n-1) hbar)
        * prod_{m<n} theta(v_n - v_m - hbar) theta(u_m - v_n).
    """
    n = p.n
    if n < 2:
        raise InvalidParameter("the recursion relates sizes n and n-1; need n >= 2")
    p.validate(ctx)
    out = theta(ctx, p.lam + n * p.hbar) * theta(ctx, p.hbar) \
        / theta(ctx, p.lam + (n - 1) * p.hbar)
    for m in range(n - 1):
        out *= theta(ctx, p.v[n - 1] - p.v[m] - p.hbar) \
            * theta(ctx, p.u[m] - p.v[n - 1])
    return out


def _guard_distinct(values, label, q=None):
    """Raise when a rational denominator of the trigonometric formulas is
    near-degenerate: coinciding parameters, or q^(-1) x_i = q x_j."""
    scale = max(1.0, max(abs(x) for x in values))
    n = len(values)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if abs(values[i] - values[j]) < 1e-10 * scale:
                raise DegenerateParameter(
                    f"{label}[{i + 1}] - {label}[{j + 1}] = "
                    f"{values[i] - values[j]} is degenerate (denominator vanishes)")
            if q is not None and abs(values[i] / q - q * values[j]) < 1e-10 * scale:
                raise DegenerateParameter(
                    f"{label}[{i + 1}]/q - q*{label}[{j + 1}] = "
                    f"{values[i] / q - q * values[j]} is degenerate "
                    f"(denominator vanishes)")


def _cfac_power(q: complex, n: int) -> complex:
    """(q - 1/q)^n, the six-vertex prefactor; overflow is a parameter error."""
    try:
        return _cfac(q) ** n
    except OverflowError:
        raise InvalidParameter(f"(q - 1/q)^n overflows at q = {q}, n = {n}") from None


def z_izergin(p: TrigParams) -> complex:
    """Six-vertex domain-wall partition function, Izergin determinant form:

        Z = (q - 1/q)^n prod_m w_m
            * prod_{i,j} (z_i - w_j)(q z_i - w_j / q)
            / prod_{i>j} (z_i - z_j)(w_j - w_i)
            * det || 1 / ((z_i - w_j)(q z_i - w_j / q)) ||

    The determinant comes from numpy's partially pivoted LU factorisation;
    a RuntimeWarning is emitted when the matrix condition number exceeds
    1e12, since digits are then lost to near-coinciding parameters.
    """
    n = p.n
    z, w, q = p.z, p.w, p.q
    _guard_distinct(z, "z")
    _guard_distinct(w, "w")
    d = [[zi - wj for wj in w] for zi in z]
    e = [[q * zi - wj / q for wj in w] for zi in z]
    scale = max(1.0, max(abs(x) for x in z + w))
    for i in range(n):
        for j in range(n):
            if abs(d[i][j]) < 1e-10 * scale:
                raise DegenerateParameter(
                    f"z[{i + 1}] - w[{j + 1}] = {d[i][j]} is degenerate "
                    f"(determinant entry pole)")
            if abs(e[i][j]) < 1e-10 * scale:
                raise DegenerateParameter(
                    f"q*z[{i + 1}] - w[{j + 1}]/q = {e[i][j]} is "
                    f"degenerate (determinant entry pole)")

    # entries by Python's complex division: numpy's rounds differently
    mat = np.array([[1.0 / (dij * eij) for dij, eij in zip(dr, er)]
                    for dr, er in zip(d, e)])
    cond = np.linalg.cond(mat)
    if cond > _COND_WARN:
        warnings.warn(
            f"Izergin matrix condition number {cond:.3e} exceeds {_COND_WARN:.0e}; "
            f"the determinant value may have lost most significant digits",
            RuntimeWarning, stacklevel=2)
    det = complex(np.linalg.det(mat))

    pref = math.prod(w, start=_cfac_power(q, n))
    num = math.prod((dij * eij for dr, er in zip(d, e)
                     for dij, eij in zip(dr, er)), start=1.0 + 0j)
    den = 1.0 + 0j
    for i in range(n):
        for j in range(i):
            den *= (z[i] - z[j]) * (w[j] - w[i])
    return pref * num / den * det


def _trig_tables(p: TrigParams, front=lambda: 1.0 + 0j):
    """Check the cap and the w denominators; return front() times the pair
    prefactor prod_{i>j} (w_i/q - q w_j)/(w_i - w_j), and the _perm_sum
    tables G, F of the trigonometric sums.  front() runs after the cap check,
    so an oversized n raises SizeCap rather than overflowing (q - 1/q)^n."""
    n = p.n
    _check_cap(n, SUM_CAP, "permutation-sum")
    z, w, q = p.z, p.w, p.q
    _guard_distinct(w, "w", q=q)
    pref = front()
    for i in range(n):
        for j in range(i):
            pref *= (w[i] / q - q * w[j]) / (w[i] - w[j])
    G = [[(q * w[a] - w[b] / q) / (w[a] / q - q * w[b]) for b in range(a)]
         for a in range(n)]
    # F[m][j] is (q z_i - w_j/q for i > m) then (z_i - w_j for i < m)
    above = [tuple(q * z[i] - w[j] / q for i in range(n)) for j in range(n)]
    below = [tuple(z[i] - w[j] for i in range(n)) for j in range(n)]
    F = [[above[j][m + 1:] + below[j][:m] for j in range(n)]
         for m in range(n)]
    return pref, G, F


def z_6v_sum(p: TrigParams) -> complex:
    """Six-vertex domain-wall partition function as a permutation sum:

        Z = (q - 1/q)^n prod_m w_m
            * prod_{i>j} (w_i/q - q w_j) / (w_i - w_j)
            * sum_sigma  prod_{i<j, sigma(i)>sigma(j)}
                             (q w_sig(i) - w_sig(j)/q) / (w_sig(i)/q - q w_sig(j))
                         * prod_{i>k} (q z_i - w_sig(k)/q)
                         * prod_{i<k} (z_i - w_sig(k))
    """
    pref, G, F = _trig_tables(
        p, lambda: math.prod(p.w, start=_cfac_power(p.q, p.n)))
    return pref * _perm_sum(G, F)


def z_trig_sos(p: TrigParams) -> complex:
    """Trigonometric dynamical SOS partition function as a permutation sum:

        Z = prod_{k>m} (w_k/q - q w_m) / (w_k - w_m)
            * sum_sigma  prod_{l<l', sigma(l)>sigma(l')}
                             (q w_sig(l) - w_sig(l')/q) / (w_sig(l)/q - q w_sig(l'))
                         * prod_{k>m} (q z_k - w_sig(m)/q)
                         * prod_{k<m} (z_k - w_sig(m))
                         * prod_m (z_m - w_sig(m) mu q^(2(m-1)))
                                  * (q - 1/q) / (1 - mu q^(2(m-1)))

    Sending mu -> inf reproduces the six-vertex sum; substituting
    z = e^(2 pi i u), w = e^(2 pi i v), q = e^(pi i hbar), mu = e^(2 pi i lam)
    makes it the Im(tau) -> inf limit of the elliptic formula up to the
    factor prod_{k,j} 2 pi i e^(pi i (u_k + v_j)).
    """
    mu = _require_mu(p)
    pref, G, F = _trig_tables(p)
    n = p.n
    z, w, q = p.z, p.w, p.q
    qk = [_mu_shift(mu, q, m) for m in range(n)]
    cfac = _cfac(q)
    F = [[row[j] + ((z[m] - w[j] * qk[m]) * cfac / (1.0 - qk[m]),)
          for j in range(n)] for m, row in enumerate(F)]
    return pref * _perm_sum(G, F)


def weight_kernel(ctx: ThetaContext, p: EllipticParams, vperm) -> complex:
    """Unsymmetrised kernel of the elliptic partition sum, evaluated with the
    row arguments in the order given by vperm:

        prod_{k>m} th(u_k - u_m) / th(u_k - u_m + hbar)
        * prod_{k>m} th(u_k - v_m + hbar) / th(u_k - v_m)
        * prod_m th(u_m - v_m - lam - (m-1) hbar)
                 / (th(u_m - v_m) th(-lam - (m-1) hbar))

    with v_m standing for vperm[m-1].  Unlike the full partition function it
    has simple poles at u_k = v_m; symmetrising it over row orderings against
    the exchange factors reproduces z_sos_elliptic (checked in the tests).
    """
    p.validate(ctx)
    n = p.n
    u, lam, hbar = p.u, p.lam, p.hbar
    v = [complex(x) for x in vperm]
    if len(v) != n:
        raise InvalidParameter(f"vperm must list {n} row arguments, got {len(v)}")
    for k in range(n):
        for m in range(k):
            require_off_lattice(ctx, u[k] - u[m] + hbar,
                                f"u[{k + 1}] - u[{m + 1}] + hbar")
    for k in range(n):
        for m in range(k + 1):
            require_off_lattice(ctx, u[k] - v[m], f"u[{k + 1}] - vperm[{m + 1}]")

    t = 1.0 + 0j
    for k in range(n):
        for m in range(k):
            t *= theta(ctx, u[k] - u[m]) / theta(ctx, u[k] - u[m] + hbar)
            t *= theta(ctx, u[k] - v[m] + hbar) / theta(ctx, u[k] - v[m])
    for m in range(n):
        t *= theta(ctx, u[m] - v[m] - lam - m * hbar) \
            / (theta(ctx, u[m] - v[m]) * theta(ctx, -lam - m * hbar))
    return t
