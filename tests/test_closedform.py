"""Closed forms: permutation sums, Izergin determinant, recursion, kernel."""

import numpy as np
import pytest

from dwbc import (DegenerateParameter, EllipticParams, InvalidParameter,
                  SizeCap, ThetaContext, TrigParams, column_transfer_z,
                  enumerate_6v, enumerate_sos, enumerate_trig_sos,
                  recursion_factor, theta, weight_kernel, z_6v_sum, z_izergin,
                  z_sos_elliptic, z_trig_sos)

from dwbc.closedform import _elliptic_view, _perm_sum
from helpers import draw_multiplicative, draw_spectral, rel_diff
from oracles import (inversions, perm_sum, perm_sum_loop, sixv_bruteforce,
                     sos_elliptic_tables_mp, trig_tables_mp)

# Pinned regression values, produced by two independently implemented routes
# agreeing to ~1e-15 (state sum vs permutation sum; determinant vs the
# exhaustive-edge oracle in tests/oracles.py).
FROZEN_ELLIPTIC_N2 = 0.00020730644186473155 + 0j
FROZEN_SIXV_N3 = 2.172862028540731 + 0j

U = 2.0 ** -53    # unit roundoff of a double


def cancellation_bound(n, G, F):
    """n^2 u sum_sig |term(sig)|: the error a float permutation sum of size n
    may make.  sum |term| is the same sum taken over |G| and |F|, so over
    |Z| it is the cancellation ratio kappa."""
    absG = [[abs(complex(g)) for g in row] for row in G]
    absF = [[tuple(abs(complex(f)) for f in fs) for fs in row] for row in F]
    return n * n * U * _perm_sum(absG, absF).real


def test_single_vertex_hand_values(ctx):
    u, v, lam, hbar = 0.4, 0.1, 0.31, 0.17
    expected = theta(ctx, u - v - lam) * theta(ctx, hbar) / theta(ctx, -lam)
    got = z_sos_elliptic(ctx, EllipticParams([u], [v], lam, hbar))
    assert rel_diff(got, expected) < 1e-14

    z, w, q, mu = 0.8 + 0.1j, 2.0 - 0.05j, 1.3, 0.7
    assert rel_diff(z_izergin(TrigParams([z], [w], q)), (q - 1 / q) * w) < 1e-14
    assert rel_diff(z_6v_sum(TrigParams([z], [w], q)), (q - 1 / q) * w) < 1e-14
    assert rel_diff(z_trig_sos(TrigParams([z], [w], q, mu=mu)),
                    (z - w * mu) * (q - 1 / q) / (1 - mu)) < 1e-14


def test_frozen_regression_values(ctx):
    p = EllipticParams([0.40, 0.55], [0.10, 0.23], 0.31, 0.17)
    assert rel_diff(z_sos_elliptic(ctx, p), FROZEN_ELLIPTIC_N2) < 1e-12
    p6 = TrigParams([0.7, 0.9, 1.2], [1.7, 2.1, 2.4], 1.3)
    assert rel_diff(z_izergin(p6), FROZEN_SIXV_N3) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_permutation_sum_matches_enumeration(ctx, ctx_generic, rng, n):
    for context in (ctx, ctx_generic):
        p = EllipticParams(draw_spectral(rng, n), draw_spectral(rng, n),
                           0.31, 0.17)
        assert rel_diff(z_sos_elliptic(context, p),
                        enumerate_sos(context, p)) < 1e-11


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_recursion_identity(ctx, rng, n):
    lam, hbar = 0.31, 0.17
    u, v = draw_spectral(rng, n), draw_spectral(rng, n)
    u[-1] = v[-1] - hbar
    p = EllipticParams(u, v, lam, hbar)
    reduced = EllipticParams(u[:-1], v[:-1], lam, hbar)
    lhs = z_sos_elliptic(ctx, p)
    rhs = recursion_factor(ctx, p) * z_sos_elliptic(ctx, reduced)
    assert rel_diff(lhs, rhs) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_izergin_matches_sum(rng, n):
    p = TrigParams(draw_multiplicative(rng, n),
                   draw_multiplicative(rng, n, 1.6, 2.6), 1.3)
    assert rel_diff(z_izergin(p), z_6v_sum(p)) < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_izergin_matches_bruteforce(rng, n):
    z = draw_multiplicative(rng, n)
    w = draw_multiplicative(rng, n, 1.6, 2.6)
    assert rel_diff(z_izergin(TrigParams(z, w, 1.3)),
                    sixv_bruteforce(z, w, 1.3)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_trig_sum_matches_enumeration(rng, n):
    p = TrigParams(draw_multiplicative(rng, n),
                   draw_multiplicative(rng, n, 1.6, 2.6), 1.3, mu=0.7)
    assert rel_diff(z_trig_sos(p), enumerate_trig_sos(p)) < 1e-11


def test_trig_sums_where_only_the_unused_q_form_vanishes():
    """At w_1 = q^2 w_2, w_1/q - q w_2 vanishes, but the sums divide only by
    w_i/q - q w_j with i > j, so both compute and match enumeration."""
    q = 1.3
    six = TrigParams([0.5, 0.8], [q * q * 1.0, 1.0], q)
    sos = TrigParams([0.5, 0.8], [q * q * 1.0, 1.0], q, mu=0.7)
    assert rel_diff(z_6v_sum(six), enumerate_6v(six)) < 1e-12
    assert rel_diff(z_trig_sos(sos), enumerate_trig_sos(sos)) < 1e-12


def test_izergin_warns_when_ill_conditioned():
    """Clustered column parameters compound the Cauchy-type conditioning."""
    n, gap = 5, 1e-3
    z = [1.0 + k * gap for k in range(n)]
    w = [2.0 + 0.2 * k for k in range(n)]
    with pytest.warns(RuntimeWarning, match="condition number"):
        z_izergin(TrigParams(z, w, 1.3))


def test_izergin_degenerate_nodes_raise():
    with pytest.raises(DegenerateParameter, match="z"):
        z_izergin(TrigParams([1.0, 1.0], [2.0, 2.2], 1.3))
    with pytest.raises(DegenerateParameter, match="w"):
        z_izergin(TrigParams([1.0, 1.2], [2.0, 2.0], 1.3))
    with pytest.raises(DegenerateParameter, match="pole"):
        # q z_1 = w_1 / q hits a determinant-entry pole
        z_izergin(TrigParams([1.0], [1.3 * 1.3], 1.3))


def test_elliptic_sum_guards_v_collisions(ctx):
    with pytest.raises(DegenerateParameter, match=r"v\[2\] - v\[1\]"):
        z_sos_elliptic(ctx, EllipticParams([0.4, 0.5], [0.1, 0.1],
                                           0.31, 0.17))


def test_elliptic_sum_refuses_an_exact_zero_of_g_denominator(ctx):
    """At v = [0.1, 0.27], hbar = 0.17, v_2 - v_1 - hbar is exactly 0j, a
    theta denominator of G that no lattice guard covers.  The view that
    moves v_2 there raises what the sum raises, and computes again once v_2
    moves away."""
    u, v = [0.4, 0.6], [0.1, 0.5]
    runs = _view_outcomes(ctx, u, v, 0.31, 0.17, [0.5, 0.27, 0.5])
    assert runs[3][1] == ("DegenerateParameter: v[2] - v[1] - hbar = 0j lies "
                          "on the lattice Gamma (theta denominator vanishes)")
    assert isinstance(runs[3][2], complex)


@pytest.mark.parametrize("v", [[0.1, 0.27], [0.1, 0.27, 0.45]])
def test_elliptic_sum_one_ulp_from_the_zero(ctx, v):
    """One ulp from v_2 - v_1 - hbar = 0 the sum agrees with the transfer,
    which is why only an exact zero is refused."""
    u = [0.4, 0.6, 0.75][:len(v)]
    for v2 in (np.nextafter(0.27, 0.0), np.nextafter(0.27, 1.0)):
        p = EllipticParams(u, [v[0], v2, *v[2:]], 0.31, 0.17)
        assert rel_diff(z_sos_elliptic(ctx, p), column_transfer_z(ctx, p)) \
            < 1e-12


def test_elliptic_view_refuses_a_non_finite_x_as_the_sum_does(ctx):
    xs = [np.nan, 0.3, np.inf, 0.3, complex(0.2, -np.inf), 0.3]
    runs = _view_outcomes(ctx, [0.4, 0.6], [0.1, 0.5], 0.31, 0.17, xs)
    for k, run in enumerate(runs):
        refused = f"InvalidParameter: {'uv'[k // 2]} must be finite, got ("
        assert [isinstance(z, str) and z.startswith(refused)
                for z in run] == [True, False] * 3


def test_regular_at_near_v_collision(ctx):
    """Individual factors blow up like 1/eps, the full sum stays finite."""
    eps = 1e-6
    u = [0.40, 0.55, 0.71]
    v = [0.10, 0.10 + eps, 0.23]
    p = EllipticParams(u, v, 0.31, 0.17)
    zs = z_sos_elliptic(ctx, p)
    ze = enumerate_sos(ctx, p)   # manifestly regular route
    assert rel_diff(zs, ze) < 1e-6


def test_kernel_single_vertex_value(ctx):
    u, v, lam, hbar = 0.4, 0.1, 0.31, 0.17
    got = weight_kernel(ctx, EllipticParams([u], [v], lam, hbar), [v])
    expected = theta(ctx, u - v - lam) / (theta(ctx, u - v) * theta(ctx, -lam))
    assert rel_diff(got, expected) < 1e-14


def test_kernel_simple_pole_at_u_equals_v(ctx):
    """Residue check by scaling: halving the distance doubles the value."""
    v = [0.10, 0.23]
    lam, hbar = 0.31, 0.17
    vals = []
    for eps in (1e-4, 5e-5):
        p = EllipticParams([v[0] + eps, 0.55], v, lam, hbar)
        vals.append(weight_kernel(ctx, p, v))
    ratio = abs(vals[1]) / abs(vals[0])
    assert abs(ratio - 2.0) < 0.01


def test_kernel_guard_names_the_pole(ctx):
    v = [0.10, 0.23]
    p = EllipticParams([0.10, 0.55], v, 0.31, 0.17)
    with pytest.raises(DegenerateParameter, match=r"u\[1\] - vperm\[1\]"):
        weight_kernel(ctx, p, v)


@pytest.mark.parametrize("n", [2, 3])
def test_kernel_symmetrization(ctx, rng, n):
    """Symmetrising the kernel against the exchange factors rebuilds Z."""
    lam, hbar = 0.31, 0.17
    u, v = draw_spectral(rng, n), draw_spectral(rng, n)
    p = EllipticParams(u, v, lam, hbar)
    pref = theta(ctx, hbar) ** n
    for k in range(n):
        for j in range(n):
            pref *= theta(ctx, u[k] - v[j])
    for k in range(n):
        for m in range(k):
            pref *= theta(ctx, u[k] - u[m] + hbar) / theta(ctx, u[k] - u[m])
            pref *= theta(ctx, v[k] - v[m] - hbar) / theta(ctx, v[k] - v[m])

    def term(sig):
        t = 1.0 + 0j
        for a, b in inversions(sig):
            t *= theta(ctx, v[a] - v[b] + hbar) / theta(ctx, v[a] - v[b] - hbar)
        return t * weight_kernel(ctx, p, [v[s] for s in sig])

    total = pref * perm_sum(n, term)
    assert rel_diff(total, z_sos_elliptic(ctx, p)) < 1e-9


@pytest.mark.parametrize("n", range(1, 8))
def test_perm_sum_matches_the_oracle_within_the_cancellation_bound(rng, n):
    def draw():
        return complex(rng.normal(), rng.normal())

    G = [[draw() for b in range(a)] for a in range(n)]
    F = [[tuple(draw() for _ in range(rng.integers(4))) for j in range(n)]
         for m in range(n)]

    def term(sig):
        t = 1.0 + 0j
        for a, b in inversions(sig):
            t *= G[a][b]
        for m, j in enumerate(sig):
            for f in F[m][j]:
                t *= f
        return t

    err = abs(_perm_sum(G, F) - perm_sum(n, term))
    assert err <= cancellation_bound(n, G, F)
    # the planned walk changes no bit of the plain subset-DP loop
    assert _perm_sum(G, F) == perm_sum_loop(G, F)


def _elliptic_term_by_term(ctx, u, v, lam, hbar):
    """z_sos_elliptic's sum with each F[m][j] built term by term, in the
    order of its factors, and summed by the plain subset-DP loop; an
    InvalidParameter (a theta overflow) is returned as its message."""
    n = len(u)
    try:
        pref = 1.0 + 0j
        for k in range(n):
            for m in range(k):
                pref *= (theta(ctx, v[k] - v[m] - hbar)
                         / theta(ctx, v[k] - v[m]))
        th_h = theta(ctx, hbar)
        tminus = [theta(ctx, -lam - m * hbar) for m in range(n)]
        G = [[theta(ctx, v[a] - v[b] + hbar) / theta(ctx, v[a] - v[b] - hbar)
              for b in range(a)] for a in range(n)]
        F = [[tuple(theta(ctx, u[k] - v[j]) for k in range(m))
              + tuple(theta(ctx, u[k] - v[j] + hbar) for k in range(m + 1, n))
              + (theta(ctx, u[m] - v[j] - lam - m * hbar) * th_h
                 / tminus[m],)
              for j in range(n)] for m in range(n)]
        return pref * perm_sum_loop(G, F)
    except InvalidParameter as e:
        return str(e)


def _elliptic_outcome(ctx, u, v, lam, hbar):
    try:
        return z_sos_elliptic(ctx, EllipticParams(u, v, lam, hbar))
    except InvalidParameter as e:
        return str(e)


def _view_outcomes(ctx, u, v, lam, hbar, xs):
    """Run closedform's one-variable view over the sequence xs, for each
    side and each i; assert that every value, or error message, equals in
    repr what z_sos_elliptic gives at the replaced parameters, and return
    the outcomes, one list per view."""
    def outcome(f, *args):
        try:
            return f(*args)
        except (InvalidParameter, DegenerateParameter) as e:
            return f"{type(e).__name__}: {e}"

    p = EllipticParams(u, v, lam, hbar)
    runs = []
    for side in (0, 1):
        for i in range(len(u)):
            view, run = _elliptic_view(ctx, p, side, i), []
            for x in xs:
                uv = [list(u), list(v)]
                uv[side][i] = x
                want = outcome(lambda: z_sos_elliptic(
                    ctx, EllipticParams(*uv, lam, hbar)))
                run.append(outcome(view, x))
                assert repr(run[-1]) == repr(want), (side, i, x)
            runs.append(run)
    return runs


@pytest.mark.parametrize("n", range(1, 7))
def test_elliptic_pair_tables_change_no_bit(ctx_generic, rng, n):
    """z_sos_elliptic slices its F tuples from per-(k, j) theta tables; the
    value equals the plain loop over F built term by term.  The
    one-variable view, which re-evaluates only the entries its variable
    enters, equals z_sos_elliptic over a sequence that revisits a point,
    moves by the periods, and puts a v on another (a lattice guard)."""
    u, v = draw_spectral(rng, n), draw_spectral(rng, n)
    want = _elliptic_term_by_term(ctx_generic, u, v, 0.31, 0.17)
    assert _elliptic_outcome(ctx_generic, u, v, 0.31, 0.17) == want
    if n <= 4:
        a, b = draw_spectral(rng, 2)
        xs = [a, b, v[0], a + 1, a + ctx_generic.tau, b]
        runs = _view_outcomes(ctx_generic, u, v, 0.31, 0.17, xs)
        guarded = sum(isinstance(z, str) for run in runs for z in run)
        assert guarded == (n - 1)          # v_i = v_1 for each i > 1


def test_elliptic_pair_tables_evaluate_theta_as_term_by_term():
    """At tau = 0.001i theta overflows for |Re u| above about 0.31.  The
    pair tables evaluate no argument that F built term by term does not
    (at n = 1, u - v = 0.33 and u - v + hbar = 0.5 are never needed), and
    meet the arguments in the same order, so an input with several
    overflowing arguments names the same one.  The one-variable view names
    the same argument as z_sos_elliptic, also in a call after one that
    overflowed and so left its tables part updated."""
    u, v, lam, hbar = [0.33], [0.0], 0.31, 0.17
    got = _elliptic_outcome(ThetaContext(0.001j), u, v, lam, hbar)
    assert isinstance(got, complex)
    assert got == _elliptic_term_by_term(ThetaContext(0.001j), u, v, lam,
                                         hbar)

    rng, xrng = np.random.default_rng(7), np.random.default_rng(8)
    overflows = view_overflows = part_updated = 0
    for _ in range(60):
        n = int(rng.integers(2, 4))
        u = list(rng.uniform(-0.4, 0.4, n))
        v = list(np.linspace(-0.4, 0.4, n) + rng.uniform(-0.05, 0.05, n))
        want = _elliptic_term_by_term(ThetaContext(0.001j), u, v, 0.05, 0.03)
        got = _elliptic_outcome(ThetaContext(0.001j), u, v, 0.05, 0.03)
        assert repr(got) == repr(want)          # a nan equals no value
        overflows += isinstance(want, str)
        for run in _view_outcomes(ThetaContext(0.001j), u, v, 0.05, 0.03,
                                  list(xrng.uniform(-0.4, 0.4, 6))):
            kinds = [isinstance(z, str) for z in run]
            view_overflows += sum(kinds)
            # calls on tables that an overflow left part updated
            part_updated += sum(kinds[k - 1] and not all(kinds[:k - 1])
                                for k in range(2, len(kinds)))
    assert overflows >= 20     # the draws reach the overflowing arguments
    assert view_overflows >= 1000 and part_updated >= 30


@pytest.mark.parametrize("model", ["six-vertex", "sos-trig", "sos-elliptic"])
def test_sums_match_a_50_digit_reference(ctx, rng, model):
    """The float sum against the same formula in mpmath, from the exact
    float inputs, summed by the same DP at 50 digits."""
    import mpmath
    n = 6
    with mpmath.workdps(50):
        if model == "sos-elliptic":
            u, v = draw_spectral(rng, n), draw_spectral(rng, n)
            got = z_sos_elliptic(ctx, EllipticParams(u, v, 0.31, 0.17))
            pref, G, F = sos_elliptic_tables_mp(u, v, 0.31, 0.17, 1j)
        else:
            mu = 0.7 if model == "sos-trig" else None
            p = TrigParams(draw_multiplicative(rng, n),
                           draw_multiplicative(rng, n, 1.6, 2.6), 1.3, mu=mu)
            got = z_trig_sos(p) if mu else z_6v_sum(p)
            pref, G, F = trig_tables_mp(p.z, p.w, p.q, mu)
        ref = complex(pref * _perm_sum(G, F))
    assert abs(got - ref) <= abs(complex(pref)) * cancellation_bound(n, G, F)


def test_sum_cap(ctx):
    n = 10
    p = EllipticParams([0.1 * k + 0.05 for k in range(n)],
                       [0.1 * k for k in range(n)], 0.31, 0.17)
    with pytest.raises(SizeCap):
        z_sos_elliptic(ctx, p)
    p6 = TrigParams([1.0 + 0.1 * k for k in range(n)],
                    [2.0 + 0.1 * k for k in range(n)], 1.3)
    with pytest.raises(SizeCap):
        z_6v_sum(p6)
