"""R-matrix builders, weight layout, dynamical Yang-Baxter, degeneration
limits."""

import cmath
import itertools
import math

import numpy as np
import pytest

from dwbc import (DegenerateParameter, EllipticParams, InvalidParameter,
                  ThetaContext, TrigParams, dybe_residual, dybe_residual_trig,
                  enumerate_sos, gauge_rescale, sixv_rmatrix, sos_rmatrix,
                  theta, trig_nondyn_rmatrix, trig_sos_rmatrix,
                  ybe_residual_nondyn, z_izergin, z_sos_elliptic)
from dwbc.rmatrix import _BRANCHES, _SLOTS, _embed3, dybe_residual_from_builder

from helpers import draw_spectral


def test_sixv_hand_values():
    """q = 1.1, z = 2, w = 3 worked out by hand."""
    r = sixv_rmatrix(2.0, 3.0, 1.1)
    assert abs(r.a - (-29 / 55)) < 1e-14      # 2.2 - 3/1.1
    assert abs(r.b - (-1.0)) < 1e-14          # z - w
    assert abs(r.bbar - (-1.0)) < 1e-14
    assert abs(r.c - (21 / 55)) < 1e-14       # (q - 1/q) z
    assert abs(r.cbar - (63 / 110)) < 1e-14   # (q - 1/q) w


def test_entry_layout():
    """entry(alpha, beta, gamma, delta) = (top, right | bottom, left)."""
    r = sixv_rmatrix(2.0, 3.0, 1.1)
    assert r.entry(+1, +1, +1, +1) == r.a
    assert r.entry(-1, -1, -1, -1) == r.a
    assert r.entry(+1, -1, +1, -1) == r.b
    assert r.entry(-1, +1, -1, +1) == r.bbar
    assert r.entry(-1, +1, +1, -1) == r.c
    assert r.entry(+1, -1, -1, +1) == r.cbar
    # non-conserving entries vanish
    assert r.entry(+1, +1, -1, -1) == 0
    assert r.entry(+1, +1, +1, -1) == 0


def test_sos_weights_match_theta_formulas(ctx):
    lam, hbar, x = 0.31, 0.17, 0.23 + 0.04j
    a, b, bbar, c, cbar = sos_rmatrix(ctx, x, lam, hbar)
    t = lambda y: theta(ctx, y)
    assert abs(a - t(x + hbar)) < 1e-15
    assert abs(b - t(x) * t(lam + hbar) / t(lam)) < 1e-15
    assert abs(bbar - t(x) * t(lam - hbar) / t(lam)) < 1e-15
    assert abs(c - t(x + lam) * t(hbar) / t(lam)) < 1e-15
    assert abs(cbar - t(x - lam) * t(hbar) / t(-lam)) < 1e-15


def test_matrix_layout_matches_entry(ctx):
    """.m and entry() place every weight alike, for all 16 sign patterns;
    the ten patterns that break sign conservation read 0 in both."""
    signs = (1, -1)                       # basis index 0 means sign +1
    for r in (sos_rmatrix(ctx, 0.4, 0.31, 0.17),
              sixv_rmatrix(2.0, 3.0, 1.3),
              trig_sos_rmatrix(2.0, 3.0, 0.7, 1.3),
              trig_nondyn_rmatrix(2.0, 3.0, 1.3)):
        m = r.m
        assert m.shape == (4, 4)
        for (ia, alpha), (ib, beta), (ig, gamma), (id_, delta) in \
                itertools.product(enumerate(signs), repeat=4):
            val = r.entry(alpha, beta, gamma, delta)
            assert m[2 * ia + ib, 2 * ig + id_] == val
            if alpha + beta != gamma + delta:
                assert val == 0


def test_dybe_elliptic_random_draws(ctx, ctx_generic, rng):
    for context in (ctx, ctx_generic):
        for _ in range(20):
            t1, t2, t3 = draw_spectral(rng, 3)
            lam = complex(rng.uniform(0.2, 0.5), rng.uniform(-0.02, 0.02))
            hbar = rng.uniform(0.1, 0.25)
            assert dybe_residual(context, t1, t2, t3, lam, hbar) < 1e-9


def test_dybe_trig_random_draws(rng):
    for _ in range(20):
        z1, z2, z3 = (complex(a, b) for a, b in
                      zip(rng.uniform(0.5, 2.5, 3), rng.uniform(-0.2, 0.2, 3)))
        mu = complex(rng.uniform(0.4, 0.9), rng.uniform(-0.05, 0.05))
        q = rng.uniform(1.1, 1.6)
        assert dybe_residual_trig(z1, z2, z3, mu, q) < 1e-9


def test_ybe_nondyn_random_draws(rng):
    for _ in range(20):
        z1, z2, z3 = rng.uniform(0.5, 2.5, 3)
        q = rng.uniform(1.1, 1.6)
        assert ybe_residual_nondyn(z1, z2, z3, q) < 1e-9


def test_dybe_detects_corruption(ctx):
    """Zeroing one weight must break the equation by a wide margin."""
    lam, hbar = 0.31, 0.17

    def corrupted(x, k):
        return sos_rmatrix(ctx, x, lam + k * hbar, hbar)._replace(c=0)

    res = dybe_residual_from_builder(corrupted, 0.41 - 0.13, 0.41 + 0.22,
                                     0.13 + 0.22)
    assert res > 1e-3


def test_dybe_detects_perturbed_weight(ctx):
    """A ten-percent error in the a weight is loudly visible.

    (Note: swapping b and bbar outright would NOT be detected -- that is a
    legitimate dynamical gauge transformation, since bbar/b is independent
    of the spectral parameter.)
    """
    lam, hbar = 0.31, 0.17

    def perturbed(x, k):
        r = sos_rmatrix(ctx, x, lam + k * hbar, hbar)
        return r._replace(a=r.a * 1.1)

    res = dybe_residual_from_builder(perturbed, 0.41 - 0.13, 0.41 + 0.22,
                                     0.13 + 0.22)
    assert res > 1e-4


def test_dybe_residual_is_relative_at_small_tau():
    """At tau = 0.05i the weights reach ~1e7 and both sides of the equation
    far more; the residual is relative to them, so the exact weights pass
    and a 1e-6 error in one weight still shows."""
    context = ThetaContext(0.05j)
    lam, hbar = 0.31, 0.17
    t1, t2, t3 = 0.786 - 0.032j, 0.127 + 0.036j, 0.684 + 0.004j

    def exact(x, k):
        return sos_rmatrix(context, x, lam + k * hbar, hbar)

    def perturbed(x, k):
        r = exact(x, k)
        return r._replace(a=r.a * (1 + 1e-6))

    assert dybe_residual_from_builder(exact, t1 - t2, t1 - t3, t2 - t3) < 1e-13
    assert dybe_residual_from_builder(perturbed, t1 - t2, t1 - t3,
                                      t2 - t3) > 1e-9


def _dybe_multiply_as_you_build(builder, x12, x13, x23):
    """dybe_residual_from_builder as it was: each side multiplied while its
    factors are built, one builder call per factor and spectator sign."""
    def r(x, k):
        return builder(x, k).m

    lhs = (_embed3(lambda s: r(x12, 0), 0, 1, 2)
           @ _embed3(lambda s: r(x13, s), 0, 2, 1)
           @ _embed3(lambda s: r(x23, 0), 1, 2, 0))
    rhs = (_embed3(lambda s: r(x23, s), 1, 2, 0)
           @ _embed3(lambda s: r(x13, 0), 0, 2, 1)
           @ _embed3(lambda s: r(x12, s), 0, 1, 2))
    scale = max(1.0, np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs)) / scale)


@pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, 0.05j])
def test_dybe_builds_each_matrix_once(rng, tau):
    """One residual makes nine builder calls, one per (argument, shift), in
    the order the multiply-as-you-build loop first asked for each; its value
    equals that loop's bit for bit, for the elliptic, trigonometric and
    non-dynamical builders, and with a weight perturbed."""
    context = ThetaContext(tau)
    lam, hbar, q, mu = 0.31, 0.17, 1.3, 0.7

    def elliptic(x, k):
        return sos_rmatrix(context, x, lam + k * hbar, hbar)

    def perturbed(x, k):
        r = elliptic(x, k)
        return r._replace(a=r.a * (1 + 1e-6))

    builders = {
        "elliptic": elliptic, "perturbed": perturbed,
        "trig": lambda zw, k: trig_sos_rmatrix(*zw, mu * q ** (2 * k), q),
        "nondyn": lambda zw, k: trig_nondyn_rmatrix(*zw, q),
    }
    for name, builder in builders.items():
        for _ in range(3):
            t1, t2, t3 = draw_spectral(rng, 3)
            if name in ("trig", "nondyn"):
                t1, t2, t3 = (cmath.exp(2j * math.pi * t)
                              for t in (t1, t2, t3))
                xs = (t1, t2), (t1, t3), (t2, t3)
            else:
                xs = t1 - t2, t1 - t3, t2 - t3
            calls = {"new": [], "old": []}

            def logged(side, builder=builder):
                def build(x, k):
                    calls[side].append((xs.index(x), k))
                    return builder(x, k)
                return build

            got = dybe_residual_from_builder(logged("new"), *xs)
            want = _dybe_multiply_as_you_build(logged("old"), *xs)
            assert got == want, name
            assert len(calls["old"]) == 12
            assert calls["new"] == list(dict.fromkeys(calls["old"]))
            assert len(calls["new"]) == 9


def test_elliptic_to_trig_entrywise():
    """tau -> i*inf sends the elliptic matrix to the dynamical trig one."""
    ctx_far = ThetaContext(40j)
    u, v, lam, hbar, k = 0.4, 0.17, 0.31, 0.17, 2
    lam_k = lam + k * hbar
    r_ell = sos_rmatrix(ctx_far, u - v, lam_k, hbar)
    fac = 2j * math.pi * cmath.exp(1j * math.pi * (u + v))
    r_trig = trig_sos_rmatrix(cmath.exp(2j * math.pi * u),
                              cmath.exp(2j * math.pi * v),
                              cmath.exp(2j * math.pi * lam_k),
                              cmath.exp(1j * math.pi * hbar))
    assert np.max(np.abs(fac * r_ell.m - r_trig.m)) < 1e-6


def test_trig_to_nondyn_entrywise():
    r_t = trig_sos_rmatrix(2.0, 3.0, 1e8, 1.3)
    r_nd = trig_nondyn_rmatrix(2.0, 3.0, 1.3)
    assert np.max(np.abs(r_t.m - r_nd.m)) < 1e-6


def test_gauge_maps_nondyn_to_sixv():
    q = 1.3
    r_nd = trig_nondyn_rmatrix(2.0, 3.0, q)
    r_g = gauge_rescale(r_nd, 1.0 / q)
    r_6v = sixv_rmatrix(2.0, 3.0, q)
    assert np.max(np.abs(r_g.m - r_6v.m)) < 1e-14


def test_gauge_rescale_only_touches_b_weights():
    r = sixv_rmatrix(2.0, 3.0, 1.3)
    g = gauge_rescale(r, 1.7)
    assert g.a == r.a and g.c == r.c and g.cbar == r.cbar
    assert abs(g.b - 1.7 * r.b) < 1e-15
    assert abs(g.bbar - r.bbar / 1.7) < 1e-15


def test_elliptic_params_validation(ctx):
    p = EllipticParams([0.4], [0.1], 0.31, 0.17)
    p.validate(ctx)  # clean parameters pass
    with pytest.raises(DegenerateParameter):
        EllipticParams([0.4], [0.1], 0.0, 0.17).validate(ctx)
    with pytest.raises(DegenerateParameter):
        EllipticParams([0.4], [0.1], 0.31, 0.0).validate(ctx)
    with pytest.raises(DegenerateParameter):
        # lambda + k hbar hits the lattice for k = 2
        EllipticParams([0.4], [0.1], 1.0 - 2 * 0.17, 0.17).validate(ctx)
    with pytest.raises(InvalidParameter):
        EllipticParams([0.4, 0.5], [0.1], 0.31, 0.17)


def test_dynamical_range_is_checked_once_per_context(monkeypatch):
    """validate records on the context the largest n each (lam, hbar)
    passed at; a failure is never recorded."""
    import dwbc.closedform
    import dwbc.rmatrix
    calls = [0]
    guard = dwbc.rmatrix.require_off_lattice

    def counted(*args):
        calls[0] += 1
        return guard(*args)

    for mod in (dwbc.rmatrix, dwbc.closedform):
        monkeypatch.setattr(mod, "require_off_lattice", counted)

    def guards(ctx, n, lam=0.31):
        calls[0] = 0
        z_sos_elliptic(ctx, EllipticParams([0.1 * k + 0.05 for k in range(n)],
                                           [0.1 * k for k in range(n)],
                                           lam, 0.17))
        return calls[0]

    ctx = ThetaContext(1j)
    # hbar, lambda + k*hbar for |k| <= 2n, then the n(n-1)/2 v pairs
    assert guards(ctx, 3) == 1 + 13 + 3
    assert guards(ctx, 3) == 3
    assert guards(ctx, 2) == 1
    assert guards(ctx, 4) == 1 + 17 + 6
    assert guards(ctx, 3) == 3
    assert guards(ThetaContext(1j), 3) == 1 + 13 + 3
    for _ in range(2):
        with pytest.raises(DegenerateParameter,
                           match=r"^lambda \+ 2\*hbar = "):
            guards(ctx, 1, lam=1.0 - 2 * 0.17)
        assert calls[0] == 1 + 5


def test_trig_params_validation():
    """A TrigParams is checked when it is built."""
    TrigParams([2.0], [3.0], 1.3)
    TrigParams([2.0], [3.0], 1.3, mu=0.7)
    with pytest.raises(InvalidParameter):
        TrigParams([2.0], [3.0], 0.0)
    with pytest.raises(DegenerateParameter):
        TrigParams([2.0], [3.0], 1.0)       # q^2 = 1
    with pytest.raises(DegenerateParameter):
        TrigParams([2.0], [3.0], 1.3, mu=1.0)
    with pytest.raises(DegenerateParameter):
        # mu q^{2k} = 1 within the dynamical range
        TrigParams([2.0, 2.1], [3.0, 3.1], 1.3, mu=1.3 ** -2)
    with pytest.raises(InvalidParameter):
        TrigParams([2.0, 2.1], [3.0], 1.3)


NAN, INF = complex(math.nan), complex(math.inf)


@pytest.mark.parametrize("name,call", [
    ("tau", lambda: ThetaContext(complex(0, math.inf))),
    ("theta", lambda: theta(ThetaContext(1j), NAN)),
    ("theta", lambda: theta(ThetaContext(1j), INF)),
    ("z", lambda: z_izergin(TrigParams([NAN, 0.5], [0.2, 0.7], 1.3))),
    ("q", lambda: TrigParams([0.5], [0.2], INF)),
    ("mu", lambda: TrigParams([0.5], [0.2], 1.3, mu=NAN)),
    ("u", lambda: enumerate_sos(ThetaContext(1j),
                                EllipticParams([NAN], [0.2], 0.31, 0.17))),
    ("hbar", lambda: EllipticParams([0.4], [0.2], 0.31, INF)),
], ids=["tau-inf", "theta-nan", "theta-inf", "z-nan", "q-inf", "mu-nan",
        "u-nan", "hbar-inf"])
def test_non_finite_input_is_a_named_parameter_error(name, call):
    with pytest.raises(InvalidParameter, match=rf"^{name}\b"):
        call()


def test_branch_table_is_the_ice_rule_of_the_layout():
    admitted = {ab: tuple((gamma, delta) for gamma, delta, _ in branches)
                for ab, branches in _BRANCHES.items()}
    listed = {ab + gd for ab, gds in admitted.items() for gd in gds}
    assert listed == set(_SLOTS)
    assert len(listed) == 6
    for ab, gds in admitted.items():
        assert all(sum(ab) == sum(gd) for gd in gds)
    # each branch carries the weight slot _SLOTS gives its vertex
    assert all(_SLOTS[ab + (gamma, delta)] == slot
               for ab, branches in _BRANCHES.items()
               for gamma, delta, slot in branches)
    # the order fixes the descent order of the configuration routes
    assert admitted[1, -1] == admitted[-1, 1] == ((1, -1), (-1, 1))


def test_mu_near_one_is_degenerate_for_the_builder():
    # the same 1e-10 tolerance as TrigParams' mu rule
    with pytest.raises(DegenerateParameter, match="within 1e-10 of 1"):
        trig_sos_rmatrix(2.0, 3.0, 1 + 5e-11, 1.3)
