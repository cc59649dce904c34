"""Exhaustive enumeration, transfer matrix, sign configs, height fields."""

import cmath
import gc
import math
import time
import weakref

import numpy as np
import pytest

from dwbc import (SIZE_CAP, SUM_CAP, DegenerateParameter,
                  EllipticParams, InvalidParameter, SizeCap, ThetaContext,
                  TrigParams, asm_number, column_transfer_6v,
                  column_transfer_trig, column_transfer_z,
                  count_configurations, enumerate_6v,
                  enumerate_sos, enumerate_trig_sos, gauge_rescale,
                  sixv_rmatrix, sos_rmatrix, theta, trig_sos_rmatrix,
                  z_6v_sum, z_izergin, z_sos_elliptic, z_trig_sos)
from dwbc import enumeration
from dwbc.rmatrix import RMatrix4

from helpers import draw_multiplicative, draw_spectral, rel_diff
from oracles import HeightField, column_descent_loop, dwbc_sign_configs, \
    sixv_bruteforce, transfer_contract_loop, transfer_row_loop


def test_asm_numbers():
    assert [asm_number(n) for n in range(1, 8)] == [
        1, 2, 7, 42, 429, 7436, 218348]


def test_configuration_counts_match_asm():
    assert [count_configurations(n) for n in range(1, 6)] == [1, 2, 7, 42, 429]
    assert SIZE_CAP == 6
    assert count_configurations(6) == asm_number(6) == 7436


# Every route at one fixed n = 4 input.  The values are exact float results
# of the routes' arithmetic, so a changed bit means a changed order of
# multiplication or summation.
PINNED_ROUTES = {
    "enumerate_sos": -1.7771142109442755e-11 + 6.515131453027047e-12j,
    "column_transfer_z": -1.7771142109442755e-11 + 6.515131453027042e-12j,
    "z_sos_elliptic": -1.7771142109442726e-11 + 6.515131453027035e-12j,
    "enumerate_6v": -0.5619184411633938 + 3.5609459690767618j,
    "column_transfer_6v": -0.5619184411633941 + 3.560945969076763j,
    "z_6v_sum": -0.5619184411633933 + 3.5609459690767635j,
    "z_izergin": -0.5619184411633933 + 3.5609459690767626j,
    "enumerate_trig_sos": 10.346677422186822 - 30.4097073349032j,
    "column_transfer_trig": 10.346677422186836 - 30.409707334903192j,
    "z_trig_sos": 10.34667742218683 - 30.409707334903203j,
}


def test_route_values_are_pinned():
    ctx = ThetaContext(1j)
    pe = EllipticParams([0.40, 0.55 + 0.02j, 0.12, 0.71],
                        [0.10, 0.23, 0.35 - 0.03j, 0.05], 0.31, 0.17)
    pt = TrigParams([0.7 + 0.1j, 0.9, 1.2 - 0.2j, 1.5],
                    [1.7, 2.1 + 0.3j, 2.4, 2.8], 1.3, mu=0.7)
    p6 = TrigParams(pt.z, pt.w, pt.q)
    got = {
        "enumerate_sos": enumerate_sos(ctx, pe),
        "column_transfer_z": column_transfer_z(ctx, pe),
        "z_sos_elliptic": z_sos_elliptic(ctx, pe),
        "enumerate_6v": enumerate_6v(p6),
        "column_transfer_6v": column_transfer_6v(p6),
        "z_6v_sum": z_6v_sum(p6),
        "z_izergin": z_izergin(p6),
        "enumerate_trig_sos": enumerate_trig_sos(pt),
        "column_transfer_trig": column_transfer_trig(pt),
        "z_trig_sos": z_trig_sos(pt),
    }
    assert got == PINNED_ROUTES


def test_single_vertex_values(ctx, rng):
    u, v = 0.4, 0.1
    lam, hbar = 0.31, 0.17
    expected = theta(ctx, u - v - lam) * theta(ctx, hbar) / theta(ctx, -lam)
    got = enumerate_sos(ctx, EllipticParams([u], [v], lam, hbar))
    assert rel_diff(got, expected) < 1e-14

    z, w, q = 0.8 + 0.1j, 2.0 - 0.05j, 1.3
    assert rel_diff(enumerate_6v(TrigParams([z], [w], q)),
                    (q - 1 / q) * w) < 1e-14

    mu = 0.7
    expected_trig = (z - w * mu) * (q - 1 / q) / (1 - mu)
    assert rel_diff(enumerate_trig_sos(TrigParams([z], [w], q, mu=mu)),
                    expected_trig) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sixv_against_bruteforce_oracle(n, rng):
    """Exhaustive interior-edge search (test-local, independent traversal)."""
    z = draw_multiplicative(rng, n)
    w = draw_multiplicative(rng, n, 1.6, 2.6)
    p = TrigParams(z, w, 1.3)
    assert rel_diff(enumerate_6v(p), sixv_bruteforce(z, w, 1.3)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_transfer_matches_enumeration(ctx, ctx_generic, rng, n):
    # the two routes round differently; at n = 6, tau = i they part by 2.7e-11
    tol = 1e-10 if n == 6 else 1e-11
    for context in (ctx, ctx_generic):
        p = EllipticParams(draw_spectral(rng, n), draw_spectral(rng, n),
                           0.31, 0.17)
        assert rel_diff(enumerate_sos(context, p),
                        column_transfer_z(context, p)) < tol


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_trig_transfer_routes_match_enumeration(rng, n):
    z = draw_multiplicative(rng, n)
    w = draw_multiplicative(rng, n, 1.6, 2.6)
    p6 = TrigParams(z, w, 1.3)
    assert rel_diff(column_transfer_6v(p6), enumerate_6v(p6)) < 1e-11
    pt = TrigParams(z, w, 1.3, mu=0.7)
    assert rel_diff(column_transfer_trig(pt), enumerate_trig_sos(pt)) < 1e-11


def test_enumeration_expands_each_state_once(monkeypatch):
    """The column recursion is memoized on (column, right-edge signs), each
    partial filling that reaches a complete configuration multiplies in
    one table weight, and no other filling is made: the six-vertex sum at
    n = 6 reads 1,446 weights, against 1,989 with every partial filling and
    184,884 for a recursion that re-expands a state for every path reaching
    it."""
    calls = [0]

    class Counted(complex):
        """A weight that counts the products it enters as right factor."""

        def __rmul__(self, other):
            calls[0] += 1
            return complex.__rmul__(self, other)

    run = enumeration._weight_sum
    monkeypatch.setattr(enumeration, "_weight_sum", lambda n, table: run(
        n, [RMatrix4(*map(Counted, r)) for r in table]))
    enumerate_6v(_trig(6))
    assert 0 < calls[0] <= 2000     # the memo
    assert calls[0] == 1446         # one read per closing filling made


def test_transfer_asks_one_matrix_per_face_offset(monkeypatch):
    """The contraction stacks the request's table once, 71 vertex matrices
    at n = 6 and one zero matrix, not 6 * 21 = 126 matrices asked per
    column, and step (i, j) gathers one matrix per face offset of its
    s = n - j spectator spaces, not one per sign pattern."""
    stacks = []
    matrices = enumeration._matrices
    monkeypatch.setattr(enumeration, "_matrices",
                        lambda rs: stacks.append(len(rs)) or matrices(rs))
    column_transfer_6v(_trig(6))
    assert stacks == [71 + 1]
    minus = [bin(p).count("1") for p in range(2 ** 5)]
    for column in enumeration._transfer_plan(6):
        for s, take in column:
            assert len(set(zip(minus, take.tolist()))) == s + 1


def _recorded(source, log):
    """source, appending each (i, j, k) it is asked for to log."""
    def recording(i, j, k):
        log.append((i, j, k))
        return source(i, j, k)
    return recording


def _kernel_sources(n, seed):
    """{name: make} for a fresh weight source per make() at size n: the
    three models, a gauge-rescaled elliptic source, and count_configurations'
    unit source."""
    rng = np.random.default_rng([seed, n])
    ctx = ThetaContext(1j)
    pe = EllipticParams(draw_spectral(rng, n), draw_spectral(rng, n),
                        0.31, 0.17)
    pt = TrigParams(draw_multiplicative(rng, n),
                    draw_multiplicative(rng, n, 1.6, 2.6), 1.3, mu=0.7)
    rho = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3))

    def gauged(c, x, lam, hbar):
        return gauge_rescale(sos_rmatrix(c, x, lam, hbar), rho)

    return {"sos": lambda: enumeration._sos(pe, ctx, None),
            "sixv": lambda: enumeration._sixv(pt, None, None),
            "trig": lambda: enumeration._trig(pt, None, None),
            "gauge": lambda: enumeration._sos(pe, ctx, gauged),
            "unit": lambda: lambda *_: enumeration._UNIT}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_planned_routes_match_the_per_call_loops(n):
    """The planned column descent and contraction, both reading one table
    of _vertices(n)'s weights, against the loops that work everything out
    per call: the same bits.  Every vertex of _vertices(n) is one the
    descent loop asks for."""
    vertices = enumeration._vertices(n)
    routes = ((enumeration._weight_sum, column_descent_loop),
              (enumeration._transfer_contract, transfer_row_loop))
    for seed in (1, 2):
        for name, make in _kernel_sources(n, seed).items():
            source = make()
            table = [source(*v) for v in vertices]
            for planned, loop in routes:
                assert repr(planned(n, table)) == repr(loop(n, source)), \
                    (seed, name, planned)
            asked = []
            column_descent_loop(n, _recorded(source, asked))
            assert set(vertices) <= set(asked)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_vertices_outside_the_plan_contribute_nothing(n):
    """The per-call loops, which ask for every vertex, return the same bits
    when each (i, j, k) outside _vertices(n) weighs zero: the vertices
    the planned routes skip contribute nothing to Z."""
    plan = set(enumeration._vertices(n))
    zero = RMatrix4(0j, 0j, 0j, 0j, 0j)
    for seed in (1, 2):
        for name, make in _kernel_sources(n, seed).items():
            source = make()

            def planned_only(i, j, k):
                return source(i, j, k) if (i, j, k) in plan else zero

            for loop in (column_descent_loop, transfer_row_loop):
                assert repr(loop(n, planned_only)) == \
                    repr(loop(n, source)), (seed, name, loop)


def test_a_new_request_builds_no_plan():
    """The plans depend on n only: once a size has run, requests with new
    weights, of any model, find every plan in the cache."""
    ctx = ThetaContext(1j)
    enumerate_6v(_trig(6))
    column_transfer_6v(_trig(6))
    plans = (enumeration._vertices, enumeration._descent_plan,
             enumeration._transfer_plan)
    misses = [plan.cache_info().misses for plan in plans]
    p = TrigParams([0.9 + 0.1j * k for k in range(6)],
                   [1.9 - 0.1j * k for k in range(6)], 1.2, mu=0.6)
    enumerate_6v(p)
    column_transfer_trig(p)
    enumerate_sos(ctx, _elliptic(6))
    column_transfer_z(ctx, _elliptic(6))
    assert count_configurations(6) == 7436
    assert [plan.cache_info().misses for plan in plans] == misses


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_vertices_are_the_heights_the_configurations_reach(n):
    """_vertices(n)'s closed form lists, once each, exactly the (i, j, k)
    whose face offset k some domain-wall configuration puts beside vertex
    (i, j)."""
    vertices = enumeration._vertices(n)
    reached = {(i, j, int(offsets[i, j]))
               for cfg in dwbc_sign_configs(n)
               for offsets in (HeightField.from_signs(cfg).offsets,)
               for i in range(1, n + 1) for j in range(1, n + 1)}
    assert len(set(vertices)) == len(vertices)
    assert set(vertices) == reached


def test_the_transfer_builds_no_descent_plan():
    """The contraction's plan reads only the vertex list: the transfer
    routes run at every size build no descent plan."""
    ctx = ThetaContext(1j)
    enumeration._descent_plan.cache_clear()
    for n in range(1, SIZE_CAP + 1):
        column_transfer_z(ctx, _elliptic(n))
        column_transfer_6v(_trig(n))
        column_transfer_trig(_trig(n, mu=0.7))
    assert enumeration._descent_plan.cache_info().misses == 0


def _count_builds(monkeypatch, name):
    """Count the calls the routes make to enumeration's binding of the
    R-matrix builder `name`; returns the one-element counter."""
    calls = [0]
    make = getattr(enumeration, name)

    def counted(*args):
        calls[0] += 1
        return make(*args)

    monkeypatch.setattr(enumeration, name, counted)
    return calls


def _elliptic(n):
    return EllipticParams([0.1 * k for k in range(n)],
                          [0.05 + 0.1 * k for k in range(n)], 0.31, 0.17)


def test_routes_share_one_vertex_source(monkeypatch):
    """Enumeration and transfer on one (params, context) build each vertex
    once between them: at n = 4 both read the vertex plan's 26 (i, j, k),
    so 26 elliptic builds, not 52; the six-vertex table at n = 6 is 36
    builds, not 2 x 36."""
    sos = _count_builds(monkeypatch, "sos_rmatrix")
    ctx, p = ThetaContext(0.1j), _elliptic(4)
    enumerate_sos(ctx, p)
    assert sos[0] == 26
    column_transfer_z(ctx, p)
    assert sos[0] == 26
    sixv = _count_builds(monkeypatch, "sixv_rmatrix")
    p6 = _trig(6)
    enumerate_6v(p6)
    column_transfer_6v(p6)
    assert sixv[0] == 36


def test_shared_source_gives_each_route_its_own_value(monkeypatch):
    """Values with the shared source equal those of routes run each on a
    fresh params object, bit for bit, and the trigonometric SOS source is
    shared too."""
    ctx = ThetaContext(0.05j)
    p = _elliptic(4)
    assert column_transfer_z(ctx, p) == column_transfer_z(ctx, _elliptic(4))
    assert enumerate_sos(ctx, p) == enumerate_sos(ctx, _elliptic(4))
    trig = _count_builds(monkeypatch, "trig_sos_rmatrix")
    pt = _trig(4, mu=0.7)
    enumerate_trig_sos(pt)
    built = trig[0]
    column_transfer_trig(pt)
    assert trig[0] == 26 == built


def test_custom_rmatrix_fn_builds_its_own_weights(monkeypatch):
    """A custom rmatrix_fn neither reads nor fills the shared source."""
    sos = _count_builds(monkeypatch, "sos_rmatrix")
    ctx, p = ThetaContext(1j), _elliptic(3)
    custom = [0]

    def gauged(*args):
        custom[0] += 1
        return sos_rmatrix(*args)

    enumerate_sos(ctx, p, rmatrix_fn=gauged)
    assert (custom[0], sos[0]) == (13, 0)
    enumerate_sos(ctx, p)
    assert sos[0] == 13                     # not filled by the custom run
    enumerate_sos(ctx, p, rmatrix_fn=gauged)
    assert (custom[0], sos[0]) == (26, 13)  # nor read by the next one
    sixv = _count_builds(monkeypatch, "sixv_rmatrix")
    p6 = _trig(3)
    enumerate_6v(p6)
    enumerate_6v(p6, rmatrix_fn=sixv_rmatrix)
    assert sixv[0] == 9
    assert enumerate_6v(p6, rmatrix_fn=lambda *a: enumeration._UNIT) == 7


def test_equal_params_or_contexts_never_share_a_source(monkeypatch):
    """Sources are told apart by identity: two equal but distinct params
    objects, or two contexts (here equal up to the sign of Re tau's zero),
    each build their own weights."""
    sos = _count_builds(monkeypatch, "sos_rmatrix")
    ctx = ThetaContext(1j)
    p, q = _elliptic(3), _elliptic(3)
    assert p == q and p is not q
    enumerate_sos(ctx, p)
    enumerate_sos(ctx, q)
    assert sos[0] == 2 * 13
    twin = ThetaContext(complex(-0.0, 1.0))
    assert twin == ctx and twin is not ctx
    enumerate_sos(twin, p)
    assert sos[0] == 3 * 13
    # equal up to signed zeros: 0.0 == -0.0 in u[0]
    zero, minus_zero = (EllipticParams([x, 0.1, 0.2], [0.05, 0.15, 0.25],
                                       0.31, 0.17) for x in (0.0, -0.0))
    assert zero == minus_zero
    enumerate_sos(ctx, zero)
    enumerate_sos(ctx, minus_zero)
    assert sos[0] == 5 * 13


def test_params_keep_only_the_last_context_alive(monkeypatch):
    """A params object run on a second context drops its source for the
    first, so a loop over contexts keeps one alive, not every one; a route
    on the first context again builds afresh."""
    sos = _count_builds(monkeypatch, "sos_rmatrix")
    p, first = _elliptic(3), ThetaContext(1j)
    gone = weakref.ref(first)
    enumerate_sos(first, p)
    second = ThetaContext(0.5j)
    enumerate_sos(second, p)
    del first
    gc.collect()
    assert gone() is None
    assert sos[0] == 2 * 13
    enumerate_sos(second, p)
    assert sos[0] == 2 * 13
    enumerate_sos(ThetaContext(1j), p)
    assert sos[0] == 3 * 13


def _exp_ns(passes=7, reps=2000):
    """cmath.exp's cost in ns per call, the least of several passes."""
    best = math.inf
    for _ in range(passes):
        t0 = time.perf_counter()
        for _ in range(reps):
            cmath.exp(0.3 + 0.2j)
        best = min(best, time.perf_counter() - t0)
    return 1e9 * best / reps


def test_transfer_leaves_libm_at_full_speed():
    """On some BLAS kernels a complex matmul returns with the vector unit in
    a state that slows every later libm call 7-15x, theta's included; the
    transfer must not hand that state on, nor its test oracle.  Where a bare matmul does not
    slow cmath.exp at least 3x there is nothing to test."""
    a = np.ones((4, 4), dtype=complex)
    np.abs(a[:1, :1])                   # clears what earlier tests left
    clean = _exp_ns()
    a @ a
    dirty = _exp_ns()
    np.abs(a[:1, :1])
    if dirty < 3 * clean:
        pytest.skip(f"a complex matmul leaves cmath.exp at {dirty:.0f} ns "
                    f"against {clean:.0f} ns")
    column_transfer_z(ThetaContext(0.1j), _elliptic(4))
    # a few readings, so that one preempted pass cannot fail the test
    assert min(_exp_ns() for _ in range(4)) < 2 * clean
    # nor must the tests' per-pattern oracle, for the tests that follow it
    transfer_contract_loop(3, lambda i, j, k: enumeration._UNIT)
    assert min(_exp_ns() for _ in range(4)) < 2 * clean


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_transfer_matches_per_pattern_loop(ctx, rng, n):
    """The batched contraction against one tensordot per spectator sign
    pattern, for each model's weights."""
    q, mu, lam, hbar = 1.3, 0.7, 0.31, 0.17
    z = draw_multiplicative(rng, n)
    w = draw_multiplicative(rng, n, 1.6, 2.6)
    u, v = draw_spectral(rng, n), draw_spectral(rng, n)
    routes = [
        (column_transfer_6v(TrigParams(z, w, q)),
         lambda i, j, k: sixv_rmatrix(z[i - 1], w[j - 1], q)),
        (column_transfer_trig(TrigParams(z, w, q, mu=mu)),
         lambda i, j, k: trig_sos_rmatrix(z[i - 1], w[j - 1],
                                          mu * q ** (2 * k), q)),
        (column_transfer_z(ctx, EllipticParams(u, v, lam, hbar)),
         lambda i, j, k: sos_rmatrix(ctx, u[i - 1] - v[j - 1],
                                     lam + k * hbar, hbar)),
    ]
    for got, rfn in routes:
        assert rel_diff(got, transfer_contract_loop(n, rfn)) < 1e-13


def test_sign_config_boundaries_and_ice_rule():
    for n in (2, 3, 4):
        count = 0
        for cfg in dwbc_sign_configs(n):
            count += 1
            assert np.all(cfg.alpha[:, n - 1] == 1)    # top edges out +
            assert np.all(cfg.gamma[:, 0] == -1)       # bottom edges in -
            assert np.all(cfg.beta[0, :] == -1)        # right edges out -
            assert np.all(cfg.delta[n - 1, :] == 1)    # left edges in +
            # each interior edge carries one sign seen from both sides
            assert np.array_equal(cfg.gamma[:, 1:], cfg.alpha[:, :-1])
            assert np.array_equal(cfg.delta[:-1, :], cfg.beta[1:, :])
            # sign conservation at every vertex
            assert np.array_equal(cfg.alpha + cfg.beta, cfg.gamma + cfg.delta)
            # alpha and gamma are derived from the states: still edge signs
            assert np.all(np.abs(cfg.alpha) == 1)
            assert np.all(np.abs(cfg.gamma) == 1)
        assert count == asm_number(n)


def test_height_field_dictionary():
    """DWBC heights: forced staircase boundaries, unit steps everywhere."""
    for n in (2, 3, 4):
        for cfg in dwbc_sign_configs(n):
            off = HeightField.from_signs(cfg).offsets
            assert off[n, n] == 0
            for i in range(n + 1):
                assert off[i, n] == n - i          # top face row
                assert off[i, 0] == i              # bottom face row
            for j in range(n + 1):
                assert off[n, j] == n - j          # leftmost face column
                assert off[0, j] == j              # rightmost face column
            assert HeightField.from_signs(cfg).step_violations() == 0


def test_heights_carry_the_base_value():
    cfg = next(dwbc_sign_configs(2))
    h = HeightField.from_signs(cfg).heights(0.31, 0.17)
    assert abs(h[2, 2] - 0.31 / 0.17) < 1e-14
    assert abs(h[0, 2] - (0.31 / 0.17 + 2)) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_weight_rebuild_from_sign_configs(ctx, rng, n):
    """Recompute the state sum face-by-face from the published dictionary:
    the dynamical parameter of vertex (i, j) is the height of the face
    between columns i, i+1 and rows j, j+1."""
    lam, hbar = 0.31, 0.17
    u = draw_spectral(rng, n)
    v = draw_spectral(rng, n)
    total = 0.0 + 0.0j
    for cfg in dwbc_sign_configs(n):
        off = HeightField.from_signs(cfg).offsets
        w = 1.0 + 0.0j
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                r = sos_rmatrix(ctx, u[i - 1] - v[j - 1],
                                lam + off[i, j] * hbar, hbar)
                w *= r.entry(int(cfg.alpha[i - 1, j - 1]),
                             int(cfg.beta[i - 1, j - 1]),
                             int(cfg.gamma[i - 1, j - 1]),
                             int(cfg.delta[i - 1, j - 1]))
        total += w
    direct = enumerate_sos(ctx, EllipticParams(u, v, lam, hbar))
    assert rel_diff(total, direct) < 1e-12


def test_trig_routes_share_the_dynamical_guard(rng):
    """mu*q^(2k) = 1 at a face offset k < 0, which only the routes reach.
    TrigParams rejects it when it is built, so enumeration, transfer and
    the permutation sum share one guard and none is handed such a mu."""
    n = 2
    z, w = draw_multiplicative(rng, n), draw_multiplicative(rng, n, 1.6, 2.6)
    with pytest.raises(DegenerateParameter, match=r"mu\*q"):
        TrigParams(z, w, 1.3, mu=1.6900000000169)


def test_trig_routes_share_the_mu_requirement():
    pt = TrigParams([1.0, 1.1], [2.0, 2.1], 1.3)
    for route in (enumerate_trig_sos, column_transfer_trig, z_trig_sos):
        with pytest.raises(InvalidParameter,
                           match="^the trigonometric SOS model needs mu$"):
            route(pt)


def _elliptic(n):
    return EllipticParams([0.1 * k + 0.05 for k in range(n)],
                          [0.1 * k for k in range(n)], 0.31, 0.17)


def _trig(n, mu=None):
    return TrigParams([1.0 + 0.1 * k for k in range(n)],
                      [2.0 + 0.1 * k for k in range(n)], 1.3, mu)


# (route, its cap, call at size n); every capped public function is
# listed, and the test oracle dwbc_sign_configs
CAPPED = {
    "enumerate_6v": ("enumeration", SIZE_CAP,
                     lambda c, n: enumerate_6v(_trig(n))),
    "enumerate_sos": ("enumeration", SIZE_CAP,
                      lambda c, n: enumerate_sos(c, _elliptic(n))),
    "enumerate_trig_sos": ("enumeration", SIZE_CAP,
                           lambda c, n: enumerate_trig_sos(_trig(n, 0.7))),
    "count_configurations": ("enumeration", SIZE_CAP,
                             lambda c, n: count_configurations(n)),
    "dwbc_sign_configs": ("enumeration", SIZE_CAP,
                          lambda c, n: list(dwbc_sign_configs(n))),
    "column_transfer_z": ("transfer-matrix", SIZE_CAP,
                          lambda c, n: column_transfer_z(c, _elliptic(n))),
    "column_transfer_6v": ("transfer-matrix", SIZE_CAP,
                           lambda c, n: column_transfer_6v(_trig(n))),
    "column_transfer_trig": ("transfer-matrix", SIZE_CAP,
                             lambda c, n: column_transfer_trig(_trig(n, 0.7))),
    "z_sos_elliptic": ("permutation-sum", SUM_CAP,
                       lambda c, n: z_sos_elliptic(c, _elliptic(n))),
    "z_6v_sum": ("permutation-sum", SUM_CAP,
                 lambda c, n: z_6v_sum(_trig(n))),
    "z_trig_sos": ("permutation-sum", SUM_CAP,
                   lambda c, n: z_trig_sos(_trig(n, 0.7))),
}


@pytest.mark.parametrize("name", CAPPED)
def test_size_cap(ctx, name):
    route, cap, call = CAPPED[name]
    with pytest.raises(SizeCap, match=f"exceeds the {route} cap {cap}$"):
        call(ctx, cap + 1)
