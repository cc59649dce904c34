"""Exhaustive enumeration, transfer matrix, sign configs, height fields."""

import numpy as np
import pytest

from dwbc import (DegenerateParameter, EllipticParams, HeightField,
                  SignConfig, SizeCap, ThetaContext, TrigParams, asm_number,
                  column_transfer_6v, column_transfer_trig, column_transfer_z,
                  count_configurations, dwbc_sign_configs, enumerate_6v,
                  enumerate_sos, enumerate_trig_sos, sos_rmatrix, theta)

from helpers import draw_multiplicative, draw_spectral, rel_diff
from oracles import sixv_bruteforce


def test_asm_numbers():
    assert [asm_number(n) for n in range(1, 8)] == [
        1, 2, 7, 42, 429, 7436, 218348]


def test_configuration_counts_match_asm():
    assert [count_configurations(n) for n in range(1, 6)] == [1, 2, 7, 42, 429]


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_transfer_matches_enumeration(ctx, ctx_generic, rng, n):
    for context in (ctx, ctx_generic):
        p = EllipticParams(draw_spectral(rng, n), draw_spectral(rng, n),
                           0.31, 0.17)
        assert rel_diff(enumerate_sos(context, p),
                        column_transfer_z(context, p)) < 1e-11


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trig_transfer_routes_match_enumeration(rng, n):
    z = draw_multiplicative(rng, n)
    w = draw_multiplicative(rng, n, 1.6, 2.6)
    p6 = TrigParams(z, w, 1.3)
    assert rel_diff(column_transfer_6v(p6), enumerate_6v(p6)) < 1e-11
    pt = TrigParams(z, w, 1.3, mu=0.7)
    assert rel_diff(column_transfer_trig(pt), enumerate_trig_sos(pt)) < 1e-11


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


@pytest.mark.parametrize("n", [2, 3])
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
    """mu*q^(2k) = 1 at a face offset k < 0, which only the routes see;
    enumeration and transfer reject it alike."""
    n = 2
    pt = TrigParams(draw_multiplicative(rng, n),
                    draw_multiplicative(rng, n, 1.6, 2.6), 1.3,
                    mu=1.6900000000169)
    for route in (enumerate_trig_sos, column_transfer_trig):
        with pytest.raises(DegenerateParameter, match=r"mu\*q"):
            route(pt)


def test_size_cap(ctx):
    n = 7
    p = TrigParams([1.0] * n, [2.0] * n, 1.3)
    with pytest.raises(SizeCap):
        enumerate_6v(p)
    pe = EllipticParams([0.4] * n, [0.1] * n, 0.31, 0.17)
    with pytest.raises(SizeCap):
        column_transfer_z(ctx, pe)
    with pytest.raises(SizeCap):
        column_transfer_6v(p)
    with pytest.raises(SizeCap):
        list(dwbc_sign_configs(n))
    # an explicit cap widens the limit
    with pytest.raises(SizeCap):
        enumerate_6v(TrigParams([1.0] * 2, [2.0] * 2, 1.3), cap=1)
