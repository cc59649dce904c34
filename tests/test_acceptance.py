"""Acceptance gate: twelve end-to-end criteria, one test and one summary
line each (rendered by the hook in conftest.py after the run)."""

import cmath
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dwbc import (Character, EllipticParams, ThetaContext, TrigParams,
                  addition_formula_residual, asm_number, column_transfer_6v,
                  column_transfer_z, count_configurations, dybe_residual,
                  dybe_residual_trig, enumerate_6v, enumerate_sos,
                  gauge_rescale, interpolate, is_on_lattice,
                  membership_residual, qj_interpolation_residual,
                  recursion_factor, sixv_rmatrix, sos_rmatrix, theta,
                  theta_deriv_at_zero, theta_product_poly,
                  trig_nondyn_rmatrix, trig_sos_rmatrix, vandermonde_ratio,
                  weight_kernel, ybe_residual_nondyn, z_6v_sum, z_izergin,
                  z_sos_elliptic, z_trig_sos)

from helpers import (draw_multiplicative, draw_spectral, record_criterion,
                     rel_diff)
from oracles import inversions, perm_sum, theta_series

LAM, HBAR = 0.31, 0.17
TAUS = [1j, 0.3 + 0.8j]


@contextmanager
def criterion(number, description):
    detail = []
    try:
        yield detail
    except BaseException:
        record_criterion(number, description, False, "; ".join(detail))
        raise
    record_criterion(number, description, True, "; ".join(detail))


def test_criterion_01_initial_condition(ctx):
    with criterion(1, "single-vertex value, three routes, < 1 ms") as det:
        u, v = 0.4, 0.1
        p = EllipticParams([u], [v], LAM, HBAR)
        expected = theta(ctx, u - v - LAM) * theta(ctx, HBAR) / theta(ctx, -LAM)
        routes = {
            "sum": lambda: z_sos_elliptic(ctx, p),
            "enumerate": lambda: enumerate_sos(ctx, p),
            "transfer": lambda: column_transfer_z(ctx, p),
        }
        worst_rel = 0.0
        worst_time = 0.0
        for name, fn in routes.items():
            fn()  # warm caches before timing
            best = min(_timed(fn) for _ in range(5))
            value = fn()
            worst_rel = max(worst_rel, rel_diff(value, expected))
            worst_time = max(worst_time, best)
        det.append(f"max rel {worst_rel:.1e}, max time {worst_time * 1e3:.3f} ms")
        assert worst_rel < 1e-11
        assert worst_time < 1e-3


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_three_route_agreement():
    with criterion(2, "elliptic three-route agreement, n = 2..4, "
                      "10 draws each, < 30 s") as det:
        rng = np.random.default_rng(11)
        t0 = time.perf_counter()
        worst = 0.0
        for n in (2, 3, 4):
            for draw in range(10):
                context = ThetaContext(TAUS[draw % 2])
                p = EllipticParams(draw_spectral(rng, n),
                                   draw_spectral(rng, n), LAM, HBAR)
                zs = z_sos_elliptic(context, p)
                ze = enumerate_sos(context, p)
                zt = column_transfer_z(context, p)
                worst = max(worst, rel_diff(zs, ze), rel_diff(zs, zt),
                            rel_diff(ze, zt))
        elapsed = time.perf_counter() - t0
        det.append(f"max rel {worst:.1e}, {elapsed:.1f} s")
        assert worst < 1e-9
        assert elapsed < 30.0


def test_criterion_03_trig_routes():
    with criterion(3, "six-vertex routes: four-way n <= 4, "
                      "determinant vs sum n <= 7, < 60 s") as det:
        rng = np.random.default_rng(13)
        t0 = time.perf_counter()
        worst = 0.0
        for n in range(1, 8):
            z = draw_multiplicative(rng, n)
            w = draw_multiplicative(rng, n, 1.6, 2.6)
            p = TrigParams(z, w, 1.3)
            zi = z_izergin(p)
            zs = z_6v_sum(p)
            worst = max(worst, rel_diff(zi, zs))
            if n <= 4:
                worst = max(worst, rel_diff(zi, enumerate_6v(p)),
                            rel_diff(zi, column_transfer_6v(p)))
        elapsed = time.perf_counter() - t0
        det.append(f"max rel {worst:.1e}, {elapsed:.1f} s")
        assert worst < 1e-9
        assert elapsed < 60.0


def test_criterion_04_recursion(ctx):
    with criterion(4, "recursion at u_n = v_n - hbar, n = 2..5") as det:
        rng = np.random.default_rng(17)
        worst = 0.0
        for n in (2, 3, 4, 5):
            u, v = draw_spectral(rng, n), draw_spectral(rng, n)
            u[-1] = v[-1] - HBAR
            p = EllipticParams(u, v, LAM, HBAR)
            reduced = EllipticParams(u[:-1], v[:-1], LAM, HBAR)
            lhs = z_sos_elliptic(ctx, p)
            rhs = recursion_factor(ctx, p) * z_sos_elliptic(ctx, reduced)
            worst = max(worst, rel_diff(lhs, rhs))
        det.append(f"max rel {worst:.1e}")
        assert worst < 1e-9


def test_criterion_05_symmetry(ctx):
    with criterion(5, "invariance under row/column permutations, "
                      "n <= 4, 10 draws each") as det:
        rng = np.random.default_rng(19)
        worst = 0.0
        for n in (2, 3, 4):
            u, v = draw_spectral(rng, n), draw_spectral(rng, n)
            base = z_sos_elliptic(ctx, EllipticParams(u, v, LAM, HBAR))
            for _ in range(10):
                pu = [u[i] for i in rng.permutation(n)]
                worst = max(worst, rel_diff(
                    z_sos_elliptic(ctx, EllipticParams(pu, v, LAM, HBAR)),
                    base))
                pv = [v[i] for i in rng.permutation(n)]
                worst = max(worst, rel_diff(
                    z_sos_elliptic(ctx, EllipticParams(u, pv, LAM, HBAR)),
                    base))
        det.append(f"max rel {worst:.1e}")
        assert worst < 1e-9


def test_criterion_06_elliptic_polynomiality(ctx):
    with criterion(6, "membership of Z in each variable, n <= 3") as det:
        rng = np.random.default_rng(23)
        worst = 0.0
        for n in (2, 3):
            u, v = draw_spectral(rng, n), draw_spectral(rng, n)
            chi_u = Character(n, LAM + sum(v))
            chi_v = Character(n, -LAM + sum(u))
            for slot in range(n):
                def f_u(x, slot=slot):
                    uu = list(u)
                    uu[slot] = x
                    return z_sos_elliptic(ctx, EllipticParams(uu, v, LAM, HBAR))

                def f_v(x, slot=slot):
                    vv = list(v)
                    vv[slot] = x
                    return z_sos_elliptic(ctx, EllipticParams(u, vv, LAM, HBAR))

                worst = max(worst,
                            membership_residual(ctx, f_u, chi_u, samples=6,
                                                rng=rng),
                            membership_residual(ctx, f_v, chi_v, samples=6,
                                                rng=rng))
        det.append(f"max residual {worst:.1e}")
        assert worst < 1e-9


def test_criterion_07_yang_baxter():
    with criterion(7, "dynamical Yang-Baxter (elliptic + trig), "
                      "ordinary YBE, 20 draws") as det:
        rng = np.random.default_rng(29)
        worst = 0.0
        for k in range(20):
            context = ThetaContext(TAUS[k % 2])
            t1, t2, t3 = draw_spectral(rng, 3)
            lam = complex(rng.uniform(0.2, 0.5), rng.uniform(-0.02, 0.02))
            hbar = rng.uniform(0.1, 0.25)
            worst = max(worst, dybe_residual(context, t1, t2, t3, lam, hbar))
            z1, z2, z3 = draw_multiplicative(rng, 3, 0.5, 2.5)
            mu = complex(rng.uniform(0.4, 0.9), rng.uniform(-0.05, 0.05))
            q = rng.uniform(1.1, 1.6)
            worst = max(worst, dybe_residual_trig(z1, z2, z3, mu, q))
            worst = max(worst, ybe_residual_nondyn(z1, z2, z3, q))
        det.append(f"max residual {worst:.1e}")
        assert worst < 1e-9


def test_criterion_08_degeneration_chain():
    with criterion(8, "degeneration chain elliptic -> trig -> six-vertex "
                      "and gauge invariance") as det:
        rng = np.random.default_rng(31)
        ctx40 = ThetaContext(40j)
        q = cmath.exp(1j * math.pi * HBAR)
        mu = cmath.exp(2j * math.pi * LAM)
        worst_proxy = 0.0

        # entrywise R-matrix chain
        u0, v0 = draw_spectral(rng, 2)
        z0, w0 = cmath.exp(2j * math.pi * u0), cmath.exp(2j * math.pi * v0)
        fac = 2j * math.pi * cmath.exp(1j * math.pi * (u0 + v0))
        d = np.max(np.abs(fac * sos_rmatrix(ctx40, u0 - v0, LAM, HBAR).m
                          - trig_sos_rmatrix(z0, w0, mu, q).m))
        worst_proxy = max(worst_proxy, d)
        d = np.max(np.abs(trig_sos_rmatrix(z0, w0, 1e8, q).m
                          - trig_nondyn_rmatrix(z0, w0, q).m))
        worst_proxy = max(worst_proxy, d)
        d = np.max(np.abs(gauge_rescale(trig_nondyn_rmatrix(z0, w0, q),
                                        1.0 / q).m
                          - sixv_rmatrix(z0, w0, q).m))
        worst_proxy = max(worst_proxy, d)

        # partition-function chain, n <= 3
        for n in (1, 2, 3):
            u = draw_spectral(rng, n)
            v = draw_spectral(rng, n)
            z = [cmath.exp(2j * math.pi * x) for x in u]
            w = [cmath.exp(2j * math.pi * x) for x in v]
            pref = (2j * math.pi) ** (n * n) \
                * cmath.exp(1j * math.pi * n * (sum(u) + sum(v)))
            z_ell = z_sos_elliptic(ctx40, EllipticParams(u, v, LAM, HBAR))
            z_tr = z_trig_sos(TrigParams(z, w, q, mu=mu))
            worst_proxy = max(worst_proxy, rel_diff(pref * z_ell, z_tr))
            z_tr_inf = z_trig_sos(TrigParams(z, w, q, mu=1e8))
            z6 = z_6v_sum(TrigParams(z, w, q))
            worst_proxy = max(worst_proxy, rel_diff(z_tr_inf, z6))

        # gauge invariance of the state sums at random rho
        ctx = ThetaContext(1j)
        rho = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3))
        worst_gauge = 0.0
        pe = EllipticParams(draw_spectral(rng, 3), draw_spectral(rng, 3),
                            LAM, HBAR)
        worst_gauge = max(worst_gauge, rel_diff(
            enumerate_sos(ctx, pe,
                          rmatrix_fn=lambda c, x, l, h: gauge_rescale(
                              sos_rmatrix(c, x, l, h), rho)),
            enumerate_sos(ctx, pe)))
        pt = TrigParams(draw_multiplicative(rng, 3),
                        draw_multiplicative(rng, 3, 1.6, 2.6), 1.3)
        worst_gauge = max(worst_gauge, rel_diff(
            enumerate_6v(pt, rmatrix_fn=lambda z_, w_, q_: gauge_rescale(
                sixv_rmatrix(z_, w_, q_), rho)),
            enumerate_6v(pt)))
        det.append(f"max proxy residual {worst_proxy:.1e}, "
                   f"max gauge residual {worst_gauge:.1e}")
        assert worst_proxy < 1e-6
        assert worst_gauge < 1e-10


def test_criterion_09_appendix_identities(ctx):
    with criterion(9, "interpolation n <= 6, addition formula n <= 5, "
                      "node interpolation, Vandermonde constancy") as det:
        rng = np.random.default_rng(37)
        alpha = 0.27 + 0.03j
        worst = 0.0
        for n in range(2, 7):
            zeros = draw_spectral(rng, n - 1)
            zeros.append(alpha - sum(zeros))
            f = lambda x: theta_product_poly(ctx, zeros, x)
            nodes = draw_spectral(rng, n)
            values = [f(x) for x in nodes]
            for x in draw_spectral(rng, 3):
                worst = max(worst,
                            rel_diff(interpolate(ctx, nodes, values, alpha, x),
                                     f(x)))
        for n in (2, 3, 4, 5):
            worst = max(worst, addition_formula_residual(
                ctx, draw_spectral(rng, n), draw_spectral(rng, n),
                0.4 + 0.01j))
        for n, j in ((2, 2), (3, 3), (5, 4)):
            worst = max(worst, qj_interpolation_residual(
                ctx, draw_spectral(rng, n), LAM, HBAR, j, 0.37 + 0.02j))
        assert worst < 1e-9

        basis = []
        for _ in range(3):
            zz = draw_spectral(rng, 2)
            zz.append(alpha - sum(zz))
            basis.append(lambda x, zz=tuple(zz): theta_product_poly(ctx, zz, x))
        r1 = vandermonde_ratio(ctx, basis, draw_spectral(rng, 3), alpha)
        r2 = vandermonde_ratio(ctx, basis, draw_spectral(rng, 3), alpha)
        vdm = rel_diff(r1, r2)
        det.append(f"max residual {worst:.1e}, vandermonde drift {vdm:.1e}")
        assert vdm < 1e-8


def test_criterion_10_theta_invariants():
    with criterion(10, "theta engine invariants and series oracle") as det:
        rng = np.random.default_rng(41)
        worst_series = 0.0
        worst_qp = 0.0
        for tau in TAUS:
            context = ThetaContext(tau)
            assert abs(theta_deriv_at_zero(context) - 1.0) < 1e-9
            pts = rng.uniform(-1.5, 1.5, 50) + 1j * rng.uniform(-0.3, 0.3, 50)
            for x in pts:
                x = complex(x)
                if is_on_lattice(context, x, 1e-6):
                    continue
                a = theta(context, x)
                worst_series = max(worst_series,
                                   abs(a - theta_series(x, tau)) / abs(a))
                assert abs(theta(context, -x) + a) < 1e-12
                qp1 = abs(theta(context, x + 1) + a)
                qp2 = abs(theta(context, x + tau)
                          + cmath.exp(-2j * cmath.pi * x
                                      - 1j * cmath.pi * tau) * a)
                worst_qp = max(worst_qp, qp1, qp2 / max(1.0, abs(a)))
            for m in (-1, 0, 2):
                for k in (-1, 0, 1):
                    assert abs(theta(context, m + k * tau)) < 1e-10
        ctx10 = ThetaContext(10j)
        worst_trig = max(
            abs(theta(ctx10, float(x)) - math.sin(math.pi * x) / math.pi)
            for x in np.linspace(-0.5, 0.5, 41))
        det.append(f"series {worst_series:.1e}, quasi-periodicity "
                   f"{worst_qp:.1e}, trig limit {worst_trig:.1e}")
        assert worst_series < 1e-11
        assert worst_qp < 1e-10
        assert worst_trig < 1e-6


def test_criterion_11_configuration_counts():
    with criterion(11, "DWBC configuration counts are the ASM numbers "
                       "1, 2, 7, 42, 429") as det:
        counts = [count_configurations(n) for n in range(1, 6)]
        det.append(f"counts {counts}")
        assert counts == [asm_number(n) for n in range(1, 6)]
        assert counts == [1, 2, 7, 42, 429]


def test_criterion_12_kernel_symmetrization(ctx):
    with criterion(12, "kernel symmetrization rebuilds Z, n <= 4") as det:
        rng = np.random.default_rng(43)
        worst = 0.0
        for n in (2, 3, 4):
            u, v = draw_spectral(rng, n), draw_spectral(rng, n)
            p = EllipticParams(u, v, LAM, HBAR)
            pref = theta(ctx, HBAR) ** n
            for k in range(n):
                for j in range(n):
                    pref *= theta(ctx, u[k] - v[j])
            for k in range(n):
                for m in range(k):
                    pref *= theta(ctx, u[k] - u[m] + HBAR) \
                        / theta(ctx, u[k] - u[m])
                    pref *= theta(ctx, v[k] - v[m] - HBAR) \
                        / theta(ctx, v[k] - v[m])

            def term(sig):
                t = 1.0 + 0j
                for a, b in inversions(sig):
                    t *= theta(ctx, v[a] - v[b] + HBAR) \
                        / theta(ctx, v[a] - v[b] - HBAR)
                return t * weight_kernel(ctx, p, [v[s] for s in sig])

            total = pref * perm_sum(n, term)
            worst = max(worst, rel_diff(total, z_sos_elliptic(ctx, p)))
        det.append(f"max rel {worst:.1e}")
        assert worst < 1e-9
