"""Fault injection: which check catches a fault in one component.

Each case patches one component in process, runs the CLI at fixed seeds,
and names the rows that catch the fault.  A fault that no row catches is
stated here as a known blind spot rather than left untested.
"""

import json
import sys

import pytest

import dwbc.cli
import dwbc.enumeration
import dwbc.rmatrix
from dwbc import RMatrix4

SEEDS = (1, 2, 3)
TOLERANCE = 1e-9        # the CLI's default --tolerance
# routes that read the request's shared vertex source; the sum and the
# Izergin determinant build their own tables
CONFIGURATION_ROUTES = {"enumerate", "transfer"}


def _run(capsys, *argv):
    code = dwbc.cli.main(list(argv))
    return code, capsys.readouterr().out


def _comparisons(capsys, *argv):
    """Exit code and {(route a, route b): rel_diff} of one compute run."""
    code, out = _run(capsys, "compute", *argv, "--format", "json")
    rep = json.loads(out)
    return code, {(c["a"], c["b"]): c["rel_diff"] for c in rep["comparisons"]}


def _failed_rows(out):
    """{row: residual} of the rows a text `check` report marks FAIL."""
    return {line.split()[0]: float(line.split()[3])
            for line in out.splitlines() if line.endswith("FAIL")}


@pytest.mark.parametrize("weight", RMatrix4._fields)
@pytest.mark.parametrize("builder, model", [
    ("sos_rmatrix", "sos-elliptic"), ("sixv_rmatrix", "six-vertex")])
def test_weight_fault_is_caught_only_by_the_sum(capsys, monkeypatch, builder,
                                               model, weight):
    """One weight scaled by 1 + 1e-6 where the configuration routes build
    their vertices.  Enumeration and transfer share that source, so they
    still agree; every comparison of one of them with the sum (or the
    determinant) fails.  The smallest gap, 5.3e-9, is the elliptic c
    weight at seed 1."""
    make = getattr(dwbc.enumeration, builder)

    def faulty(*args):
        r = make(*args)
        return r._replace(**{weight: getattr(r, weight) * (1 + 1e-6)})

    monkeypatch.setattr(dwbc.enumeration, builder, faulty)
    for seed in SEEDS:
        code, cmps = _comparisons(capsys, "--model", model, "--route", "all",
                                  "--n", "4", "--seed", str(seed))
        assert code == 2
        for (a, b), rel in cmps.items():
            shared = (a in CONFIGURATION_ROUTES) == (b in CONFIGURATION_ROUTES)
            assert (rel <= TOLERANCE) == shared, (seed, a, b, rel)


def _patch_theta(monkeypatch, fault):
    """Replace theta(ctx, u) by fault(theta(ctx, u), u) at every binding of
    theta in the package."""
    theta = sys.modules["dwbc.theta"].theta

    def faulty(ctx, u):
        return fault(theta(ctx, u), u)

    for name, mod in list(sys.modules.items()):
        if (name == "dwbc" or name.startswith("dwbc.")) \
                and getattr(mod, "theta", None) is theta:
            monkeypatch.setattr(mod, "theta", faulty)


def test_theta_constant_factor_is_a_known_blind_spot(capsys, monkeypatch):
    """theta scaled by 1.001 scales every elliptic route by the same
    constant, so route agreement cannot see it: compute passes at the
    rounding level.  Only the two degeneration rows of `check`, which
    compare the elliptic model with the trigonometric one, catch it."""
    _patch_theta(monkeypatch, lambda value, u: value * 1.001)
    for seed in SEEDS:
        code, cmps = _comparisons(capsys, "--model", "sos-elliptic",
                                  "--route", "all", "--n", "4",
                                  "--seed", str(seed))
        assert code == 0
        assert max(cmps.values()) < 1e-14
        code, out = _run(capsys, "check", "all", "--n", "4",
                         "--seed", str(seed))
        assert code == 2
        failed = _failed_rows(out)
        assert set(failed) == {"rmatrix.elliptic_to_trig",
                               "pf.elliptic_to_trig"}
        assert failed["rmatrix.elliptic_to_trig"] == pytest.approx(1.0e-3,
                                                                   rel=0.01)
        assert failed["pf.elliptic_to_trig"] == pytest.approx(9.0e-3,
                                                              rel=0.01)


def test_theta_fault_off_the_real_axis_is_caught_only_by_character(
        capsys, monkeypatch):
    """theta scaled by 1 + 1e-6 wherever |Im u| > 0.3.  The elliptic routes
    still agree (largest rel_diff 8.3e-15, seed 1), since the requests' own
    arguments stay near the real axis.  The character rows evaluate Z at
    u + tau, which reaches the faulty theta, and they alone fail (5.8e-8 to
    3.2e-6).  They evaluate Z through closedform's one-variable view, so
    this also shows that the view looks theta up when it is called."""
    _patch_theta(monkeypatch, lambda value, u: value * (1 + 1e-6)
                 if abs(complex(u).imag) > 0.3 else value)
    for seed in SEEDS:
        code, cmps = _comparisons(capsys, "--model", "sos-elliptic",
                                  "--route", "all", "--n", "4",
                                  "--seed", str(seed))
        assert code == 0
        assert max(cmps.values()) < 1e-14
        code, out = _run(capsys, "check", "all", "--n", "4",
                         "--seed", str(seed))
        assert code == 2
        failed = _failed_rows(out)
        assert set(failed) == {f"character.{side}{i}" for side in "uv"
                               for i in (1, 2, 3)}
        assert all(5e-8 < res < 4e-6 for res in failed.values()), failed


@pytest.mark.parametrize("weight", RMatrix4._fields)
def test_weight_fault_is_caught_by_every_dybe_row(capsys, monkeypatch,
                                                 weight):
    """One weight of sos_rmatrix scaled by 1 + 1e-6 where the DYBE residual
    builds its matrices: at tau = i every elliptic row fails (worst row 1.6e-8
    to 5.7e-8 over the weights and seeds) and no other row does.  The
    residual builds each matrix once, so this also shows that it looks
    sos_rmatrix up when it is called."""
    make = dwbc.rmatrix.sos_rmatrix

    def faulty(*args):
        r = make(*args)
        return r._replace(**{weight: getattr(r, weight) * (1 + 1e-6)})

    monkeypatch.setattr(dwbc.rmatrix, "sos_rmatrix", faulty)
    for seed in SEEDS:
        code, out = _run(capsys, "check", "dybe", "--seed", str(seed))
        assert code == 2
        failed = _failed_rows(out)
        assert set(failed) == {f"dybe.elliptic_{t}" for t in range(5)}
        assert 1.5e-8 < max(failed.values()) < 6e-8, failed
