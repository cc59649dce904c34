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


def _scale_theta(monkeypatch, factor):
    """Multiply theta by factor at every binding of it in the package."""
    theta = sys.modules["dwbc.theta"].theta

    def faulty(ctx, u):
        return theta(ctx, u) * factor

    for name, mod in list(sys.modules.items()):
        if (name == "dwbc" or name.startswith("dwbc.")) \
                and getattr(mod, "theta", None) is theta:
            monkeypatch.setattr(mod, "theta", faulty)


def test_theta_constant_factor_is_a_known_blind_spot(capsys, monkeypatch):
    """theta scaled by 1.001 scales every elliptic route by the same
    constant, so route agreement cannot see it: compute passes at the
    rounding level.  Only the two degeneration rows of `check`, which
    compare the elliptic model with the trigonometric one, catch it."""
    _scale_theta(monkeypatch, 1.001)
    for seed in SEEDS:
        code, cmps = _comparisons(capsys, "--model", "sos-elliptic",
                                  "--route", "all", "--n", "4",
                                  "--seed", str(seed))
        assert code == 0
        assert max(cmps.values()) < 1e-14
        code, out = _run(capsys, "check", "all", "--n", "4",
                         "--seed", str(seed))
        assert code == 2
        failed = {line.split()[0]: float(line.split()[3])
                  for line in out.splitlines() if line.endswith("FAIL")}
        assert set(failed) == {"rmatrix.elliptic_to_trig",
                               "pf.elliptic_to_trig"}
        assert failed["rmatrix.elliptic_to_trig"] == pytest.approx(1.0e-3,
                                                                   rel=0.01)
        assert failed["pf.elliptic_to_trig"] == pytest.approx(9.0e-3,
                                                              rel=0.01)
