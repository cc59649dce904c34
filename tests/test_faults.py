"""Fault injection: which check catches a fault in one component.

Each case patches one component in process, runs the CLI at fixed seeds,
and names the rows that catch the fault.  A fault that no row catches is
stated here as a known blind spot rather than left untested.
"""

import json
import sys

import numpy as np
import pytest

import dwbc.cli
import dwbc.enumeration
import dwbc.rmatrix
from dwbc import EllipticParams, RMatrix4, ThetaContext, TrigParams, \
    gauge_rescale
from dwbc.cli import _draw_box

from helpers import rel_diff

SEEDS = (1, 2, 3)
TOLERANCE = 1e-9        # the CLI's default --tolerance
# routes that read the request's shared vertex source; the sum and the
# Izergin determinant build their own tables
CONFIGURATION_ROUTES = {"enumerate", "transfer"}
MODELS = ("sos-elliptic", "sos-trig", "six-vertex")


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


@pytest.fixture
def swap_slots(monkeypatch):
    """swap_slots(x, y, tables) exchanges weight slots x and y in the derived
    ice tables named in tables: "branches" (enumeration._BRANCHES, which
    the descent plan is built from) and "take" (rmatrix._TAKE, the matrix
    layout the transfer reads).  The descent and transfer plan caches are
    cleared before the fault and after it, so that no plan built from the
    clean table hides the fault and none built from the faulty one outlives
    it."""
    plans = (dwbc.enumeration._descent_plan, dwbc.enumeration._transfer_plan)

    def swap(x, y, tables):
        other = {x: y, y: x}
        if "branches" in tables:
            monkeypatch.setattr(dwbc.enumeration, "_BRANCHES", {
                ab: tuple((gamma, delta, other.get(slot, slot))
                          for gamma, delta, slot in branches)
                for ab, branches in dwbc.enumeration._BRANCHES.items()})
        if "take" in tables:
            monkeypatch.setattr(dwbc.rmatrix, "_TAKE", np.array(
                [other.get(slot, slot) for slot in dwbc.rmatrix._TAKE.tolist()]))
        for plan in plans:
            plan.cache_clear()

    yield swap
    for plan in plans:
        plan.cache_clear()


# the six admissible vertices (alpha, beta, gamma, delta) -> weight name,
# written out rather than derived from rmatrix._LAYOUT
SIX_VERTICES = {
    (+1, +1, +1, +1): "a", (-1, -1, -1, -1): "a",
    (+1, -1, +1, -1): "b", (-1, +1, -1, +1): "bbar",
    (-1, +1, +1, -1): "c", (+1, -1, -1, +1): "cbar",
}
BASIS = ((1, 1), (1, -1), (-1, 1), (-1, -1))    # the 4x4 matrices' basis


def _ice_table_faults():
    """{(table, vertex): weight name it reads} for each vertex at which a
    table the routes read disagrees with SIX_VERTICES: "branches"
    (enumeration._BRANCHES, the vertices the column plans take) and "take"
    (rmatrix._TAKE, the slot of each entry of the transfer's matrices,
    row (alpha, beta) and column (gamma, delta); slot 5 is a zero)."""
    names = RMatrix4._fields + (None,)
    reads = {
        "branches": {ab + (gamma, delta): names[slot]
                     for ab, listed in dwbc.enumeration._BRANCHES.items()
                     for gamma, delta, slot in listed},
        "take": {BASIS[k // 4] + BASIS[k % 4]: names[slot]
                 for k, slot in enumerate(dwbc.rmatrix._TAKE.tolist())},
    }
    return {(table, v): read.get(v) for table, read in reads.items()
            for v in read.keys() | SIX_VERTICES.keys()
            if read.get(v) != SIX_VERTICES.get(v)}


def test_ice_tables_match_the_six_vertices():
    """Both tables the configuration routes read give every vertex its
    weight, the vertices the ice rule forbids none."""
    assert _ice_table_faults() == {}


@pytest.mark.parametrize("tables", [("branches", "take"), ("branches",),
                                    ("take",)])
@pytest.mark.parametrize("x, y", [(1, 2), (3, 4)], ids=["b-bbar", "c-cbar"])
def test_ice_table_audit_flags_a_slot_swap(swap_slots, x, y, tables):
    """The audit names, in each table swapped, the vertices of both weights
    exchanged, and nothing else: the b-bbar swap, which no route
    comparison sees, included."""
    swap_slots(x, y, tables)
    swapped = (RMatrix4._fields[x], RMatrix4._fields[y])
    assert set(_ice_table_faults()) == {
        (table, v) for table in tables
        for v, name in SIX_VERTICES.items() if name in swapped}


def _compute_all(capsys, model):
    """The exit codes of `compute --route all --n 4` at each seed, and
    {seed: {(route a, route b): rel_diff}}."""
    runs = {seed: _comparisons(capsys, "--model", model, "--route", "all",
                               "--n", "4", "--seed", str(seed))
            for seed in SEEDS}
    return ({code for code, _ in runs.values()},
            {seed: cmps for seed, (_, cmps) in runs.items()})


@pytest.mark.parametrize("tables", [("branches", "take"), ("branches",),
                                    ("take",)])
@pytest.mark.parametrize("model", MODELS)
def test_c_slot_swap_is_caught_through_the_plans(capsys, swap_slots, model,
                                                 tables):
    """c and cbar exchanged in the tables named: a comparison fails exactly
    when one of its two routes reads a faulty table (rel 0.46 to 1.0), the
    enumeration through its column plans, the transfer through _TAKE.  With
    both tables swapped the two agree with each other and fail against the
    sum and the determinant; with _BRANCHES alone, even the
    enumerate-transfer row fails, so a plan cannot hide the table it was
    built from."""
    swap_slots(3, 4, tables)
    faulty = {"enumerate"} if "branches" in tables else set()
    faulty |= {"transfer"} if "take" in tables else set()
    codes, runs = _compute_all(capsys, model)
    assert codes == {2}
    for seed, cmps in runs.items():
        caught = {pair for pair, rel in cmps.items() if rel > TOLERANCE}
        assert caught == {(a, b) for a, b in cmps
                          if (a in faulty) != (b in faulty)}, seed


@pytest.mark.parametrize("tables", [("branches", "take"), ("branches",),
                                    ("take",)])
@pytest.mark.parametrize("model", MODELS)
def test_b_slot_swap_is_a_known_blind_spot(capsys, swap_slots, model,
                                          tables):
    """b and bbar exchanged, in both tables or in either one: every
    comparison passes in every model.  The exchange moves no route's value
    past rounding (at most 1.4e-14 relative, seeds 1-3; the six-vertex b
    and bbar are equal), so no route comparison can see it, and with both
    tables swapped `check all --n 4` passes too.  The runtime checks stay
    blind to it; tier-1 sees it, since test_ice_table_audit_flags_a_slot_swap
    reads both tables vertex by vertex against SIX_VERTICES."""
    swap_slots(1, 2, tables)
    codes, runs = _compute_all(capsys, model)
    assert codes == {0}
    assert all(rel <= TOLERANCE for cmps in runs.values()
               for rel in cmps.values())


# model -> (builder the configuration routes read, its parameters from the
# two box draws, the routes); each builder takes its dynamical argument,
# lam or mu, third
FACE_GAUGE = {
    "sos-elliptic": ("sos_rmatrix", lambda a, b: (
        ThetaContext(0.9j), EllipticParams(a, b, 0.31 + 0.1j, 0.17)),
        ("enumerate_sos", "column_transfer_z")),
    "sos-trig": ("trig_sos_rmatrix", lambda a, b: (
        TrigParams(a, b, 1.3, 0.7),),
        ("enumerate_trig_sos", "column_transfer_trig")),
}


def _gauge_moves(monkeypatch, model, per_vertex):
    """Each configuration route's relative move in Z, on fresh params at
    n = 3-5 over three draws, when the builder's b and bbar go to r b and
    bbar / r: r drawn once per dynamical argument, that is per face
    offset, or, with per_vertex, afresh for every vertex matrix built."""
    builder, make_args, routes = FACE_GAUGE[model]
    make = getattr(dwbc.enumeration, builder)
    moves = []
    for n in (3, 4, 5):
        for draw in range(3):
            rng = np.random.default_rng([draw, n])
            a, b = _draw_box(rng, n), _draw_box(rng, n)
            for name in routes:
                route, rs = getattr(dwbc.enumeration, name), {}

                def gauged(*args):
                    key = len(rs) if per_vertex else args[2]
                    if key not in rs:
                        rs[key] = complex(rng.uniform(0.5, 1.5),
                                          rng.uniform(-0.3, 0.3))
                    return gauge_rescale(make(*args), rs[key])

                base = route(*make_args(a, b))
                monkeypatch.setattr(dwbc.enumeration, builder, gauged)
                moves.append(rel_diff(route(*make_args(a, b)), base))
                monkeypatch.setattr(dwbc.enumeration, builder, make)
    return moves


@pytest.mark.parametrize("model", FACE_GAUGE)
def test_random_face_gauge_leaves_the_configuration_routes(monkeypatch,
                                                           model):
    """b -> r b, bbar -> bbar / r with r random per face offset is a gauge
    of the SOS models: every horizontal edge inside the lattice is the
    right edge of one vertex and the left edge of the next, against the
    same face.  Enumeration and transfer both keep Z to 1e-12 (largest move
    4.7e-14, sos-trig).  Drawn per vertex matrix instead, r is no gauge,
    and Z moves by more than 1e-3 (at least 0.15): the probe can fail."""
    assert max(_gauge_moves(monkeypatch, model, per_vertex=False)) < 1e-12
    assert min(_gauge_moves(monkeypatch, model, per_vertex=True)) > 1e-3
