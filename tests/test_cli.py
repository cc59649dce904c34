"""Command-line interface: parsing, exit codes, report schema, seeds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import dwbc.__main__
import dwbc.cli
import dwbc.enumeration
from dwbc import SIZE_CAP, theta, ThetaContext, dybe_residual, \
    dybe_residual_trig, ybe_residual_nondyn
from dwbc.cli import REPORT_SCHEMA, _draw_box, draw_parameters, main, \
    parse_complex

from helpers import rel_diff


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_main(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def run_python(*args):
    """Run `python *args` in a fresh interpreter.

    The child finds the same `dwbc` package as this process, installed or
    not, because the directory holding it goes first on its PYTHONPATH.
    """
    package_root = str(Path(dwbc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def run_dwbc(*argv):
    """Run `python -m dwbc *argv` in a fresh interpreter."""
    return run_python("-m", "dwbc", *argv)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def test_parse_complex_forms():
    assert parse_complex("0.4") == 0.4 + 0j
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("0.3+0.8i") == 0.3 + 0.8j
    assert parse_complex("0.3-0.8j") == 0.3 - 0.8j
    assert parse_complex("2.5e-1-0.1i") == 0.25 - 0.1j
    assert parse_complex("[0.3, 0.8]") == 0.3 + 0.8j
    with pytest.raises(ValueError):
        parse_complex("[0.3]")
    with pytest.raises(ValueError):
        parse_complex("[true, 0]")
    with pytest.raises(ValueError):
        parse_complex('["0.3", 0]')
    with pytest.raises(ValueError):
        parse_complex("spam")
    with pytest.raises(ValueError):     # beyond the float range
        parse_complex("[1" + "0" * 400 + ", 0]")


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def test_compute_single_vertex_example(capsys):
    code, rep, _ = run_json(
        capsys, "compute", "--model", "sos-elliptic", "--n", "1",
        "--u", "0.4", "--v", "0.1", "--lambda", "0.31", "--hbar", "0.17",
        "--tau", "i")
    assert code == 0
    assert rep["verdict"] == "pass"
    ctx = ThetaContext(1j)
    expected = theta(ctx, 0.4 - 0.1 - 0.31) * theta(ctx, 0.17) / theta(ctx, -0.31)
    for result in rep["results"]:
        got = complex(result["value"][0], result["value"][1])
        assert rel_diff(got, expected) < 1e-11
    routes = {r["route"] for r in rep["results"]}
    assert routes == {"enumerate", "transfer", "sum"}


def test_compute_sixvertex_has_four_routes(capsys):
    code, rep, _ = run_json(capsys, "compute", "--model", "six-vertex",
                            "--route", "all", "--n", "3", "--seed", "7",
                            "--q", "1.3")
    assert code == 0
    routes = {r["route"] for r in rep["results"]}
    assert routes == {"enumerate", "transfer", "determinant", "sum"}
    for comparison in rep["comparisons"]:
        assert comparison["rel_diff"] < 1e-9


def test_compute_n_inferred_from_explicit_lists(capsys):
    code, rep, _ = run_json(
        capsys, "compute", "--model", "six-vertex",
        "--z", "0.7", "0.9", "--w", "1.7", "2.1")
    assert code == 0
    assert rep["config"]["n"] == 2


def test_compute_all_models(capsys):
    for model in ("six-vertex", "sos-elliptic", "sos-trig"):
        code, rep, _ = run_json(capsys, "compute", "--model", model,
                                "--n", "2", "--seed", "3")
        assert code == 0, model
        assert rep["verdict"] == "pass"
        assert len(rep["results"]) >= 2
        for comparison in rep["comparisons"]:
            assert comparison["rel_diff"] < 1e-9


def test_compute_text_format_mentions_routes(capsys):
    code, out, _ = run_main(capsys, "compute", "--model", "six-vertex",
                            "--n", "2")
    assert code == 0
    assert "route=enumerate" in out
    assert "verdict: pass" in out


def result_routes(rep):
    return [r["route"] for r in rep["results"]]


def test_runner_takes_the_caps_from_the_library(capsys, monkeypatch):
    # a route is dropped from `all` because its library call refuses n,
    # not because the CLI keeps a copy of the cap
    monkeypatch.setattr(dwbc.enumeration, "SIZE_CAP", 4)
    code, rep, _ = run_json(capsys, "compute", "--model", "six-vertex",
                            "--n", "5", "--route", "all")
    assert code == 0
    assert result_routes(rep) == ["determinant", "sum"]


@pytest.mark.parametrize("model, n, routes", [
    ("six-vertex", 7, ["determinant", "sum"]),
    ("six-vertex", 10, ["determinant"]),
    ("sos-elliptic", 7, ["sum"]),
], ids=["six-vertex-7", "six-vertex-10", "sos-elliptic-7"])
def test_route_all_past_the_caps(capsys, model, n, routes):
    code, rep, _ = run_json(capsys, "compute", "--model", model,
                            "--n", str(n), "--route", "all")
    assert code == 0
    assert result_routes(rep) == routes


@pytest.mark.parametrize("argv, message", [
    (("--model", "sos-trig", "--n", "10", "--route", "all"),
     "model 'sos-trig' has no route 'all' at n = 10"),
    (("--route", "enumerate", "--n", "7"),
     f"n = 7 exceeds the enumeration cap {SIZE_CAP}"),
], ids=["all-capped", "named-capped"])
def test_exit_one_past_the_caps(capsys, argv, message):
    code, out, err = run_main(capsys, "compute", *argv)
    assert code == 1
    assert out == ""
    assert message in err


def test_bench_rows_past_the_caps(capsys):
    code, rep, _ = run_json(capsys, "bench", "--model", "six-vertex",
                            "--n", "7")
    assert code == 0
    sizes = {}
    for row in rep["results"]:
        sizes.setdefault(row["route"], []).append(row["n"])
    assert sizes == {"enumerate": list(range(1, 7)),
                     "transfer": list(range(1, 7)),
                     "determinant": list(range(1, 8)),
                     "sum": list(range(1, 8))}


@pytest.mark.parametrize("builder, argv, builds", [
    ("sos_rmatrix", ("--model", "sos-elliptic", "--n", "4", "--tau", "0.1i"),
     26),
    ("sixv_rmatrix", ("--n", "6"), 36),
    ("trig_sos_rmatrix", ("--model", "sos-trig", "--n", "4"), 26),
], ids=["sos-elliptic", "six-vertex", "sos-trig"])
def test_route_all_builds_each_vertex_once(capsys, monkeypatch, builder,
                                           argv, builds):
    """One `compute --route all` request hands every route one params
    object, so its configuration routes build each vertex weight once, and
    only the vertices some configuration uses: at n = 4 the 26 (i, j, k) of
    the vertex plan, and the six-vertex table at n = 6 has 36 entries."""
    calls = [0]
    make = getattr(dwbc.enumeration, builder)

    def counted(*args):
        calls[0] += 1
        return make(*args)

    monkeypatch.setattr(dwbc.enumeration, builder, counted)
    code, _, _ = run_main(capsys, "compute", "--route", "all", *argv)
    assert code == 0
    assert calls[0] == builds


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_zero_on_success(capsys):
    code, _, _ = run_main(capsys, "compute", "--n", "2")
    assert code == 0


def test_exit_one_on_bad_model(capsys):
    assert main(["compute", "--model", "bogus"]) == 1


def test_exit_one_on_bad_n(capsys):
    code, _, err = run_main(capsys, "compute", "--n", "0")
    assert code == 1
    assert "parameter error" in err


def test_exit_one_on_list_length_mismatch(capsys):
    code, out, err = run_main(capsys, "compute", "--z", "1", "2", "--w", "3")
    assert code == 1
    assert out == ""
    assert "--w lists 1 values but n = 2" in err


@pytest.mark.parametrize("argv", [("compute",), ("check", "dybe"), ("bench",)],
                         ids=["compute", "check", "bench"])
def test_exit_one_on_negative_seed(capsys, argv):
    code, out, err = run_main(capsys, *argv, "--n", "2", "--seed", "-1")
    assert code == 1
    assert out == ""
    assert "--seed must be >= 0, got -1" in err


@pytest.mark.parametrize("argv, flags", [
    (("--model", "six-vertex", "--u", "0.1", "0.2", "--v", "0.3", "0.4"),
     "got --u --v"),
    (("--model", "sos-elliptic", "--z", "0.1", "--w", "0.3"), "got --z --w"),
    (("--model", "sos-elliptic", "--u", "0.1", "--v", "0.3", "--z", "0.5"),
     "got --u --v --z"),
    (("--model", "sos-trig", "--z", "0.1"), "got --z"),
], ids=["uv-for-six-vertex", "zw-for-elliptic", "extra-z", "z-alone"])
def test_exit_one_on_lists_the_model_does_not_take(capsys, argv, flags):
    code, out, err = run_main(capsys, "compute", *argv)
    assert code == 1
    assert out == ""
    assert flags in err


@pytest.mark.parametrize("flag, value", [("--lambda", "0"), ("--lambda", "60"),
                                         ("--hbar", "55")])
def test_exit_one_on_lattice_lambda(capsys, flag, value):
    # 60 and 55 are lattice points far from the origin
    code, _, err = run_main(
        capsys, "compute", "--model", "sos-elliptic", "--n", "2",
        "--lambda", "0.31", "--hbar", "0.17", flag, value)
    assert code == 1
    assert flag[2:] in err and "lattice" in err


def test_exit_one_on_theta_phase_overflow():
    # Im(lambda) = 50 puts theta's argument 50 periods up the tau axis,
    # where the quasi-periodicity phase exceeds the float range
    proc = run_dwbc("compute", "--model", "sos-elliptic", "--n", "2",
                    "--lambda", "0.31+50i")
    assert proc.returncode == 1
    assert "overflows" in proc.stderr and "tau = 1j" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_tiny_tau_exits_cleanly():
    # at tau = 0.001i most theta values exceed the float range; such a value
    # is a parameter error naming theta, never a traceback or a NaN
    proc = run_dwbc("compute", "--model", "sos-elliptic", "--n", "2",
                    "--tau", "0.001i", "--seed", "1", "--format", "json")
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 1)
    if proc.returncode == 1:
        assert "theta(" in proc.stderr and "overflows" in proc.stderr
    else:
        assert json.loads(proc.stdout)["verdict"] == "pass"


@pytest.mark.parametrize("argv", [("compute",), ("check", "dybe")],
                         ids=["compute", "check-dybe"])
def test_exit_one_on_nan_tolerance(capsys, argv):
    code, out, err = run_main(capsys, *argv, "--tolerance", "nan")
    assert code == 1
    assert out == ""
    assert "tolerance must be positive, got nan" in err


@pytest.mark.parametrize("argv", [
    ("--model", "sos-elliptic", "--lambda", "nan"),
    ("--model", "sos-elliptic", "--hbar", "nan"),
    ("--model", "sos-elliptic", "--u", "0.1", "nan"),
    ("--q", "nan"),
    ("--z", "1", "nan"),
    ("--model", "sos-trig", "--mu", "nan"),
    ("--q", "1e400"),
    ("--tau", "[NaN, 1]"),
], ids=["lambda", "hbar", "u", "q", "z", "mu", "overflowing", "pair"])
def test_exit_one_on_non_finite_flag(capsys, argv):
    code, out, err = run_main(capsys, "compute", *argv)
    assert code == 1
    assert out == ""
    assert "is not a finite number" in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ("--q", "1e300"),
    ("--route", "sum", "--n", "9", "--q", "1e40"),
    ("--route", "determinant", "--n", "2", "--q", "1e200"),
], ids=["all", "sum", "determinant"])
def test_exit_one_on_cfac_power_overflow(capsys, argv):
    code, out, err = run_main(capsys, "compute", *argv)
    assert code == 1
    assert out == ""
    assert "(q - 1/q)^n overflows" in err


@pytest.mark.parametrize("argv", [
    ("compute", "--route", "all"), ("compute", "--route", "determinant"),
    ("compute", "--route", "enumerate"), ("compute", "--route", "transfer"),
    ("compute", "--route", "sum"), ("compute", "--model", "sos-trig"),
    ("bench", "--n", "2"), ("check",), ("check", "dybe"),
], ids=["all", "determinant", "enumerate", "transfer", "sum", "sos-trig",
        "bench", "check", "check-dybe"])
def test_exit_one_on_infinite_cfac(capsys, argv):
    """A q so small that q - 1/q overflows is refused where the
    trigonometric rules are checked, before any route or residual runs."""
    code, out, err = run_main(capsys, *argv, "--q", "1e-310")
    assert (code, out, err) == (
        1, "", "parameter error: q - 1/q overflows at q = (1e-310+0j)\n")


def test_exit_one_on_mu_near_one(capsys):
    # the R-matrix builder shares the routes' tolerance for mu - 1, so the
    # check is refused as degenerate instead of reporting huge residuals
    code, out, err = run_main(capsys, "check", "dybe", "--mu", "1.00000000005",
                              "--n", "2")
    assert code == 1
    assert "mu" in err and "1e-10" in err
    assert "FAIL" not in out


def test_exit_one_on_overcap_route(capsys, monkeypatch):
    # the sum checks its cap before (q - 1/q)^n could overflow, and no
    # route's nominal cost (the ASM number of n = 800 would take a minute)
    # is computed outside `bench` rows
    def no_cost(n):
        raise AssertionError("nominal cost computed")

    monkeypatch.setattr(dwbc.cli, "asm_number", no_cost)
    for argv in (("--n", "8", "--route", "enumerate"),
                 ("--n", "10", "--route", "sum", "--q", "1e200"),
                 ("--n", "800", "--route", "sum")):
        code, _, err = run_main(capsys, "compute", "--model", "six-vertex",
                                *argv)
        assert code == 1
        assert "cap" in err and "overflows" not in err


@pytest.mark.parametrize("argv", [
    ("compute", "--model", "sos-trig", "--q", "1e300"),
    ("check", "dybe", "--q", "1e300"),
    ("compute", "--model", "sos-trig", "--q", "1e-300"),
    ("check", "dybe", "--q", "1e-300"),
    ("compute", "--model", "sos-trig", "--mu", "1e300", "--q", "1e5"),
], ids=["compute", "check-dybe", "compute-tiny", "check-dybe-tiny",
        "product"])
def test_exit_one_on_mu_shift_overflow(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "mu*q^(2k) overflows" in err


_Q2 = "has q^2 = 1: q - 1/q vanishes and with it every c-weight"
_MU = "hits 1 (dynamical denominator 1 - mu*q^(2k) vanishes)"


@pytest.mark.parametrize("argv, message", [
    (("compute", "--q", "0"), "q must be nonzero"),
    (("compute", "--q", "1", "--n", "4"), f"q = (1+0j) {_Q2}"),
    (("compute", "--q", "-1", "--route", "determinant"), f"q = (-1+0j) {_Q2}"),
    (("compute", "--model", "sos-trig", "--mu", "1"),
     f"mu*q^(2*0) = (1+0j) {_MU}"),
    (("compute", "--model", "sos-trig", "--mu", "1.69", "--q", "1.3",
      "--n", "2"), f"mu*q^(2*-1) = (0.9999999999999998+0j) {_MU}"),
    (("bench", "--model", "sos-trig", "--q", "1"), f"q = (1+0j) {_Q2}"),
    (("check", "--q", "0"), "q must be nonzero"),
], ids=["q-zero", "q-one", "q-minus-one-determinant", "mu-one",
        "mu-offset-minus-one", "bench-q-one", "check-q-zero"])
def test_exit_one_on_trig_rule(capsys, argv, message):
    """The trigonometric parameter rules, q != 0, q^2 != 1 and
    mu*q^(2k) != 1 for |k| <= 2n, each refuse the request with one exact
    line on stderr."""
    code, out, err = run_main(capsys, *argv)
    assert (code, out, err) == (1, "", f"parameter error: {message}\n")


@pytest.mark.parametrize("model", ["six-vertex", "sos-trig"])
def test_compute_where_only_the_unused_q_form_vanishes(capsys, model):
    # w_1 = q^2 w_2 at q = 1.3: the sums never divide by w_1/q - q w_2
    code, rep, _ = run_json(capsys, "compute", "--model", model, "--route",
                            "all", "--z", "0.5", "0.8", "--w", "1.69", "1.0")
    assert (code, rep["verdict"]) == (0, "pass")
    assert "sum" in [r["route"] for r in rep["results"]]


@pytest.mark.parametrize("route", ["sum", "all"])
def test_exit_one_on_a_vanishing_elliptic_g_denominator(route):
    """v_2 - v_1 - hbar = 0j: theta of it, a denominator of the sum's G, is
    zero; the request is refused without a traceback."""
    proc = run_dwbc("compute", "--model", "sos-elliptic", "--route", route,
                    "--u", "0.4", "0.6", "--v", "0.1", "0.27")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "parameter error: v[2] - v[1] - hbar = 0j lies on the lattice "
               "Gamma (theta denominator vanishes)\n")


def test_exit_two_on_tolerance_failure(capsys):
    code, out, _ = run_main(capsys, "check", "symmetry", "--n", "2",
                            "--tol", "1e-30")
    assert code == 2
    assert "fail" in out


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("route", ["transfer", "all", "sum"])
def test_exit_two_on_non_finite_value(capsys, route):
    # a lone route has nothing to compare with; its NaN must still fail,
    # and a comparison of NaN values must not read as agreement
    argv = ("compute", "--model", "sos-elliptic", "--n", "6", "--tau", "0.02i",
            "--seed", "1", "--route", route)
    code, out, _ = run_main(capsys, *argv)
    assert "nan" in out
    assert "verdict: fail" in out
    assert code == 2
    comparisons = [line for line in out.splitlines()
                   if line.startswith("compare ")]
    assert len(comparisons) == (3 if route == "all" else 0)
    assert all(line.endswith("rel_diff = nan") for line in comparisons)

    # JSON has no NaN token: non-finite values are written as null
    code, out, _ = run_main(capsys, *argv, "--format", "json")
    assert code == 2

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    rep = json.loads(out, parse_constant=refuse)
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["verdict"] == "fail"
    assert [r["value"] for r in rep["results"]] == [[None, None]] * (
        3 if route == "all" else 1)
    assert len(rep["comparisons"]) == len(comparisons)
    assert all(c["rel_diff"] is None for c in rep["comparisons"])


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    proc = run_dwbc("--help")
    assert proc.returncode == 0
    assert "compute" in proc.stdout


def test_unknown_flag_exits_one(capsys):
    proc = run_dwbc("compute", "--frobnicate")
    assert proc.returncode == 1
    assert main(["compute", "--parallel"]) == 1   # removed, not ignored
    assert "--parallel" in capsys.readouterr().err


def test_one_parser_serves_every_call(capsys):
    """main reuses one parser; no value of one call reaches the next."""
    run_json(capsys, "compute", "--model", "sos-elliptic", "--u", "0.4",
             "--v", "0.1")
    code, rep, _ = run_json(capsys, "compute")
    alone = run_dwbc("compute", "--format", "json")
    assert (code, strip_timings(rep)) == (
        alone.returncode, strip_timings(json.loads(alone.stdout)))
    assert main(["compute", "--frobnicate"]) == 1
    assert main(["compute", "--n", "2"]) == 0


def test_import_loads_no_scipy():
    proc = run_python("-c", "import sys, dwbc.cli; print(sorted(m for m in "
                      "sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# one request of each command, compute with drawn lists
_COMMAND_ARGVS = pytest.mark.parametrize("argv", [
    ("compute", "--n", "3"),
    ("compute", "--model", "sos-elliptic", "--n", "3"),
    ("check", "all", "--n", "2"),
    ("bench", "--n", "3"),
], ids=["compute", "compute-elliptic", "check", "bench"])


@_COMMAND_ARGVS
def test_commands_load_no_test_dependency(argv):
    # scipy, mpmath, sympy and jsonschema are not runtime dependencies
    proc = run_python("-c", "import sys, dwbc.cli\n"
                      "code = dwbc.cli.main(sys.argv[1:])\n"
                      "print(sorted({m.split('.')[0] for m in sys.modules}\n"
                      "             & {'scipy', 'mpmath', 'sympy', "
                      "'jsonschema'}))\n"
                      "sys.exit(code)", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@_COMMAND_ARGVS
def test_commands_load_no_numpy_random(argv):
    # seeded inputs come from dwbc.draws, so numpy.random is never imported
    proc = run_python("-c", "import sys, dwbc.cli\n"
                      "code = dwbc.cli.main(sys.argv[1:])\n"
                      "print('numpy.random' in sys.modules)\n"
                      "sys.exit(code)", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_import_builds_no_plan():
    """The routes' weight-free plans are built on first use, never at
    import, so importing the package costs none of them."""
    proc = run_python("-c", "import dwbc\n"
                      "from dwbc import closedform, enumeration, rmatrix\n"
                      "print([f.cache_info().currsize for f in (\n"
                      "    enumeration._vertices,\n"
                      "    enumeration._vertex_plan,\n"
                      "    enumeration._transfer_plan, closedform._plan,\n"
                      "    rmatrix._dybe_index)])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0]"


def test_all_names_resolve():
    assert "TrigParams" in dwbc.__all__
    assert [name for name in dwbc.__all__ if not hasattr(dwbc, name)] == []


def test_console_script_is_wired():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"dwbc": "dwbc.cli:main"}
    assert dwbc.__main__.main is dwbc.cli.main
    proc = run_dwbc("compute", "--n", "1")
    assert proc.returncode == 0
    assert "verdict: pass" in proc.stdout


# ---------------------------------------------------------------------------
# report schema
# ---------------------------------------------------------------------------

def test_reports_validate_against_schema(capsys):
    invocations = [
        ("compute", "--model", "sos-elliptic", "--n", "2", "--seed", "9"),
        ("compute", "--model", "six-vertex", "--n", "4"),
        ("check", "dybe", "--n", "2"),
        ("check", "degeneration", "--n", "2"),
        ("bench", "--n", "3"),
    ]
    for argv in invocations:
        code, rep, _ = run_json(capsys, *argv)
        assert code == 0, argv
        jsonschema.validate(rep, REPORT_SCHEMA)


def test_report_values_are_re_im_pairs(capsys):
    _, rep, _ = run_json(capsys, "compute", "--n", "2")
    for result in rep["results"]:
        assert isinstance(result["value"], list) and len(result["value"]) == 2


def test_config_echo_of_default_flags(capsys):
    common = {"model": "six-vertex", "seed": 0, "tolerance": 1e-9,
              "format": "json", "tau": [0.0, 1.0], "lambda": [0.31, 0.0],
              "hbar": [0.17, 0.0], "q": [1.3, 0.0], "mu": [0.7, 0.0]}
    z, w = draw_parameters(3, 0)
    expected = {
        "compute": {"n": 3, "route": "all",
                    "z": [[x.real, x.imag] for x in z],
                    "w": [[x.real, x.imag] for x in w]},
        "check": {"n": 3, "suite": "all"},
        "bench": {"n": 5},
    }
    for command, extra in expected.items():
        code, rep, _ = run_json(capsys, command)
        assert code == 0, command
        assert rep["config"] == {"command": command, **common, **extra}


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def strip_timings(rep):
    rep = json.loads(json.dumps(rep))
    for r in rep.get("results", []):
        r.pop("time_ms", None)
    return rep


def test_seeded_reports_are_reproducible(capsys):
    _, rep1, _ = run_json(capsys, "compute", "--n", "3", "--seed", "42")
    _, rep2, _ = run_json(capsys, "compute", "--n", "3", "--seed", "42")
    assert strip_timings(rep1) == strip_timings(rep2)


def test_different_seeds_draw_different_parameters(capsys):
    _, rep1, _ = run_json(capsys, "compute", "--n", "3", "--seed", "1")
    _, rep2, _ = run_json(capsys, "compute", "--n", "3", "--seed", "2")
    assert rep1["config"]["z"] != rep2["config"]["z"]


# ---------------------------------------------------------------------------
# check and bench
# ---------------------------------------------------------------------------

def test_check_all_suites_pass(capsys):
    code, rep, _ = run_json(capsys, "check", "--n", "2", "--seed", "7")
    assert code == 0
    assert rep["verdict"] == "pass"
    names = set(rep["residuals"])
    for prefix in ("symmetry", "recursion", "character", "dybe", "pf",
                   "rmatrix", "gauge", "appendix"):
        assert any(name.startswith(prefix) for name in names), prefix


@pytest.mark.parametrize("n", range(1, 7))
def test_check_rows_are_the_json_residuals(capsys, n):
    """The rows `check all` prints are the JSON report's residual keys, in
    order, and no name repeats: a row run twice under one name would show
    twice in the text and once, with its last value, in the JSON."""
    for seed in (1, 2, 3):
        argv = ("check", "all", "--n", str(n), "--seed", str(seed))
        _, out, _ = run_main(capsys, *argv)
        rows = [line.split()[0] for line in out.splitlines()
                if " residual = " in line]
        _, rep, _ = run_json(capsys, *argv)
        assert len(set(rows)) == len(rows), seed
        assert rows == list(rep["residuals"]), seed


def test_bench_reports_terms_and_crossover(capsys):
    code, rep, _ = run_json(capsys, "bench", "--n", "4", "--seed", "1")
    assert code == 0
    rows = rep["results"]
    assert {row["n"] for row in rows} == {1, 2, 3, 4}
    enum_terms = {row["n"]: row["terms"] for row in rows
                  if row["route"] == "enumerate"}
    assert enum_terms == {1: 1, 2: 2, 3: 7, 4: 42}
    # the sum's subset DP takes n 2^(n-1) steps
    sum_terms = {row["n"]: row["terms"] for row in rows
                 if row["route"] == "sum"}
    assert sum_terms == {1: 1, 2: 4, 3: 12, 4: 32}
    jsonschema.validate(rep, REPORT_SCHEMA)
    # each row's rel_diff is its largest relative gap to the other routes
    for row in rows:
        value = complex(*row["value"])
        gaps = [rel_diff(value, complex(*other["value"])) for other in rows
                if other["n"] == row["n"] and other is not row]
        assert row["rel_diff"] == max(gaps)
        assert row["rel_diff"] < 1e-9
    # the sum's large gap at n = 9 is shown, not hidden; the verdict stays
    code, rep, _ = run_json(capsys, "bench", "--n", "9", "--seed", "10")
    assert code == 0 and rep["verdict"] == "pass"
    last = {row["route"]: row["rel_diff"] for row in rep["results"]
            if row["n"] == 9}
    assert last["sum"] == last["determinant"] > 1e-3


@pytest.mark.parametrize("seed", range(4))
def test_check_dybe_rows_are_the_residuals_of_the_seeded_draws(capsys, seed):
    """`check dybe` draws three points from the seeded box per row, in row
    order: five elliptic rows, five trigonometric, two non-dynamical.  Each
    JSON residual is, bit for bit, the library's residual at those points
    and the default tau, lambda, hbar, q and mu."""
    _, rep, _ = run_json(capsys, "check", "dybe", "--seed", str(seed))
    rng = np.random.default_rng(seed)
    ctx = ThetaContext(1j)
    want = {}
    for t in range(5):
        want[f"dybe.elliptic_{t}"] = dybe_residual(
            ctx, *_draw_box(rng, 3), 0.31, 0.17)
    for t in range(5):
        want[f"dybe.trig_{t}"] = dybe_residual_trig(*_draw_box(rng, 3),
                                                    0.7, 1.3)
    for t in range(2):
        want[f"ybe.nondyn_{t}"] = ybe_residual_nondyn(*_draw_box(rng, 3), 1.3)
    assert list(rep["residuals"].items()) == list(want.items())


@pytest.mark.parametrize("tau", ["0.05i", "0.02i"])
def test_check_dybe_passes_at_small_tau(capsys, tau):
    # the weights grow far past 1 here; the residual is relative to them
    code, out, _ = run_main(capsys, "check", "dybe", "--tau", tau)
    assert code == 0
    assert "FAIL" not in out


def test_bench_text_format(capsys):
    code, out, _ = run_main(capsys, "bench", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    header = lines.index(f"{'n':>3}  {'route':<12}{'terms':>10}  "
                         f"{'time_ms':>10}  {'rel_diff':>9}  value")
    rows = [line.split()[:2] for line in lines[header + 1:header + 13]]
    assert rows == [[str(n), route] for n in (1, 2, 3) for route in
                    ("enumerate", "transfer", "determinant", "sum")]
    assert lines[header + 13].startswith("crossover: ")
