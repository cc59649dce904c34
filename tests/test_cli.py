"""Command-line interface: parsing, exit codes, report schema, seeds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import dwbc.__main__
import dwbc.cli
from dwbc import theta, ThetaContext
from dwbc.cli import REPORT_SCHEMA, main, parse_complex

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
        parse_complex("spam")


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


def test_exit_one_on_lattice_lambda(capsys):
    code, _, err = run_main(
        capsys, "compute", "--model", "sos-elliptic", "--n", "2",
        "--lambda", "0", "--hbar", "0.17")
    assert code == 1
    assert "lambda" in err and "lattice" in err


def test_exit_one_on_overcap_route(capsys):
    code, _, err = run_main(capsys, "compute", "--model", "six-vertex",
                            "--n", "8", "--route", "enumerate")
    assert code == 1
    assert "cap" in err


def test_exit_two_on_tolerance_failure(capsys):
    code, out, _ = run_main(capsys, "check", "symmetry", "--n", "2",
                            "--tol", "1e-30")
    assert code == 2
    assert "fail" in out


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_exit_two_on_non_finite_value(capsys):
    # a lone route has nothing to compare with; its NaN must still fail
    code, out, _ = run_main(capsys, "compute", "--model", "sos-elliptic",
                            "--n", "6", "--tau", "0.02i", "--seed", "1",
                            "--route", "transfer")
    assert "nan" in out
    assert "verdict: fail" in out
    assert code == 2


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


def test_import_loads_no_scipy():
    proc = run_python("-c", "import sys, dwbc.cli; print(sorted(m for m in "
                      "sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def test_bench_reports_terms_and_crossover(capsys):
    code, rep, _ = run_json(capsys, "bench", "--n", "4", "--seed", "1")
    assert code == 0
    rows = rep["results"]
    assert {row["n"] for row in rows} == {1, 2, 3, 4}
    enum_terms = {row["n"]: row["terms"] for row in rows
                  if row["route"] == "enumerate"}
    assert enum_terms == {1: 1, 2: 2, 3: 7, 4: 42}
