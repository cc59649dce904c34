"""Tests of the benchmark's own code: reply verifier, layer wrapper,
import-time parser and input streams.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import dwbc.cli  # noqa: E402
import layers  # noqa: E402
from run import fixed_requests, import_breakdown  # noqa: E402
from workloads import WORKLOADS, verify  # noqa: E402

SMALL_REQUESTS = [
    ["compute", "--model", "sos-elliptic", "--route", "all", "--tau", "0.1i",
     "--u", "[0.4, 0.01]", "[0.55, -0.02]", "--v", "[0.1, 0.0]", "[0.23, 0.03]",
     "--format", "json"],
    ["compute", "--model", "six-vertex", "--route", "all",
     "--z", "[0.3, 0.01]", "[0.7, -0.02]", "[0.5, 0.04]",
     "--w", "[0.2, 0.0]", "[0.8, 0.03]", "[0.45, -0.01]", "--format", "json"],
    ["check", "dybe", "--n", "2", "--seed", "5", "--format", "json"],
    ["check", "appendix", "--n", "2", "--seed", "5", "--format", "json"],
]


def _call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dwbc.cli.main(argv)
    return code, out.getvalue()


def _values(stdout):
    report = json.loads(stdout)
    for row in report["results"]:
        del row["time_ms"]
    return report


@pytest.fixture
def tracer():
    t = layers.Tracer()
    layers.install(t)
    try:
        yield t
    finally:
        layers.uninstall()


def test_verifier_rejects_nan_reported_as_pass():
    argv = SMALL_REQUESTS[0]
    code, stdout = _call(argv)
    report = json.loads(stdout)
    for row in report["results"]:
        row["value"] = [math.nan, math.nan]
    report["verdict"] = "pass"
    outcome = verify(argv, 0, json.dumps(report))
    assert outcome.failed and outcome.wrong
    assert "non-finite" in outcome.reason


def test_verifier_accepts_good_reply_and_rejects_bad_ones():
    argv = SMALL_REQUESTS[1]
    code, stdout = _call(argv)
    assert code == 0
    good = verify(argv, code, stdout)
    assert not good.failed and good.digits > 9

    report = json.loads(stdout)
    report["results"][0]["value"][0] *= 1.0 + 1e-6
    skewed = verify(argv, 0, json.dumps(report))
    assert skewed.failed and skewed.wrong and "routes differ" in skewed.reason

    report = json.loads(stdout)
    report["config"]["z"][0][0] += 0.125
    unechoed = verify(argv, 0, json.dumps(report))
    assert unechoed.wrong and "--z not echoed" in unechoed.reason

    flagged = verify(argv, 2, stdout.replace('"pass"', '"fail"'))
    assert flagged.failed and not flagged.wrong
    assert verify(argv, 1, "").failed and not verify(argv, 1, "").wrong
    assert verify(argv, 0, "garbage").wrong


def test_verifier_checks_single_route_against_reference():
    argv = [a for a in SMALL_REQUESTS[0]]
    argv[argv.index("all")] = "sum"
    code, stdout = _call(argv)
    value = complex(*json.loads(stdout)["results"][0]["value"])
    assert verify(argv, code, stdout).failed          # nothing to compare with
    assert not verify(argv, code, stdout, reference=value).failed
    off = verify(argv, code, stdout, reference=value * 1.01)
    assert off.failed and not off.wrong and "column_transfer_z" in off.reason
    assert off.digits == pytest.approx(2.0, abs=0.01)


def _dwbc_modules():
    return [(name, mod) for name, mod in sys.modules.items()
            if name == "dwbc" or name.startswith("dwbc.")]


def test_every_binding_is_wrapped():
    originals = {id(fn) for fn in layers.layer_functions().values()}
    expected = {f"{name}.{attr}" for name, mod in _dwbc_modules()
                for attr, obj in vars(mod).items() if id(obj) in originals}
    bindings = layers.install(layers.Tracer())
    try:
        assert set(bindings) == expected
        for name, mod in _dwbc_modules():
            for attr, obj in vars(mod).items():
                assert id(obj) not in originals, f"{name}.{attr} left unwrapped"
        for name in ("dwbc.closedform.theta", "dwbc.rmatrix.theta",
                     "dwbc.ellpoly.theta", "dwbc.theta"):
            assert bindings[name] == "theta.theta"
        assert sys.modules["dwbc.closedform"].theta.perfbench_traced
        assert sys.modules["dwbc"].theta.perfbench_traced   # package attribute
        assert bindings["dwbc.cli.z_sos_elliptic"] == "closedform.z_sos_elliptic"
        assert bindings["dwbc.enumeration.sos_rmatrix"] == "rmatrix.sos_rmatrix"
        assert bindings["dwbc.cli.main"] == "cli.main"
    finally:
        layers.uninstall()


def test_uninstall_restores_bindings():
    before = {m: dict(vars(sys.modules[m])) for m in sys.modules
              if m.startswith("dwbc")}
    layers.install(layers.Tracer())
    layers.uninstall()
    for m, attrs in before.items():
        for attr, obj in attrs.items():
            assert vars(sys.modules[m])[attr] is obj


@pytest.mark.parametrize("argv", SMALL_REQUESTS, ids=lambda a: " ".join(a[:2]))
def test_traced_values_are_bit_identical(argv):
    code, plain = _call(argv)
    t = layers.Tracer()
    layers.install(t)
    try:
        traced_code, traced = _call(argv)
    finally:
        layers.uninstall()
    assert traced_code == code
    if argv[0] == "compute":
        assert _values(traced) == _values(plain)
    else:
        assert json.loads(traced) == json.loads(plain)
    assert t.spans, "no span was recorded"


def test_counts_repeat_exactly(tracer):
    t = tracer
    records = []
    for _ in range(2):
        t.reset()
        _call(SMALL_REQUESTS[0])
        snap = t.snapshot()
        records.append(({k: v[0] for k, v in snap["spans"].items()},
                        {k: v for k, v in snap.items() if k != "spans"}))
    assert records[0] == records[1]
    calls, counters = records[0]
    assert calls["theta.theta"] > 0 and counters["theta_distinct"] > 0
    assert counters["configs"] == 2 and counters["sum_terms"] == 2
    assert counters["rmatrix_theta_calls"] > 0 and counters["contexts"] == 1


def test_layer_metrics_cover_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    produced = set(layers.layer_metrics([layers.Tracer().snapshot()]))
    extra = {"setup.import.scipy_ms", "setup.import.numpy_ms",
             "setup.import.dwbc_ms", "trace.overhead_frac"}
    assert produced | extra == names


def test_import_breakdown_charges_families():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       _stdlib_a",
        "import time:       200 |        300 |     numpy.linalg",
        "import time:        50 |        350 |   scipy.linalg",
        "import time:       400 |        400 |     numpy.core",
        "import time:      1000 |       1400 |   numpy",
        "import time:        30 |         30 |   textwrap",
        "import time:        20 |       1800 | dwbc.cli",
        "import time:         5 |          5 | json",
    ])
    got = import_breakdown(text)
    assert got == {"scipy": 0.35, "numpy": 1.4, "dwbc": 0.05}


def test_streams_depend_only_on_seed():
    for workload in WORKLOADS.values():
        a, b, c = (workload.requests(s) for s in (3, 3, 4))
        first = [next(a) for _ in range(5)]
        assert first == [next(b) for _ in range(5)]
        assert first != [next(c) for _ in range(5)]
        assert not any("--parallel" in argv for argv in first)


def test_run_length_is_whole_cycles_fixed_by_seed_and_seconds():
    for workload in WORKLOADS.values():
        runs = [fixed_requests(workload, 3, 24, workload.cost_s) for _ in range(2)]
        assert runs[0] == runs[1]
        assert len(runs[0]) % workload.cycle == 0
        assert abs(len(runs[0]) * workload.cost_s - 24) <= workload.cycle * workload.cost_s
        short = fixed_requests(workload, 3, 0.001, workload.cost_s)
        assert short == runs[0][:10 * workload.cycle]
