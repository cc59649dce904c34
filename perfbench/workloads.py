"""Workloads of the `dwbc` request benchmark: how each one draws its
requests from the benchmark seed, and how each reply is verified.

Inputs come from numpy's PCG64 seeded with the benchmark's `--seed`,
drawn from the README box [0.1, 0.9] + i*[-0.05, 0.05] and passed to the
CLI as exact `[re, im]` pairs, so `dwbc` computes on the generated values
and nothing else.  `check` takes no explicit inputs, so it gets a `--seed`
derived from the stream.  `--parallel` is never passed: it starts up to 8
threads.

The verifier does not trust the CLI's verdict: it recomputes the largest
cross-route relative difference from the reported values and requires
every value to be finite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TOLERANCE = 1e-9          # the CLI's default formula-vs-formula tolerance
CHECK_TOL_MAX = 1e-6      # loosest per-residual tolerance of `dwbc check`
MAX_DIGITS = 17.0         # agreement digits reported for an exact match
LAM, HBAR, Q = 0.31, 0.17, 1.3
DEEP_TAUS = ("i", "0.1i", "0.05i", "0.02i")


def _pair(x: float, y: float) -> str:
    return json.dumps([float(x), float(y)])


def draw_box(rng, n: int) -> list:
    """n complex values from the README box, as (re, im) float pairs."""
    re_part = rng.uniform(0.1, 0.9, n)
    im_part = rng.uniform(-0.05, 0.05, n)
    return [(float(a), float(b)) for a, b in zip(re_part, im_part)]


def _elliptic(rng, n: int, tau: str, route: str) -> list:
    u, v = draw_box(rng, n), draw_box(rng, n)
    return (["compute", "--model", "sos-elliptic", "--route", route,
             "--tau", tau, "--lambda", str(LAM), "--hbar", str(HBAR),
             "--u", *[_pair(*x) for x in u], "--v", *[_pair(*x) for x in v],
             "--format", "json"])


def _elliptic_sum(rng, i: int) -> list:
    return _elliptic(rng, 6, "i", "sum")


def _elliptic_deep_tau(rng, i: int) -> list:
    return _elliptic(rng, 4, DEEP_TAUS[i % len(DEEP_TAUS)], "all")


def _sixv_crosscheck(rng, i: int) -> list:
    z, w = draw_box(rng, 6), draw_box(rng, 6)
    return (["compute", "--model", "six-vertex", "--route", "all",
             "--q", str(Q), "--z", *[_pair(*x) for x in z],
             "--w", *[_pair(*x) for x in w], "--format", "json"])


def _check_suite(rng, i: int) -> list:
    seed = int(rng.integers(0, 2 ** 31))
    return ["check", "all", "--n", "4", "--seed", str(seed), "--format", "json"]


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable            # (rng, request index) -> argv
    cycle: int                # requests per input cycle; runs end on a cycle
    cost_s: float             # untraced seconds per request, sizes a run
    trace_cost_s: float       # traced seconds per request, sizes the trace run
    exercises: str
    bypasses: str

    def requests(self, seed: int):
        """Endless, seed-determined stream of argv lists."""
        rng = np.random.Generator(np.random.PCG64(seed))
        i = 0
        while True:
            yield self.make(rng, i)
            i += 1


WORKLOADS = {w.name: w for w in (
    Workload("elliptic-sum", _elliptic_sum, 1, 0.21, 0.30,
             "theta, closedform sum (n=6, tau=i)",
             "enumeration, transfer, determinant"),
    Workload("sixv-crosscheck", _sixv_crosscheck, 1, 0.24, 0.45,
             "enumeration, transfer, rmatrix entry lookups, six-vertex sum, "
             "Izergin determinant (n=6)",
             "theta"),
    Workload("elliptic-deep-tau", _elliptic_deep_tau, len(DEEP_TAUS),
             0.08, 0.14,
             "theta cost per call (tau = i, 0.1i, 0.05i, 0.02i), rmatrix "
             "tables, all elliptic routes (n=4)",
             "six-vertex sum, determinant, ellpoly"),
    Workload("check-suite", _check_suite, 1, 0.10, 0.20,
             "many small sums (n<=4), lattice guards, ellpoly, dybe residuals",
             "enumeration at n>4, transfer, determinant"),
)}


@dataclass
class Outcome:
    """Verdict of the benchmark on one reply."""

    failed: bool
    wrong: bool               # the CLI reported a pass its own reply contradicts
    digits: float | None      # -log10 of the largest cross-route rel. diff
    reason: str = ""


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _rel(a: complex, b: complex) -> float:
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom if denom > 0 else 0.0


def _digits(worst: float) -> float:
    if not math.isfinite(worst):
        return 0.0
    if worst == 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, max(0.0, -math.log10(worst)))


def _flag_list(argv: list, flag: str) -> list:
    """The [re, im] pairs that follow `flag` in argv."""
    start = argv.index(flag) + 1
    end = next((k for k in range(start, len(argv)) if argv[k].startswith("--")),
               len(argv))
    return [json.loads(a) for a in argv[start:end]]


def verify(argv: list, code, stdout: str, reference: complex | None = None) -> Outcome:
    """Check one reply of `dwbc.cli.main(argv)` without trusting its verdict.

    A request fails if it raised or exited non-zero, if its report does not
    parse or does not echo the inputs sent, if any value or residual is not
    finite, or if two routes (or the single route and `reference`) differ
    by more than 1e-9 relative.  `check` residuals must also stay below the
    loosest tolerance the suites use.

    The reply is also `wrong` when the CLI exited 0 with a pass verdict that
    the reply itself contradicts.  A disagreement with `reference` alone is
    a failure but not proof of a wrong reply: the reference is another
    float route with its own rounding error.
    """
    try:
        report = json.loads(stdout)
        claimed = code == 0 and report["verdict"] == "pass"
        problems = [] if code == 0 else [f"exit {code}"]
        if report["verdict"] != "pass":
            problems.append("verdict fail")
        if argv[0] == "check":
            digits, own, external = None, _check_problems(argv, report), []
        else:
            digits, own, external = _compute_problems(argv, report, reference)
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(True, code == 0, None,
                       f"exit {code}, unreadable report ({type(exc).__name__})")
    problems += own + external
    return Outcome(bool(problems), claimed and bool(own), digits,
                   "; ".join(problems))


def _check_problems(argv: list, report: dict) -> list:
    residuals = report["residuals"]
    problems = []
    if str(report["config"]["seed"]) != argv[argv.index("--seed") + 1]:
        problems.append("seed not echoed")
    if not residuals or not all(math.isfinite(r) and r <= CHECK_TOL_MAX
                                for r in residuals.values()):
        problems.append("residual not finite or above 1e-6")
    return problems


def _worst(values: list) -> float:
    return max((_rel(a, b) for i, a in enumerate(values) for b in values[i + 1:]),
               default=0.0)


def _compute_problems(argv: list, report: dict, reference) -> tuple:
    """(digits, problems the reply shows itself, problems against reference)."""
    own = [f"--{name} not echoed"
           for name in (("u", "v") if "--u" in argv else ("z", "w"))
           if report["config"].get(name) != _flag_list(argv, f"--{name}")]
    values = [complex(*r["value"]) for r in report["results"]]
    if not all(_finite(z) for z in values):
        return 0.0, own + ["non-finite value"], []
    every = values if reference is None else values + [complex(reference)]
    if len(every) < 2:
        return None, own, ["nothing to compare"]
    if not all(_finite(z) for z in every):
        return None, own, ["non-finite reference"]
    if _worst(values) > TOLERANCE:
        own.append("routes differ beyond 1e-9")
    worst = _worst(every)
    external = []
    if reference is not None and worst > TOLERANCE and not own:
        external.append("differs from column_transfer_z beyond 1e-9")
    return _digits(worst), own, external


def elliptic_reference(dwbc, argv: list) -> complex:
    """Column-transfer value for an `elliptic-sum` request, computed in the
    benchmark's own process after the timed window."""
    u, v = ([complex(*x) for x in _flag_list(argv, flag)]
            for flag in ("--u", "--v"))
    ctx = dwbc.ThetaContext(1j)
    return dwbc.column_transfer_z(ctx, dwbc.EllipticParams(u, v, LAM, HBAR))
