"""Command-line front end.

Subcommands
    compute   evaluate a partition function by one route or by all routes of
              the chosen model, cross-checking the results pairwise
    check     run a named verification suite: symmetry, recursion, character,
              dybe, degeneration, appendix, or all
    bench     time every route of a model over sizes n = 1..cap and report
              term counts

compute and bench run a model's routes through one runner, `_run_routes`,
from one table, `_MODELS`, that gives each model's two list flags, how its
route arguments are built, and its routes in report order, named by the
library functions that run them.  The table holds no size caps: a route
over the library's cap raises `SizeCap`, which drops that route from
`--route all` and from bench, and is an error only when that route was
named.

Complex flags accept plain reals, `a+bi` forms, the token `i`, and
`[re, im]` pairs.  Seeded parameter lists are drawn componentwise from the
box [0.1, 0.9] + i*[-0.05, 0.05] by `draws.default_rng`, a standard-library
replica of numpy's PCG64 `default_rng`, so a seed pins the exact inputs
across machines and numpy versions.

Exit status: 0 pass, 1 parameter or domain error, 2 tolerance failure or
a non-finite value.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
import time

import numpy as np

from . import draws
from .closedform import _elliptic_view, recursion_factor, z_6v_sum, \
    z_izergin, z_sos_elliptic, z_trig_sos
from .ellpoly import Character, interpolate, membership_residual, \
    addition_formula_residual, qj_interpolation_residual, theta_product_poly, \
    vandermonde_ratio
from .enumeration import asm_number, column_transfer_6v, \
    column_transfer_trig, column_transfer_z, enumerate_6v, enumerate_sos, \
    enumerate_trig_sos
from .errors import DwbcError, InvalidParameter, SizeCap
from .rmatrix import EllipticParams, TrigParams, dybe_residual, \
    dybe_residual_trig, gauge_rescale, sixv_rmatrix, sos_rmatrix, \
    trig_nondyn_rmatrix, trig_sos_rmatrix, ybe_residual_nondyn
from .theta import ThetaContext

# model -> (column and row list flags, route arguments from cfg and those
# lists, {route: library function name}); a name is looked up in this
# module's namespace when its route runs, so a rebound function is the one
# called
_MODELS = {
    "sos-elliptic": (
        ("u", "v"),
        lambda cfg, a, b: (ThetaContext(cfg.tau),
                           EllipticParams(a, b, cfg.lam, cfg.hbar)),
        {"enumerate": "enumerate_sos", "transfer": "column_transfer_z",
         "sum": "z_sos_elliptic"}),
    "sos-trig": (
        ("z", "w"),
        lambda cfg, a, b: (TrigParams(a, b, cfg.q, cfg.mu),),
        {"enumerate": "enumerate_trig_sos",
         "transfer": "column_transfer_trig", "sum": "z_trig_sos"}),
    "six-vertex": (
        ("z", "w"),
        lambda cfg, a, b: (TrigParams(a, b, cfg.q),),
        {"enumerate": "enumerate_6v", "transfer": "column_transfer_6v",
         "determinant": "z_izergin", "sum": "z_6v_sum"}),
}
MODELS = tuple(_MODELS)
# every model's list flags, in table order: u, v, z, w
_LIST_FLAGS = tuple(dict.fromkeys(f for m in _MODELS.values() for f in m[0]))
# every model's route names, in table order, then "all"
ROUTES = (*dict.fromkeys(r for m in _MODELS.values() for r in m[2]), "all")
PROXY_TOL = 1e-6
_NUMBER = {"type": ["number", "null"]}   # null stands for a non-finite value

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["command", "config", "results", "comparisons", "verdict",
                 "residuals"],
    "additionalProperties": False,
    "properties": {
        "command": {"enum": ["compute", "check", "bench"]},
        "config": {"type": "object"},
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["route", "value", "time_ms"],
                "additionalProperties": False,
                "properties": {
                    "route": {"type": "string"},
                    "value": {"type": "array", "items": _NUMBER,
                              "minItems": 2, "maxItems": 2},
                    "time_ms": {"type": "number"},
                    "n": {"type": "integer"},
                    "terms": {"type": "number"},
                    "rel_diff": _NUMBER,
                },
            },
        },
        "comparisons": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["a", "b", "rel_diff"],
                "additionalProperties": False,
                "properties": {
                    "a": {"type": "string"},
                    "b": {"type": "string"},
                    "rel_diff": _NUMBER,
                },
            },
        },
        "verdict": {"enum": ["pass", "fail"]},
        "residuals": {"type": "object",
                      "additionalProperties": _NUMBER},
    },
}


def parse_complex(text: str) -> complex:
    """Parse `0.3`, `0.3+0.8i`, `i`, `-i`, or `[re, im]`."""
    s = text.strip().replace(" ", "")
    if s.startswith("[") and s.endswith("]"):
        parts = json.loads(s)
        if not isinstance(parts, list) or len(parts) != 2 \
                or any(type(x) not in (int, float) for x in parts):
            raise ValueError(f"expected [re, im], got {text!r}")
        try:
            val = complex(float(parts[0]), float(parts[1]))
        except OverflowError:   # an integer beyond the float range
            raise ValueError(f"{text!r} is out of the float range") from None
    else:
        s = s.replace("i", "j")
        val = complex(re.sub(r"(?<![\dj.])j", "1j", s))  # bare j, +j, 1+j, ...
    if not cmath.isfinite(val):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return val


def _draw_box(rng, n: int) -> list:
    re_part = rng.uniform(0.1, 0.9, n)
    im_part = rng.uniform(-0.05, 0.05, n)
    return [complex(a, b) for a, b in zip(re_part, im_part)]


def draw_parameters(n: int, seed: int) -> tuple:
    """Two reproducible length-n lists from the documented box."""
    rng = draws.default_rng(seed)
    return _draw_box(rng, n), _draw_box(rng, n)


def _rel(a: complex, b: complex) -> float:
    a, b = complex(a), complex(b)
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom if denom != 0 else 0.0


def _rel_matrix(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(a))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def _config_echo(cfg: argparse.Namespace) -> dict:
    out = {
        "command": cfg.command, "model": cfg.model, "n": cfg.n,
        "seed": cfg.seed, "tolerance": cfg.tolerance,
        "format": cfg.output_format,
        # a flag left at its default holds a float
        "tau": complex(cfg.tau), "lambda": complex(cfg.lam),
        "hbar": complex(cfg.hbar), "q": complex(cfg.q), "mu": complex(cfg.mu),
    }
    if cfg.command == "compute":
        out["route"] = cfg.route
    if cfg.command == "check":
        out["suite"] = cfg.suite
    for name in _LIST_FLAGS:
        lst = getattr(cfg, name)
        if lst is not None:
            out[name] = list(lst)
    return out


# each route's nominal term count at size n, for bench rows
_ROUTE_COST = {"enumerate": lambda n: asm_number(n),
               "transfer": lambda n: 2 ** n,
               "determinant": lambda n: n ** 3,
               "sum": lambda n: n * 2 ** (n - 1)}


def _run_routes(cfg: argparse.Namespace, a: list, b: list, route: str) -> list:
    """The result row {"route", "value", "time_ms"} of the route of cfg.model
    named by route, or of each of its routes when route is 'all', run in
    report order on the column parameters a and row parameters b.  'all'
    drops a route whose library call raises SizeCap; a named route passes
    the error on."""
    _, make_args, routes = _MODELS[cfg.model]
    args = make_args(cfg, a, b)
    rows = []
    for name, fn in routes.items():
        if route in (name, "all"):
            fn, t0 = globals()[fn], time.perf_counter()
            try:
                val = fn(*args)
            except SizeCap:
                if route != "all":
                    raise
                continue
            rows.append({"route": name, "value": complex(val),
                         "time_ms": (time.perf_counter() - t0) * 1000.0})
    return rows


def cmd_compute(cfg: argparse.Namespace):
    pair = _MODELS[cfg.model][0]
    if getattr(cfg, pair[0]) is None:
        for name, draw in zip(pair, draw_parameters(cfg.n, cfg.seed)):
            setattr(cfg, name, draw)
    results = _run_routes(cfg, *(getattr(cfg, name) for name in pair),
                          cfg.route)
    if not results:
        raise InvalidParameter(
            f"model '{cfg.model}' has no route '{cfg.route}' at n = {cfg.n}")
    comparisons = [{"a": x["route"], "b": y["route"],
                    "rel_diff": _rel(x["value"], y["value"])}
                   for i, x in enumerate(results) for y in results[i + 1:]]
    ok = all(cmath.isfinite(row["value"]) for row in results) \
        and all(c["rel_diff"] <= cfg.tolerance for c in comparisons)
    return {"results": results, "comparisons": comparisons,
            "verdict": "pass" if ok else "fail", "residuals": {}}, []


# ---------------------------------------------------------------------------
# check suites: given the config, the theta context at cfg.tau and a fresh
# generator seeded with cfg.seed, each returns (name, residual, tolerance) rows.

def _suite_symmetry(cfg: argparse.Namespace, ctx: ThetaContext, rng) -> list:
    n = max(2, min(cfg.n, 4))
    u, v = _draw_box(rng, n), _draw_box(rng, n)
    base = z_sos_elliptic(ctx, EllipticParams(u, v, cfg.lam, cfg.hbar))
    rows = []
    for t in range(3):
        for side, name in enumerate("uv"):
            perm = rng.permutation(n)
            uv = [u, v]
            uv[side] = [uv[side][k] for k in perm]
            z = z_sos_elliptic(ctx, EllipticParams(*uv, cfg.lam, cfg.hbar))
            rows.append((f"symmetry.{name}_perm_{t}", _rel(z, base),
                         cfg.tolerance))
    return rows


def _suite_recursion(cfg: argparse.Namespace, ctx: ThetaContext, rng) -> list:
    rows = []
    for m in range(2, max(2, min(cfg.n, 5)) + 1):
        u, v = _draw_box(rng, m), _draw_box(rng, m)
        u[m - 1] = v[m - 1] - cfg.hbar
        p = EllipticParams(u, v, cfg.lam, cfg.hbar)
        sub = EllipticParams(u[:m - 1], v[:m - 1], cfg.lam, cfg.hbar)
        lhs = z_sos_elliptic(ctx, p)
        rhs = recursion_factor(ctx, p) * z_sos_elliptic(ctx, sub)
        rows.append((f"recursion.n{m}", _rel(lhs, rhs), cfg.tolerance))
    return rows


def _suite_character(cfg: argparse.Namespace, ctx: ThetaContext, rng) -> list:
    n = max(1, min(cfg.n, 3))
    u, v = _draw_box(rng, n), _draw_box(rng, n)
    lam, hbar = cfg.lam, cfg.hbar
    p = EllipticParams(u, v, lam, hbar)
    rows = []
    # (side, alpha of the character in that side's variables, seed offset)
    for side, alpha, offset in ((0, lam + sum(v), 11), (1, -lam + sum(u), 41)):
        for i in range(n):
            res = membership_residual(
                ctx, _elliptic_view(ctx, p, side, i), Character(n, alpha),
                samples=5, rng=draws.default_rng(cfg.seed + offset + i))
            rows.append((f"character.{'uv'[side]}{i + 1}", res, cfg.tolerance))
    return rows


def _suite_dybe(cfg: argparse.Namespace, ctx: ThetaContext, rng) -> list:
    # (row name, rows, residual at three points drawn afresh for each row)
    table = (
        ("dybe.elliptic", 5, lambda t: dybe_residual(ctx, *t, cfg.lam,
                                                     cfg.hbar)),
        ("dybe.trig", 5, lambda t: dybe_residual_trig(*t, cfg.mu, cfg.q)),
        ("ybe.nondyn", 2, lambda t: ybe_residual_nondyn(*t, cfg.q)))
    return [(f"{name}_{t}", residual(_draw_box(rng, 3)), cfg.tolerance)
            for name, count, residual in table for t in range(count)]


def _suite_degeneration(cfg: argparse.Namespace, ctx: ThetaContext, rng) -> list:
    lam, hbar = cfg.lam, cfg.hbar
    q = cmath.exp(1j * math.pi * complex(hbar))
    mu = cmath.exp(2j * math.pi * complex(lam))
    ctx40 = ThetaContext(40j)
    rows = []

    # entrywise R-matrix chain at a random spectral point
    u0, v0 = _draw_box(rng, 2)
    z0, w0 = cmath.exp(2j * math.pi * u0), cmath.exp(2j * math.pi * v0)
    fac = 2j * math.pi * cmath.exp(1j * math.pi * (u0 + v0))
    r_ell = sos_rmatrix(ctx40, u0 - v0, lam, hbar).m * fac
    r_trig = trig_sos_rmatrix(z0, w0, mu, q).m
    rows.append(("rmatrix.elliptic_to_trig", _rel_matrix(r_trig, r_ell),
                 PROXY_TOL))
    r_big = trig_sos_rmatrix(z0, w0, 1e8, q).m
    r_nd = trig_nondyn_rmatrix(z0, w0, q).m
    rows.append(("rmatrix.trig_to_nondyn", _rel_matrix(r_nd, r_big),
                 PROXY_TOL))
    r_gauged = gauge_rescale(trig_nondyn_rmatrix(z0, w0, q), 1.0 / q).m
    rows.append(("rmatrix.nondyn_gauge_to_sixv",
                 _rel_matrix(sixv_rmatrix(z0, w0, q).m, r_gauged),
                 cfg.tolerance))

    # partition-function chain
    n = max(1, min(cfg.n, 3))
    u, v = _draw_box(rng, n), _draw_box(rng, n)
    z = [cmath.exp(2j * math.pi * x) for x in u]
    w = [cmath.exp(2j * math.pi * x) for x in v]
    pe = EllipticParams(u, v, lam, hbar)
    z_ell = z_sos_elliptic(ctx40, pe)
    fac = (2j * math.pi) ** (n * n) \
        * cmath.exp(1j * math.pi * n * (sum(u) + sum(v)))
    z_tr = z_trig_sos(TrigParams(z, w, q, mu))
    rows.append(("pf.elliptic_to_trig", _rel(fac * z_ell, z_tr), PROXY_TOL))
    z_tr_inf = z_trig_sos(TrigParams(z, w, q, 1e8))
    z_6v = z_6v_sum(TrigParams(z, w, q))
    rows.append(("pf.trig_to_sixv", _rel(z_tr_inf, z_6v), PROXY_TOL))

    # gauge invariance of the partition sums
    rho = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3))
    base = enumerate_sos(ctx, pe)
    gauged = enumerate_sos(
        ctx, pe,
        rmatrix_fn=lambda c, x, l, h: gauge_rescale(sos_rmatrix(c, x, l, h), rho))
    rows.append(("gauge.sos", _rel(gauged, base), 1e-10))
    pt = TrigParams(z, w, q)
    rows.append(("gauge.sixv",
                 _rel(enumerate_6v(pt, rmatrix_fn=trig_nondyn_rmatrix),
                      enumerate_6v(pt)), 1e-10))
    return rows


def _suite_appendix(cfg: argparse.Namespace, ctx: ThetaContext, rng) -> list:
    rows = []

    for n in sorted({2, max(2, min(cfg.n, 6))}):
        zeros = _draw_box(rng, n)
        nodes = _draw_box(rng, n)
        alpha = sum(zeros)
        values = [theta_product_poly(ctx, zeros, x) for x in nodes]
        worst = 0.0
        for x in _draw_box(rng, 4):
            want = theta_product_poly(ctx, zeros, x)
            got = interpolate(ctx, nodes, values, alpha, x)
            worst = max(worst, _rel(got, want))
        rows.append((f"appendix.interpolation_n{n}", worst, cfg.tolerance))

    n = max(2, min(cfg.n, 5))
    lambdas = [x + 0.05 for x in _draw_box(rng, n)]
    us = _draw_box(rng, n)
    v0 = complex(rng.uniform(-0.4, -0.1), rng.uniform(-0.05, 0.05))
    rows.append((f"appendix.addition_n{n}",
                 addition_formula_residual(ctx, lambdas, us, v0),
                 cfg.tolerance))

    us = _draw_box(rng, n)
    x0 = complex(rng.uniform(-0.4, -0.1), rng.uniform(-0.05, 0.05))
    for j in range(2, n + 1):
        rows.append((f"appendix.qj_interpolation_j{j}",
                     qj_interpolation_residual(ctx, us, cfg.lam, cfg.hbar, j, x0),
                     cfg.tolerance))

    n = max(2, min(cfg.n, 4))
    alpha = complex(0.27, 0.03)
    basis = []
    for _ in range(n):
        zeros = _draw_box(rng, n - 1)
        zeros.append(alpha - sum(zeros))
        basis.append(lambda x, zs=tuple(zeros): theta_product_poly(ctx, zs, x))
    nodes_a = _draw_box(rng, n)
    nodes_b = _draw_box(rng, n)
    ra = vandermonde_ratio(ctx, basis, nodes_a, alpha)
    rb = vandermonde_ratio(ctx, basis, nodes_b, alpha)
    rows.append((f"appendix.vandermonde_n{n}", _rel(ra, rb), 1e-8))
    return rows


_SUITE_FNS = {
    "symmetry": _suite_symmetry,
    "recursion": _suite_recursion,
    "character": _suite_character,
    "dybe": _suite_dybe,
    "degeneration": _suite_degeneration,
    "appendix": _suite_appendix,
}
SUITES = (*_SUITE_FNS, "all")


def cmd_check(cfg: argparse.Namespace):
    names = list(_SUITE_FNS) if cfg.suite == "all" else [cfg.suite]
    ctx = ThetaContext(cfg.tau)
    rows = []
    for name in names:
        rows.extend(_SUITE_FNS[name](cfg, ctx, draws.default_rng(cfg.seed)))
    ok = all(val <= tol for _, val, tol in rows)
    # the rows keep each residual's tolerance for the text rendering
    return {"results": [], "comparisons": [],
            "verdict": "pass" if ok else "fail",
            "residuals": {name: val for name, val, _ in rows}}, rows


def cmd_bench(cfg: argparse.Namespace):
    results = []
    for n in range(1, cfg.n + 1):
        rng = draws.default_rng([cfg.seed, n])
        a, b = _draw_box(rng, n), _draw_box(rng, n)
        rows = _run_routes(cfg, a, b, "all")
        for row in rows:
            # the largest gap to the other routes at this n; np.max keeps NaN
            gaps = [_rel(row["value"], o["value"]) for o in rows if o is not row]
            results.append({**row, "n": n, "terms": _ROUTE_COST[row["route"]](n),
                            "rel_diff": float(np.max(gaps, initial=0.0))})
    times = {(row["route"], row["n"]): row["time_ms"] for row in results}
    crossover = next((float(n) for n in range(1, cfg.n + 1)
                      if ("determinant", n) in times and ("sum", n) in times
                      and times["determinant", n] < times["sum", n]), -1.0)
    return {"results": results, "comparisons": [], "verdict": "pass",
            "residuals": {"crossover_n": crossover}}, []


# ---------------------------------------------------------------------------
# rendering and entry point

def _fmt_value(z: complex) -> str:
    return f"{z.real:+.16e} {z.imag:+.16e}i"


def _json_safe(obj):
    """obj with each complex as [re, im] and each non-finite float as None:
    JSON has no complex numbers, and null, not NaN."""
    if isinstance(obj, complex):
        obj = [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_safe(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _render_text(report: dict, rows: list) -> str:
    lines = [f"command: {report['command']}"]
    cfgd = report["config"]
    head = [f"model: {cfgd['model']}", f"n: {cfgd['n']}", f"seed: {cfgd['seed']}"]
    if "route" in cfgd:
        head.insert(1, f"route: {cfgd['route']}")
    if "suite" in cfgd:
        head.insert(0, f"suite: {cfgd['suite']}")
    lines.append("  ".join(head))
    if report["command"] == "bench":
        lines.append(f"{'n':>3}  {'route':<12}{'terms':>10}  {'time_ms':>10}  "
                     f"{'rel_diff':>9}  value")
        for row in report["results"]:
            lines.append(
                f"{row['n']:>3}  {row['route']:<12}{row['terms']:>10}  "
                f"{row['time_ms']:>10.3f}  {row['rel_diff']:>9.1e}  "
                f"{_fmt_value(row['value'])}")
        cx = report["residuals"]["crossover_n"]
        lines.append(
            f"crossover: determinant overtakes sum at n = {int(cx)}" if cx > 0
            else "crossover: none observed in this range")
    else:
        for row in report["results"]:
            lines.append(f"route={row['route']:<12} value = "
                         f"{_fmt_value(row['value'])}  [{row['time_ms']:.3f} ms]")
        for cmp_ in report["comparisons"]:
            lines.append(f"compare {cmp_['a']} | {cmp_['b']}: rel_diff = "
                         f"{cmp_['rel_diff']:.3e}")
        for name, val, tol in rows:
            flag = "pass" if val <= tol else "FAIL"
            lines.append(f"{name:<34} residual = {val:.3e}  tol = {tol:.0e}  {flag}")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines)


def _add_common(sub: argparse.ArgumentParser, default_n: int) -> None:
    sub.add_argument("--model", choices=MODELS, default="six-vertex")
    sub.add_argument("--n", type=int, default=None)
    # fields a subcommand has no flag for, so every command reads them alike
    sub.set_defaults(default_n=default_n, route="all", suite="all",
                     **dict.fromkeys(_LIST_FLAGS))
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tau", type=parse_complex, default=1j)
    sub.add_argument("--lambda", dest="lam", type=parse_complex, default=0.31)
    sub.add_argument("--hbar", type=parse_complex, default=0.17)
    sub.add_argument("--q", type=parse_complex, default=1.3)
    sub.add_argument("--mu", type=parse_complex, default=0.7)
    sub.add_argument("--tolerance", type=float, default=1e-9)
    sub.add_argument("--format", dest="output_format",
                     choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwbc",
        description="Domain-wall partition functions of the elliptic SOS, "
                    "trigonometric SOS and six-vertex models, cross-checked "
                    "across independent routes.")
    subs = parser.add_subparsers(dest="command", required=True)

    pc = subs.add_parser("compute", help="evaluate one or all routes")
    _add_common(pc, default_n=3)
    pc.add_argument("--route", choices=ROUTES)
    for name in _LIST_FLAGS:
        pc.add_argument(f"--{name}", nargs="+", type=parse_complex)

    pk = subs.add_parser("check", help="run a verification suite")
    pk.add_argument("suite", nargs="?", choices=SUITES)
    _add_common(pk, default_n=3)

    pb = subs.add_parser("bench", help="time every route over n = 1..cap")
    _add_common(pb, default_n=5)
    return parser


def _validate(cfg: argparse.Namespace) -> None:
    given = {name: getattr(cfg, name) for name in _LIST_FLAGS
             if getattr(cfg, name) is not None}
    if cfg.n is None:
        cfg.n = len(next(iter(given.values()))) if given else cfg.default_n
    if cfg.n < 1:
        raise InvalidParameter(f"n must be >= 1, got {cfg.n}")
    if cfg.seed < 0:
        raise InvalidParameter(f"--seed must be >= 0, got {cfg.seed}")
    if not cfg.tolerance > 0:
        raise InvalidParameter(f"tolerance must be positive, got {cfg.tolerance}")
    for name, lst in given.items():
        if len(lst) != cfg.n:
            raise InvalidParameter(
                f"--{name} lists {len(lst)} values but n = {cfg.n}")
    pair = _MODELS[cfg.model][0]
    if given and tuple(given) != pair:
        raise InvalidParameter(
            f"model '{cfg.model}' takes --{pair[0]} and --{pair[1]}, given "
            f"together; got {' '.join('--' + name for name in given)}")


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        cfg = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _validate(cfg)
        # looked up by name at call time, so a rebound cmd_* is the one run
        parts, rows = globals()[f"cmd_{cfg.command}"](cfg)
    except DwbcError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 1
    # built once the command has run: compute draws its missing lists into cfg
    report = {"command": cfg.command, "config": _config_echo(cfg), **parts}
    print(json.dumps(_json_safe(report), indent=2, allow_nan=False)
          if cfg.output_format == "json" else _render_text(report, rows))
    return 0 if report["verdict"] == "pass" else 2


if __name__ == "__main__":
    sys.exit(main())
