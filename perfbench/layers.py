"""Per-layer tracing of the `dwbc` package from outside it.

`install(tracer)` wraps the public functions of each layer module
(`dwbc.theta`, `dwbc.rmatrix`, `dwbc.enumeration`, `dwbc.closedform`,
`dwbc.ellpoly`, `dwbc.cli`) and rebinds every name in every loaded
`dwbc*` module that refers to one of them, so calls made through
`from .theta import theta` bindings are traced too.  Modules are taken
from `sys.modules`: the package attribute `dwbc.theta` is the function,
not the module.

Each wrapped call is a span.  A span's self time is its duration minus
the time covered by the wrapped calls it makes.  Two hot entry points are
counted without timing, to keep the overhead down: `RMatrix4.entry` (one
call per vertex of every enumerated configuration) and
`ThetaContext.__post_init__` (one per constructed context).

Nothing under `src/` is changed; `uninstall()` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from math import factorial

LAYERS = ("theta", "rmatrix", "enumeration", "closedform", "ellpoly", "cli")


def layer_functions():
    """{(layer, name): function} for the public functions each layer module
    defines itself (re-exports from other modules are left to their owner)."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"dwbc.{layer}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out[(layer, name)] = obj
    return out


class Tracer:
    """Span and counter store for one request at a time (call `reset()`
    between requests)."""

    def __init__(self):
        self._stack = []          # one [child_seconds, layer] per open span
        self.reset()

    def reset(self) -> None:
        self.spans = defaultdict(lambda: [0, 0.0])   # "layer.fn" -> [calls, self_s]
        self.theta_args = set()
        self.rmatrix_theta_calls = 0
        self.entry_lookups = 0
        self.contexts = 0
        self.sum_terms = 0        # computed: n! per permutation-sum call
        self.configs = 0          # computed: ASM(n) per enumeration call

    def snapshot(self) -> dict:
        """JSON-ready per-request record."""
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "theta_distinct": len(self.theta_args),
            "rmatrix_theta_calls": self.rmatrix_theta_calls,
            "entry_lookups": self.entry_lookups,
            "contexts": self.contexts,
            "sum_terms": self.sum_terms,
            "configs": self.configs,
        }

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        stack = self._stack
        perf = time.perf_counter
        hook = self._hook(layer, name)

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args)
            frame = [0.0, layer]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                rec = self.spans[key]
                rec[0] += 1
                rec[1] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        functools.update_wrapper(traced, fn)
        traced.perfbench_traced = True
        return traced

    def _hook(self, layer: str, name: str):
        """Counter updated from a call's arguments, before the call runs."""
        if (layer, name) == ("theta", "theta"):
            def on_theta(args):
                self.theta_args.add((args[0].tau, complex(args[1])))
                if self._stack and self._stack[-1][1] == "rmatrix":
                    self.rmatrix_theta_calls += 1
            return on_theta
        if layer == "closedform" and name in SUM_FUNCTIONS:
            def on_sum(args):
                self.sum_terms += factorial(_size(args))
            return on_sum
        if layer == "enumeration" and name.startswith("enumerate_"):
            asm_number = sys.modules["dwbc.enumeration"].asm_number

            def on_enumerate(args):
                self.configs += asm_number(_size(args))
            return on_enumerate
        return None


SUM_FUNCTIONS = ("z_sos_elliptic", "z_6v_sum", "z_trig_sos")
RMATRIX_BUILDERS = ("sos_rmatrix", "sixv_rmatrix", "trig_sos_rmatrix",
                    "trig_nondyn_rmatrix")


def _size(args) -> int:
    """n of the EllipticParams/TrigParams among a route's arguments."""
    return next(a.n for a in args if hasattr(a, "n"))


_restore = None       # (owner, attribute, original) for each binding changed


def install(tracer: Tracer) -> dict:
    """Wrap every layer function at every binding; returns
    {"module.attr": "layer.fn"} for each rebound name."""
    global _restore
    if _restore is not None:
        raise RuntimeError("a tracer is already installed")
    changed = []
    wrapped = {id(fn): (tracer.wrap(layer, name, fn), f"{layer}.{name}", fn)
               for (layer, name), fn in layer_functions().items()}
    bindings = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "dwbc" or modname.startswith("dwbc.")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[2] is obj:
                changed.append((mod, attr, obj))
                setattr(mod, attr, hit[0])
                bindings[f"{modname}.{attr}"] = hit[1]

    rmatrix = sys.modules["dwbc.rmatrix"]
    theta_mod = sys.modules["dwbc.theta"]
    entry = rmatrix.RMatrix4.entry
    post_init = theta_mod.ThetaContext.__post_init__

    def counted_entry(self_r, *args):
        tracer.entry_lookups += 1
        return entry(self_r, *args)

    def counted_post_init(self_c):
        tracer.contexts += 1
        return post_init(self_c)

    for cls, attr, new in ((rmatrix.RMatrix4, "entry", counted_entry),
                           (theta_mod.ThetaContext, "__post_init__",
                            counted_post_init)):
        changed.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, new)
    _restore = changed
    return bindings


def uninstall() -> None:
    """Restore every binding `install` changed."""
    global _restore
    for owner, attr, obj in reversed(_restore or []):
        setattr(owner, attr, obj)
    _restore = None


def _calls(spans, keys):
    return sum(spans.get(k, (0, 0.0))[0] for k in keys)


def _self_ms(spans, keys):
    return 1000.0 * sum(spans.get(k, (0, 0.0))[1] for k in keys)


def layer_metrics(records: list) -> dict:
    """Per-request averages over the snapshots of one traced run."""
    n = len(records)
    spans = defaultdict(lambda: [0, 0.0])
    totals = defaultdict(int)
    for rec in records:
        for key, (calls, self_s) in rec["spans"].items():
            spans[key][0] += calls
            spans[key][1] += self_s
        for key, val in rec.items():
            if key != "spans":
                totals[key] += val
    keys = list(spans)

    def of(layer, pred=lambda name: True):
        return [k for k in keys
                if k.split(".", 1)[0] == layer and pred(k.split(".", 1)[1])]

    theta_calls = _calls(spans, ["theta.theta"])
    theta_self = _self_ms(spans, ["theta.theta"])
    lattice = ["theta.is_on_lattice", "theta.require_off_lattice"]
    sums = of("closedform", lambda f: f in SUM_FUNCTIONS)
    return {
        "theta.calls": theta_calls / n,
        "theta.distinct_frac": (totals["theta_distinct"] / theta_calls
                                if theta_calls else 0.0),
        "theta.us_per_call": (1000.0 * theta_self / theta_calls
                              if theta_calls else 0.0),
        "theta.self_ms": theta_self / n,
        # a require_off_lattice call counts twice: it calls is_on_lattice
        "theta.lattice_calls": _calls(spans, lattice) / n,
        "theta.lattice_ms": _self_ms(spans, lattice) / n,
        "theta.contexts": totals["contexts"] / n,
        "rmatrix.builds": _calls(spans, [f"rmatrix.{f}"
                                         for f in RMATRIX_BUILDERS]) / n,
        "rmatrix.self_ms": _self_ms(spans, of("rmatrix")) / n,
        "rmatrix.theta_calls": totals["rmatrix_theta_calls"] / n,
        "rmatrix.entry_lookups": totals["entry_lookups"] / n,
        "enumeration.enumerate_self_ms": _self_ms(
            spans, of("enumeration", lambda f: f.startswith("enumerate_"))) / n,
        "enumeration.transfer_self_ms": _self_ms(
            spans, of("enumeration", lambda f: f.startswith("column_transfer_"))) / n,
        "enumeration.configs": totals["configs"] / n,
        "closedform.sum_calls": _calls(spans, sums) / n,
        "closedform.sum_self_ms": _self_ms(spans, sums) / n,
        "closedform.sum_terms": totals["sum_terms"] / n,
        "closedform.det_calls": _calls(spans, ["closedform.z_izergin"]) / n,
        "closedform.det_ms": _self_ms(spans, ["closedform.z_izergin"]) / n,
        "ellpoly.calls": _calls(spans, of("ellpoly")) / n,
        "ellpoly.self_ms": _self_ms(spans, of("ellpoly")) / n,
        "cli.self_ms": _self_ms(spans, of("cli")) / n,
    }
