"""Write one BENCH_<N>.json: the benchmark's end-to-end medians, its
per-layer counts and theta's cost per call, for a parent revision and for
this checkout.

    python3 tools/bench_trajectory.py --parent REV --out BENCH_<N>.json
    python3 tools/bench_trajectory.py --parent REV --out smoke.json \
        --pairs 2

Run from the root of a checkout.  The parent revision is exported with
`git archive` into `.bench_build/<REV>` (ignored by git); the change is
the checkout itself, as it stands.  For every workload of BENCHMARK.json
and each of seeds 1..N, at BENCHMARK.json's run length, each tree's own
`perfbench/run.py --trace 0` runs once, the two runs of a seed back to
back as one pair.  N = --pairs defaults to MIN_PAIRS = 10, the fewest the
gain rule accepts; the floor, 2, makes a smoke run.  The parent runs first
on odd seeds and second on even ones, so that neither tree always takes
the later, warmer or cooler slot; "run_order" records which tree ran
first on each seed.  The file holds, per workload and tree, the summed
attempted and failed request counts and whether every reply was correct,
and under "pairs", per end-to-end metric, `pair_summary`: each pair's two
values, each tree's median, the parent's quartiles, the pairs the change
won and whether the gain rule holds (at least ten pairs, at least nine
tenths of them won, and a median gain larger than the parent's
interquartile range).

Per-layer counts come from one `perfbench/run.py --trace 1` run per
workload and tree, seed 1, at the same run length.  "per_layer" holds
every per-layer metric whose BENCHMARK.json unit is count/req or
computed/req, as {workload: {metric: {"parent": ..., "change": ...}}}.
Those depend only on the requests, so a change that keeps them equal did
the same work; the timed per-layer metrics swing with the host and are
left out.

Theta's cost per call is timed at tau = i, 0.1i, 0.05i, 0.02i (every tau
of the elliptic-deep-tau workload), 0.01i and 0.001i, over 400 fixed
arguments in [-0.3, 0.3] + i[-0.05, 0.05], where |theta| stays in the
float range down to tau = 0.001i.  Both trees' packages are loaded into
one interpreter, under two names, and each of 25 passes times every tree
once, each pass in the reverse order of the pass before.  Each pass
builds a fresh ThetaContext before its clock starts, and the 400
arguments are distinct, so every timed call evaluates theta: a context's
memo never answers one.  The host's speed drifts over minutes, so
alternating puts both trees through the same fast and slow spells, and
the spread of the passes shows how far a ratio can be trusted:
"theta_us_per_call" holds the median pass per tree and tau, and
"theta_us_per_call_quartiles" its lower and upper quartiles, all in µs
per call.  A tau a tree refuses is recorded as {"error": message} in
place of the median and has no quartiles.

Cold start is the wall time of `python -m dwbc compute --n 1` in a fresh
interpreter with the tree's `src` as PYTHONPATH: 5 runs per tree, the
trees alternating, and the median is kept as "cold_start_s".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE_SEED = 1
COUNT_UNITS = ("count/req", "computed/req")
THETA_PASSES = 25
COLD_RUNS = 5
MIN_PAIRS = 10      # the gain rule needs at least this many pairs

# argv: PASSES, then NAME=SRC pairs; prints {NAME: {tau: {"median": us,
# "quartiles": [us, us]} per call, or {"error": message}}}, timing the trees
# in turn, each pass in the reverse order of the pass before.
THETA_PROBE = """
import importlib.util, json, statistics, sys, time
import numpy as np
passes, trees = int(sys.argv[1]), dict(a.split("=", 1) for a in sys.argv[2:])
taus = {"i": 1j, "0.1i": 0.1j, "0.05i": 0.05j, "0.02i": 0.02j, "0.01i": 0.01j,
        "0.001i": 0.001j}
rng = np.random.default_rng(7)
pts = [complex(x) for x in rng.uniform(-0.3, 0.3, 400)
       + 1j * rng.uniform(-0.05, 0.05, 400)]
pkgs = {}
for name, src in trees.items():
    spec = importlib.util.spec_from_file_location(
        name, f"{src}/dwbc/__init__.py", submodule_search_locations=[f"{src}/dwbc"])
    pkgs[name] = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pkgs[name])
out = {name: {} for name in trees}
for label, tau in taus.items():
    live = {}
    for name, pkg in pkgs.items():
        try:
            pkg.ThetaContext(tau)
            live[name] = pkg
        except pkg.DwbcError as exc:
            out[name][label] = {"error": f"{type(exc).__name__}: {exc}"}
    names = list(live)
    times = {name: [] for name in names}
    for k in range(passes):
        for name in names[::-1] if k % 2 else names:
            ctx, theta = live[name].ThetaContext(tau), live[name].theta
            t0 = time.perf_counter()                    # nothing memoized
            for u in pts:
                theta(ctx, u)
            times[name].append(1e6 * (time.perf_counter() - t0) / len(pts))
    for name, us in times.items():
        q1, _, q3 = statistics.quantiles(us, n=4)
        out[name][label] = {"median": statistics.median(us),
                            "quartiles": [q1, q3]}
print(json.dumps(out))
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str) -> Path:
    """The committed files of `rev`, extracted under .bench_build/."""
    sha = git("rev-parse", rev)
    dest = ROOT / ".bench_build" / sha
    if not dest.is_dir():
        dest.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def bench(tree: Path, workload: str, seed: int, seconds: float,
          trace: int = 0) -> dict:
    """The result line of one perfbench run in `tree`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def theta_costs(trees: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", THETA_PROBE, str(THETA_PASSES),
         *(f"{side}={tree / 'src'}" for side, tree in trees.items())],
        check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def cold_start(trees: dict) -> dict:
    """Median seconds of `python -m dwbc compute --n 1` per tree."""
    times = {side: [] for side in trees}
    for _ in range(COLD_RUNS):
        for side, tree in trees.items():
            env = dict(os.environ, PYTHONPATH=str(tree / "src"))
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "dwbc", "compute", "--n", "1"],
                           cwd=tree, env=env, check=True, capture_output=True)
            times[side].append(time.perf_counter() - t0)
    return {side: statistics.median(t) for side, t in times.items()}


def pair_summary(parent: list, change: list, better: str) -> dict:
    """The gain rule over pairs of runs: parent[k] and change[k] are pair k,
    and `better` is "higher" or "lower".  The change wins a pair when it
    reads better, and a tie counts for neither; the gain is the change's
    median minus the parent's, signed so that positive is better.  The rule
    holds when there are at least MIN_PAIRS pairs, the change wins at least
    nine tenths of them and the gain exceeds the parent's interquartile
    range."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    medians = statistics.median(parent), statistics.median(change)
    gain = sign * (medians[1] - medians[0])
    return {"parent": list(parent), "change": list(change),
            "medians": {"parent": medians[0], "change": medians[1]},
            "parent_quartiles": [q1, q3], "won": won, "pairs": len(parent),
            "gain": gain,
            "gain_rule_holds": (len(parent) >= MIN_PAIRS
                                and 10 * won >= 9 * len(parent)
                                and gain > q3 - q1)}


def tally(results: list) -> dict:
    return {"attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare with")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS, metavar="N",
                        help="alternating parent/change pairs per workload, "
                             f"on seeds 1..N (default {MIN_PAIRS}, at least 2)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for the parent's quartiles")
    seeds = list(range(1, args.pairs + 1))
    seconds = spec["run_seconds"]
    trees = {"parent": export(args.parent), "change": ROOT}
    orders = {seed: list(trees)[::-1] if k % 2 else list(trees)
              for k, seed in enumerate(seeds)}
    workloads = {}
    for w in spec["workloads"]:
        runs = {side: [] for side in trees}
        for seed in seeds:
            for side in orders[seed]:
                runs[side].append(bench(trees[side], w["name"], seed, seconds))
                print(f"{w['name']} seed {seed} {side}: "
                      f"{runs[side][-1]['metrics']['req_per_s_norm']['value']:.4g} "
                      f"req/s, {runs[side][-1]['failed']} failed", file=sys.stderr)
        summary = {side: tally(r) for side, r in runs.items()}
        summary["pairs"] = {
            m["name"]: pair_summary(
                [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                m["better"])
            for m in spec["end_to_end"]}
        workloads[w["name"]] = summary
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    per_layer = {}
    for w in spec["workloads"]:
        metrics = {side: bench(tree, w["name"], TRACE_SEED, seconds,
                               trace=1)["metrics"]
                   for side, tree in trees.items()}
        rows = per_layer[w["name"]] = {
            name: {side: metrics[side][name]["value"] for side in trees}
            for name in counts}
        differ = [name for name, v in rows.items()
                  if v["parent"] != v["change"]]
        print(f"{w['name']} traced: counts differ in {differ or 'none'}",
              file=sys.stderr)
    theta_us = theta_costs(trees)
    cold_start_s = cold_start(trees)

    report = {
        "command": " ".join(["python3 tools/bench_trajectory.py",
                             *(argv if argv is not None else sys.argv[1:])]),
        "parent": trees["parent"].name,
        "change": {"head": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain"))},
        "seeds": seeds,
        "run_order": {str(seed): order for seed, order in orders.items()},
        "seconds": seconds,
        "environment": {"python": platform.python_version(),
                        "numpy": version("numpy"),
                        "machine": platform.machine(),
                        "cpus": len(os.sched_getaffinity(0))},
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "workloads": workloads,
        "per_layer": per_layer,
        "theta_us_per_call": {
            tau: {side: theta_us[side][tau].get("median", theta_us[side][tau])
                  for side in trees} for tau in theta_us["change"]},
        "theta_us_per_call_quartiles": {
            tau: {side: theta_us[side][tau]["quartiles"] for side in trees
                  if "quartiles" in theta_us[side][tau]}
            for tau in theta_us["change"]},
        "cold_start_s": cold_start_s,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
