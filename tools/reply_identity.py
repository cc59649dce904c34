"""Check that a change leaves every fixed benchmark reply byte-identical.

    python3 tools/reply_identity.py --parent REV

Run from the root of a checkout.  The requests are the benchmark's own:
`perfbench/run.py: fixed_requests` at BENCHMARK.json's run length, for
every workload and seeds 1-10.  Each tree (the parent revision, exported
as by `tools/bench_trajectory.py`, and this checkout as it stands) runs
all of them through its own `dwbc.cli.main` in one subprocess; both
subprocesses run at the same time.  A reply is its exit code, stdout,
stderr and the messages of the warnings it raised.  `time_ms` fields are
masked before the comparison, since timings are the one part of a reply
that may vary.

Prints, per workload, how many replies are identical and how many differ,
with each tree's tally of exit codes, then the first few differences.
Exits 0 only when every reply is identical.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

from bench_trajectory import export  # noqa: E402
from run import fixed_requests  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)
SHOW = 5                  # differences printed in full

# argv: SRC; stdin: a JSON list of argv lists; prints a JSON list with one
# {code, stdout, stderr, warnings} per request, each run by SRC's dwbc.
REPLAY = """
import contextlib, io, json, sys, warnings
sys.path.insert(0, sys.argv[1])
import dwbc.cli as cli
replies = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \\
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    replies.append({"code": code, "stdout": out.getvalue(),
                    "stderr": err.getvalue(),
                    "warnings": [f"{w.category.__name__}: {w.message}"
                                 for w in caught]})
print(json.dumps(replies))
"""

_TIME_MS = re.compile(r'"time_ms": [^,\n}]+')


def replay(tree: Path, requests: list) -> subprocess.Popen:
    """Start replaying `requests` through `tree`'s CLI."""
    proc = subprocess.Popen(
        [sys.executable, "-c", REPLAY, str(tree / "src")], cwd=tree,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    proc.stdin.write(json.dumps(requests))
    proc.stdin.close()
    return proc


def collect(proc: subprocess.Popen) -> list:
    out = proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0:
        raise SystemExit(f"replay exited with status {proc.returncode}")
    replies = json.loads(out)
    for reply in replies:
        reply["stdout"] = _TIME_MS.sub('"time_ms": 0', reply["stdout"])
    return replies


def first_difference(a: dict, b: dict) -> str:
    for field in ("code", "stdout", "stderr", "warnings"):
        if a[field] == b[field]:
            continue
        if isinstance(a[field], str):
            pairs = zip(a[field].splitlines(), b[field].splitlines())
            line = next(((x, y) for x, y in pairs if x != y),
                        (a[field][-200:], b[field][-200:]))
            return f"{field}: {line[0]!r} -> {line[1]!r}"
        return f"{field}: {a[field]!r} -> {b[field]!r}"
    return "identical"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    labels, requests = [], []
    for w in spec["workloads"]:
        workload = WORKLOADS[w["name"]]
        for seed in SEEDS:
            batch = fixed_requests(workload, seed, seconds, workload.cost_s)
            labels += [(w["name"], seed, i) for i in range(len(batch))]
            requests += batch
    procs = {side: replay(tree, requests)
             for side, tree in (("parent", export(args.parent)), ("change", ROOT))}
    replies = {side: collect(proc) for side, proc in procs.items()}

    tallies = {}
    differences = []
    for k, (name, seed, i) in enumerate(labels):
        a, b = replies["parent"][k], replies["change"][k]
        t = tallies.setdefault(name, {"identical": 0, "differing": 0,
                                      "parent": Counter(), "change": Counter()})
        t["parent"][a["code"]] += 1
        t["change"][b["code"]] += 1
        if a == b:
            t["identical"] += 1
        else:
            t["differing"] += 1
            differences.append((name, seed, i, requests[k], first_difference(a, b)))

    def codes(c):
        return ", ".join(f"{n} exit {code}" for code, n in sorted(c.items(), key=str))

    for name, t in tallies.items():
        print(f"{name}: {t['identical']} identical, {t['differing']} differing; "
              f"parent {codes(t['parent'])}; change {codes(t['change'])}")
    total = sum(t["identical"] + t["differing"] for t in tallies.values())
    print(f"all: {total - len(differences)} of {total} identical")
    for name, seed, i, argv, diff in differences[:SHOW]:
        print(f"\n{name} seed {seed} request {i}: {' '.join(argv)}\n  {diff}")
    return 0 if not differences else 1


if __name__ == "__main__":
    sys.exit(main())
