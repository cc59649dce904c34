"""Outside-in request benchmark for `dwbc`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One closed-loop client sends
`dwbc.cli.main([..., "--format", "json"])` requests to a fresh worker
process (`worker.py`), each request waiting for the previous reply.  A
run sends a fixed number of whole input cycles, sized from S and the
workload's nominal request cost so that it takes about S seconds on the
reference machine; the requests, and so the attempted and failed
counts, depend only on the workload, the seed and S.  Every reply is
verified by the benchmark itself (`workloads.verify`), not by the CLI's
verdict.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: set-up time
(median of several worker spawns, each timed from spawn to the return of
`import dwbc.cli`), the worker's peak RSS, and throughput and median and
p90 latency normalized to a reference machine speed, which the worker
measures with calibration slices between requests (see README.md).  The
raw figures, failure share and cross-route agreement digits are printed
above the result line; failures are also its `failed` count.

--trace 1 reports the per-layer metrics: a fixed, seed-determined set of
requests runs in a worker whose layer functions are wrapped
(`layers.py`), then again in an untraced worker; the ratio of the two wall
times is the tracing overhead, and the two sets of values must match
bit for bit.  Import times come from `python -X importtime`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `correct` is false when the CLI
reported a pass that its own reply contradicts, or when tracing changed
a value.  Requests the CLI itself flags (non-zero exit) count as failed.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import layer_metrics  # noqa: E402
from workloads import WORKLOADS, elliptic_reference, verify  # noqa: E402

SETUP_SPAWNS = 5          # set-up time and import breakdown are medians of these
CAL_EVERY_S = 0.1         # least time between two calibration slices
CAL_REF_MS = 3.5          # slice time of the machine normalized figures refer to
TRACE_SHARE = 0.45        # share of --seconds the traced requests should take
IMPORT_FAMILIES = ("scipy", "numpy", "dwbc")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class Worker:
    """One `worker.py` process; `setup_s` is spawn-to-import-return time."""

    def __init__(self, trace: bool = False):
        cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT)]
        if trace:
            cmd.append("--trace")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        try:
            ready = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - t0
            if ready.strip() != '{"ready": true}':
                raise BenchError(f"worker did not start (got {ready!r})")
        except BaseException:
            self.close()
            raise

    def call(self, argv: list) -> dict:
        return self._send({"argv": argv})

    def calibrate(self) -> float:
        return self._send({"calibrate": True})["cal_ms"]

    def _send(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("worker exited during a request")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_requests(worker: Worker, requests) -> tuple:
    """Closed loop over an iterable of argv lists, with a calibration slice
    before a request whenever CAL_EVERY_S has passed since the last one.

    Returns (replies, seconds spent in requests, mean calibration ms).
    The mean, not the median: a slice runs either at full speed or, when
    the host shares the core, up to twice as slow, and a request's time
    averages over both states the same way.
    """
    replies, cal = [], []
    busy = 0.0
    last_cal = None
    for argv in requests:
        if last_cal is None or time.perf_counter() - last_cal >= CAL_EVERY_S:
            cal.append(worker.calibrate())
            last_cal = time.perf_counter()
        t0 = time.perf_counter()
        replies.append((argv, worker.call(argv)))
        busy += time.perf_counter() - t0
    return replies, busy, statistics.fmean(cal)


def fixed_requests(workload, seed: int, seconds: float,
                   seconds_per_request: float) -> list:
    """The first whole cycles of the workload's stream for `seed` that take
    about `seconds` at `seconds_per_request` each, never fewer than ten
    cycles.

    The count does not depend on how fast the machine runs, so two runs
    with one seed attempt the same requests and fail the same ones.
    """
    count = int(seconds / seconds_per_request) // workload.cycle * workload.cycle
    stream = workload.requests(seed)
    return [next(stream) for _ in range(max(10 * workload.cycle, count))]


def check_replies(workload, replies: list) -> list:
    """Outcome of every reply; the elliptic-sum reference is computed here,
    outside the timed window."""
    dwbc = None
    if workload.name == "elliptic-sum":
        sys.path.insert(0, str(ROOT / "src"))
        import dwbc
    outcomes = []
    for argv, reply in replies:
        ref = elliptic_reference(dwbc, argv) if dwbc is not None else None
        outcomes.append(verify(argv, reply["code"], reply["stdout"], ref))
    return outcomes


def import_breakdown(text: str) -> dict:
    """Self time in ms per package family from `python -X importtime` output.

    A module is charged to the outermost scipy or numpy import enclosing
    it, else to its own family or the nearest enclosing one.  So numpy
    modules first pulled in by scipy count as scipy (they are what dropping
    scipy saves), and numpy imported by dwbc counts as numpy.
    """
    rows = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|( *)(\S+)", line)
        if m:
            rows.append((int(m.group(1)), len(m.group(2)), m.group(3)))
    totals = dict.fromkeys(IMPORT_FAMILIES, 0.0)
    stack = []                # (depth, family) of enclosing imports
    for self_us, depth, name in reversed(rows):   # parents print after children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".", 1)[0]
        outer = stack[-1][1] if stack else None
        family = top if top in totals and outer in (None, "dwbc") else outer
        if family is not None:
            totals[family] += self_us / 1000.0
        stack.append((depth, family))
    return totals


def _summary(outcomes: list) -> dict:
    failed = [o for o in outcomes if o.failed]
    digits = [o.digits for o in outcomes if o.digits is not None]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "wrong": sum(o.wrong for o in outcomes),
        "digits": statistics.median(digits) if digits else None,
        "reasons": Counter(o.reason for o in failed),
    }


def measure(workload, seed: int, seconds: float) -> tuple:
    setups = []
    for _ in range(SETUP_SPAWNS - 1):
        with Worker() as w:
            setups.append(w.setup_s)
    with Worker() as w:
        setups.append(w.setup_s)
        replies, busy, cal_ms = run_requests(
            w, fixed_requests(workload, seed, seconds, workload.cost_s))
    lat = [r["ms"] for _, r in replies]
    # One latency sample per input cycle, so that the four tau classes of
    # elliptic-deep-tau (about 12, 37, 69 and 155 ms) do not put the median
    # in the gap between two of them.
    step = workload.cycle
    samples = [statistics.fmean(lat[i:i + step]) for i in range(0, len(lat), step)]
    summary = _summary(check_replies(workload, replies))
    n, k = len(lat), len(samples)
    rps, p50 = n / busy, statistics.median(samples)
    p90 = statistics.quantiles(samples, n=10)[8]
    speed = CAL_REF_MS / cal_ms       # below 1 while the machine runs slow
    metrics = {
        "setup_s": (statistics.median(setups), f"median of {SETUP_SPAWNS} spawns"),
        "req_per_s_norm": (rps / speed, f"req_per_s / {speed:.4f}"),
        "latency_p50_ms_norm": (p50 * speed, f"latency_p50_ms x {speed:.4f}"),
        "latency_p90_ms_norm": (p90 * speed, f"latency_p90_ms x {speed:.4f}"),
        "peak_rss_mb": (max(r["rss_kb"] for _, r in replies) / 1024.0,
                        "worker ru_maxrss"),
    }
    per = "request" if step == 1 else f"cycle of {step} requests"
    notes = [_line("req_per_s", rps, "1/s", f"{n} requests in {busy:.2f} s"),
             _line("latency_p50_ms", p50, "ms", f"mean per {per}, n={k}"),
             _line("latency_p90_ms", p90, "ms", f"mean per {per}, n={k}"),
             _line("calibration_ms", cal_ms, "ms",
                   f"mean slice; {CAL_REF_MS:g} ms is speed 1"),
             _line("fail_frac", summary["failed"] / n, "frac",
                   f"{summary['failed']} of {n} requests failed")]
    if workload.name != "check-suite" and summary["digits"] is not None:
        notes.append(_line("agree_digits", summary["digits"], "digits",
                           f"median, n={n}"))
    notes += [f"{count} failed with: {reason}"
              for reason, count in sorted(summary["reasons"].items())]
    return metrics, summary, notes


def _line(name: str, value: float, unit: str, note: str) -> str:
    return f"{name:<32} {value:>14.6g} {unit:<14} ({note})"


def _values_only(stdout: str):
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return stdout
    for row in report.get("results", []):
        row.pop("time_ms", None)
    return report


def measure_traced(workload, seed: int, seconds: float) -> tuple:
    imports = {f: [] for f in IMPORT_FAMILIES}
    for _ in range(SETUP_SPAWNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", str(HERE / "worker.py"), str(ROOT)],
            cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"worker import failed: {proc.stderr[-2000:]}")
        for family, ms in import_breakdown(proc.stderr).items():
            imports[family].append(ms)

    requests = fixed_requests(workload, seed, seconds * TRACE_SHARE,
                              workload.trace_cost_s)
    count = len(requests)
    with Worker(trace=True) as w:
        traced, _, traced_cal = run_requests(w, requests)
    with Worker() as w:
        plain, _, plain_cal = run_requests(w, requests)
    summary = _summary(check_replies(workload, traced))
    changed = sum(_values_only(a["stdout"]) != _values_only(b["stdout"])
                  or a["code"] != b["code"] for (_, a), (_, b) in zip(traced, plain))
    summary["wrong"] += changed
    traced_ms = sum(r["ms"] for _, r in traced)
    plain_ms = sum(r["ms"] for _, r in plain)
    layer = layer_metrics([r["layers"] for _, r in traced])
    metrics = {name: (val, f"per request, n={count}") for name, val in layer.items()}
    for family in IMPORT_FAMILIES:
        metrics[f"setup.import.{family}_ms"] = (
            statistics.median(imports[family]), f"median of {SETUP_SPAWNS} spawns")
    metrics["trace.overhead_frac"] = (
        (traced_ms / traced_cal) / (plain_ms / plain_cal) - 1.0,
        f"traced {traced_ms:.1f} ms / untraced {plain_ms:.1f} ms over {count} "
        f"requests, each divided by its mean calibration slice")
    metrics["enumeration.configs"] = (layer["enumeration.configs"],
                                      f"computed as ASM(n), n={count}")
    metrics["closedform.sum_terms"] = (layer["closedform.sum_terms"],
                                       f"computed as n!, n={count}")
    notes = [_line("fail_frac", summary["failed"] / count, "frac",
                   f"{summary['failed']} of {count} traced requests failed"),
             f"replies that tracing changed: {changed} of {count}"]
    if workload.name == "sixv-crosscheck":
        notes.append("closedform.det_ms is about 0.2% of a request here: a "
                     "determinant-only change is predicted to move no "
                     "end-to-end metric")
    return metrics, summary, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (ROOT / "src" / "dwbc" / "cli.py").is_file():
        print(f"no dwbc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        fn = measure_traced if args.trace else measure
        metrics, summary, notes = fn(workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"  exercises: {workload.exercises}; bypasses: {workload.bypasses}")
    result = {}
    for m in wanted:
        value, note = metrics[m["name"]]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print("  " + _line(m["name"], value, m["unit"], note))
    for note in notes:
        print(f"  {note}")
    print(json.dumps({"correct": summary["wrong"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
