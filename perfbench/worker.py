"""Benchmark worker: imports `dwbc.cli` from a checkout's `src/` and serves
`dwbc.cli.main(argv)` calls over stdin/stdout, one JSON line each way.

    python3 perfbench/worker.py ROOT [--trace]

The worker prints `{"ready": true}` once `import dwbc.cli` has returned.
Each request line is `{"argv": [...]}`; the reply carries the exit code,
the captured stdout and stderr, the wall time of `cli.main` in ms, the
worker's peak RSS and, with `--trace`, the request's layer record.  A
`{"calibrate": true}` line runs a fixed slice of pure-Python work that
does not touch dwbc and replies with its wall time, so the client can
tell how fast the machine is running at that moment.  End of input ends
the worker.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

CAL_STEPS = 8000


def _cal_step(acc: complex, k: int, table: dict) -> complex:
    table[k & 63] = (acc, k)
    return acc * (0.999 + 0.001j) + table.get((k * 7) & 63, (0j, 0))[0] * 1e-3 + k


def calibrate() -> float:
    """Wall time in ms of CAL_STEPS steps of complex arithmetic, calls and
    dict and tuple traffic: the kind of work dwbc's hot loops do.

    It calls no libm function: after numpy's `tensordot` (the transfer
    route), libm's complex `exp` runs several times slower in the same
    process on some x86 machines, and that belongs to the program's cost,
    not to the machine's speed.
    """
    table = {}
    acc = 0j
    t0 = time.perf_counter()
    for k in range(CAL_STEPS):
        acc = _cal_step(acc, k, table)
    return (time.perf_counter() - t0) * 1000.0


def main() -> int:
    root = os.path.abspath(sys.argv[1])
    trace = "--trace" in sys.argv[2:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import dwbc.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"dwbc was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    out = sys.stdout
    out.write('{"ready": true}\n')
    out.flush()
    for line in sys.stdin:
        message = json.loads(line)
        if message.get("calibrate"):
            out.write(json.dumps({"cal_ms": calibrate()}) + "\n")
            out.flush()
            continue
        argv = message["argv"]
        if tracer is not None:
            tracer.reset()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed request, not a dead worker
                code = f"raised {type(exc).__name__}: {exc}"
            ms = (time.perf_counter() - t0) * 1000.0
        reply = {
            "code": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(), "ms": ms,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if tracer is not None:
            reply["layers"] = tracer.snapshot()
        out.write(json.dumps(reply) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
