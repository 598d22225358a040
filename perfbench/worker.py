"""Benchmark worker: runs one pass of CLI requests in this process.

Usage: python worker.py JOB.json RESULT.json, from the repository root.

The worker imports mzvff from ./src, loads its job, optionally installs the
tracer, and prints "ready": everything up to that line is set-up.  It then
runs the warm-up requests, and the timed pass in a closed loop with one
client: each request goes through ``mzvff.cli.main(argv)`` with stdout and
stderr captured, and the next starts when it returns (after a garbage
collection outside the timing).  Results go to
RESULT.json; the outputs are checked by the parent, outside the timed region.

The speed of a shared VM drifts by tens of percent over seconds to minutes.
So the worker also times a fixed piece of pure-Python arithmetic,
``reference()``, before the pass, between requests every REFERENCE_EVERY_S
and after the pass, outside every request's timing.  The parent scales each
request's latency by the reference times taken around it.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import sys
import time
import traceback
from fractions import Fraction

REFERENCE_EDGE = 8  # reference samples before and after the pass
REFERENCE_EVERY_S = 0.1


def run_request(cli, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed request, not a failed benchmark
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB.

    Read from VmHWM: on Linux, ru_maxrss carries the forking parent's peak
    over into the child across exec, so it would report the runner's memory.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def reference() -> float:
    """Seconds taken by a fixed piece of exact arithmetic, with gc off.

    It multiplies two bivariate polynomials held as dicts from exponent
    tuples to Fractions, the shape of work the mzvff kernel does most, and
    shares no code or state with the package.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        p = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
        q = {(i, j): Fraction(2 * i + 1, i + j + 3) for i in range(5) for j in range(5)}
        out: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in p.items():
            for (a2, b2), c2 in q.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + c1 * c2
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def main() -> int:
    job_path, result_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from mzvff import cli

    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    if job["probe"]:
        return 0

    for argv in job["warmup"]:
        run_request(cli, argv)
    clock = time.perf_counter
    origin = clock()
    references = []  # [seconds since origin, reference seconds]

    def sample_reference() -> None:
        references.append([clock() - origin, reference()])

    for _ in range(REFERENCE_EDGE):
        sample_reference()
    if tracer:
        tracer.start()
    outcomes = []
    for index, req in enumerate(job["requests"]):
        if clock() - origin - references[-1][0] > REFERENCE_EVERY_S:
            sample_reference()
        # Each request starts with the garbage of the ones before it
        # collected, as in a fresh CLI process, so that no request pays for
        # collecting another's garbage.
        gc.collect()
        if tracer:
            tracer.begin_request(index, req["attrs"])
        start = clock()
        code, out, err = run_request(cli, req["argv"])
        outcomes.append([code, (clock() - start) * 1000.0, out, err[-2000:], start - origin])
    if tracer:
        tracer.stop()
    for _ in range(REFERENCE_EDGE):
        sample_reference()
    result = {
        "references": references,
        "outcomes": outcomes,
        "peak_rss_mb": peak_rss_mb(),
        "trace": tracer.summary() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
