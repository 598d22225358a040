"""The mzvff benchmark: real CLI requests, timed end to end and by layer.

Run from the repository root:

    python3 perfbench/run.py --workload closed-form-ladder --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): closed-form-ladder, series-box, verify-grid.

A run makes timed passes until the passes have taken --seconds (at least
three), with set-up probes spread between them.  Every pass runs in a fresh
worker process (worker.py) that sends its requests through ``mzvff.cli.main(argv)``
one at a time, as a CLI or library user who waits for each answer would.
After each pass the outputs are checked against the brute-force oracles
(checks.py), outside the timed region.

Times are reported at reference speed.  The speed of a small shared VM
drifts by tens of percent within minutes, which would swamp any regression
bound.  So every timing is scaled by REFERENCE_S / r, where r is the median
time of a fixed piece of pure-Python arithmetic (worker.reference) measured
around it in the same run: for a request, the REFERENCE_WINDOW samples the
worker took nearest its start; for a set-up probe, REFERENCE_WINDOW samples
the runner took just before the spawn.  A value therefore reads as the time
on a machine where the reference takes REFERENCE_S.  The raw times are
printed beside the scaled ones.

--trace 0 reports the end-to-end metrics:

    setup_s         spawn of a worker until it is ready for its first request
                    (interpreter start, import mzvff, job loading); median of
                    SETUP_SAMPLES spawns spread over the run
    wall_s          time of one timed pass (the sum of its request
                    latencies); median over passes
    latency_p50_ms  median request latency, over the requests of all passes
    latency_p90_ms  p90 request latency, over the requests of all passes
                    (a pass has >= 100 requests, so at least ten lie beyond
                    it in every pass)
    peak_rss_mb     peak resident set of the worker over its pass; median

--trace 1 makes TRACE_PAIRS pairs of an untraced and a traced pass of the same
request list, in alternating order, and reports the per-layer metrics of
tracing.py as means per traced pass (self_ms unscaled), plus
trace.overhead_share, the median over pairs of traced / untraced wall_s - 1.
Counts repeat exactly for a given seed.  The metric names and units must
match BENCHMARK.json.

Every metric is printed by name with its unit and sample count; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  A request fails when it raises, exits with an unexpected code,
or prints an output the oracle disagrees with.  The verify q-polynomial
requests at depth 4 in closed-form-ladder fail at the seed (a known defect):
they count in `failed` but do not make `correct` false.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import reference  # noqa: E402

# About what worker.reference takes on one core of a 2-vCPU Xeon VM, so that
# scaled times read close to raw ones there.
REFERENCE_S = 0.003
REFERENCE_WINDOW = 6
SETUP_SAMPLES = 40
MIN_PASSES = 3
TRACE_PAIRS = 3
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

SPAN_METRICS = {
    "exactalg.poly_mul": ("calls", "self_ms"),
    "exactalg.poly_divide_exact": ("calls", "self_ms"),
    "exactalg.poly_init": ("calls",),
    "exactalg.rat_add": ("calls", "self_ms"),
    "exactalg.rat_series": ("calls", "self_ms"),
    "exactalg.rat_equal": ("calls", "self_ms"),
    "exactalg.rat_reduce": ("calls", "self_ms"),
    "exactalg.rat_substitute": ("calls", "self_ms"),
    "exactalg.render": ("calls", "self_ms"),
    "rational_field.closed_form_genus0": ("calls", "self_ms"),
    "rational_field.q_times_z_is_polynomial": ("calls", "self_ms"),
    "polyring.euler_truncation": ("calls", "self_ms"),
    "higher_genus.closed_form_genus_d2": ("calls", "self_ms"),
    "higher_genus.pq_polynomials": ("calls", "self_ms"),
    "oracle.truncated_series_b": ("calls", "self_ms"),
    "oracle.truncated_series_enum": ("calls", "self_ms"),
    "fieldspec.effective_count": ("calls",),
}
COUNT_METRICS = (
    "exactalg.poly_mul.term_pairs", "exactalg.poly_mul.out_terms",
    "exactalg.poly_divide_exact.dividend_terms", "exactalg.poly_init.terms_in",
    "exactalg.rat_add.out_terms", "exactalg.rat_series.box_atom_cells",
    "exactalg.rat_series.out_coeffs", "exactalg.rat_reduce.atoms_cancelled",
    "oracle.truncated_series_b.tuples", "oracle.truncated_series_enum.tuples",
    "verification.checks_run", "verification.checks_failed",
)
UNITS = {"calls": "count", "self_ms": "ms"}
# Request parameters put on each root span: the depth and genus ladders.
ROOT_ATTRS = ("kind", "ring", "q", "depth", "trunc", "genus")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    units = {}
    for span, fields in SPAN_METRICS.items():
        for field in fields:
            units[f"{span}.{field}"] = UNITS[field]
    units.update({name: "count" for name in COUNT_METRICS})
    units["exactalg.poly_divide_exact.exact_share"] = "ratio"
    units["oracle.monic_irreducibles.hit_share"] = "ratio"
    units["cli.stdout_bytes"] = "bytes"
    for layer in tracing.LAYERS:
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.self_share"] = "ratio"
    units["trace.overhead_share"] = "ratio"
    units["requests.failed_share"] = "ratio"
    return units


class BenchError(RuntimeError):
    pass


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def speed_scale(samples: list[float]) -> float:
    """The factor that takes a time measured beside these reference samples
    to reference speed."""
    return REFERENCE_S / statistics.median(samples)


def nearest_references(references: list[list[float]], at: float) -> list[float]:
    """The REFERENCE_WINDOW [time, seconds] samples nearest to time `at`,
    half of them taken before it where the list allows."""
    index = bisect.bisect(references, at, key=lambda sample: sample[0])
    low = max(0, min(index - REFERENCE_WINDOW // 2, len(references) - REFERENCE_WINDOW))
    return [seconds for _, seconds in references[low:low + REFERENCE_WINDOW]]


class Bench:
    def __init__(self, args, root: str, work: str):
        import checks  # imports mzvff from ./src

        self.args = args
        self.root = root
        self.work = work
        self.checker = checks.Checker()
        self.checks = checks
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "MZVFF_BUDGET"}
        self.env["PYTHONHASHSEED"] = "0"
        self.setup_samples: list[float] = []
        self.verdicts: list[str] = []
        self.failures: list[str] = []
        self._passes: dict[int, list[dict]] = {}

    # -- workers

    def requests(self, index: int) -> list[dict]:
        if index not in self._passes:
            self._passes[index] = workloads.pass_requests(
                self.args.workload, self.args.seed, index)
        return self._passes[index]

    def write_job(self, index: int, trace: bool, probe: bool) -> str:
        """Write the spec files and job of a pass; the worker sees only argv."""
        def materialize(argv, spec_doc, name):
            if workloads.SPEC not in argv:
                return list(argv)
            path = os.path.join(self.work, name)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(spec_doc, handle)
            rel = os.path.relpath(path, self.root)
            return [rel if a == workloads.SPEC else a for a in argv]

        requests = self.requests(index)
        job = {
            "trace": trace,
            "probe": probe,
            "warmup": [materialize(argv, workloads.WARMUP_SPEC, "warmup.json")
                       for argv in workloads.WARMUP],
            "requests": [
                {"argv": materialize(r["argv"], r["spec"] and r["spec"]["doc"], f"p{index}-{i}.json"),
                 "attrs": {key: r[key] for key in ROOT_ATTRS}}
                for i, r in enumerate(requests)
            ],
        }
        path = os.path.join(self.work, f"job-{index}-{int(trace)}-{int(probe)}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        for req, sent in zip(requests, job["requests"]):
            req["sent_argv"] = sent["argv"]
        return path

    def spawn(self, job: str) -> tuple[float, dict | None]:
        """Run one worker; returns its set-up time at reference speed and its result."""
        result_path = job.replace("job-", "result-")
        error_path = job.replace("job-", "stderr-")
        scale = speed_scale([reference() for _ in range(REFERENCE_WINDOW)])
        with open(error_path, "w", encoding="utf-8") as errors:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py"), job, result_path],
                cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=errors, text=True,
            )
            try:
                ready = proc.stdout.readline()
                setup = (time.perf_counter() - start) * scale
                proc.stdout.close()
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError("a worker ran past the time limit") from None
        if ready != "ready\n" or proc.returncode != 0:
            with open(error_path, encoding="utf-8") as handle:
                raise BenchError(f"worker failed (exit {proc.returncode}):\n{handle.read()[-3000:]}")
        if not os.path.exists(result_path):
            return setup, None
        with open(result_path, encoding="utf-8") as handle:
            return setup, json.load(handle)

    def probe_setup(self, job: str, passes_left: int) -> None:
        """Spawn this slot's share of the set-up probes still missing.

        Each pass left adds one sample of its own; the rest of SETUP_SAMPLES
        is spread evenly over the slots before those passes, so that the
        median covers the whole run rather than one stretch of it.
        """
        missing = SETUP_SAMPLES - len(self.setup_samples) - passes_left
        for _ in range(math.ceil(max(0, missing) / max(1, passes_left))):
            self.setup_samples.append(self.spawn(job)[0])

    def passes_left(self, passes: list[dict]) -> int:
        """An estimate of the untraced passes still to come."""
        if not passes:
            return MIN_PASSES
        walls = sum(p["raw_wall_s"] for p in passes)
        left = math.ceil((self.args.seconds - walls) / (walls / len(passes)))
        return max(1, MIN_PASSES - len(passes), left)

    def run_pass(self, index: int, trace: bool) -> dict:
        setup, result = self.spawn(self.write_job(index, trace=trace, probe=False))
        if not trace:
            self.setup_samples.append(setup)
        latencies, raw = [], []
        stdout_bytes = 0
        for req, (code, ms, out, err, at) in zip(self.requests(index), result["outcomes"]):
            verdict = self.checker.judge({**req, "argv": req["sent_argv"]}, code, out)
            self.verdicts.append(verdict)
            if verdict not in (self.checks.OK, self.checks.EXPECTED_FAIL):
                self.failures.append(f"{' '.join(req['sent_argv'])}: {verdict} {err.strip()[-300:]}")
            raw.append(ms)
            latencies.append(ms * speed_scale(nearest_references(result["references"], at)))
            stdout_bytes += len(out.encode("utf-8"))
        return {
            "wall_s": sum(latencies) / 1000.0,
            "raw_wall_s": sum(raw) / 1000.0,
            "latencies": latencies,
            "raw_latencies": raw,
            "peak_rss_mb": result["peak_rss_mb"],
            "stdout_bytes": stdout_bytes,
            "trace": result["trace"],
            "index": index,
        }

    # -- runs

    def run(self) -> dict:
        if not self.args.trace:
            probe = self.write_job(0, trace=False, probe=True)
            self.spawn(probe)  # unmeasured: the first spawn may compile bytecode
            passes = []
            while len(passes) < MIN_PASSES or sum(p["raw_wall_s"] for p in passes) < self.args.seconds:
                self.probe_setup(probe, self.passes_left(passes))
                passes.append(self.run_pass(len(passes), trace=False))
            self.probe_setup(probe, 0)
            metrics = self.end_to_end(passes)
        else:
            # A fixed number of pairs, so the per-pass means of the counts
            # repeat exactly; the order alternates so drift cancels.
            untraced, traced = [], []
            for index in range(TRACE_PAIRS):
                for trace in (index % 2 == 1, index % 2 == 0):
                    (traced if trace else untraced).append(self.run_pass(index, trace=trace))
            metrics = self.per_layer(untraced, traced)
        for line in self.failures:
            print(f"failed: {line}", file=sys.stderr)
        failed = sum(v != self.checks.OK for v in self.verdicts)
        return {
            "correct": not self.failures,
            "attempted": len(self.verdicts),
            "failed": failed,
            "metrics": metrics,
        }

    def end_to_end(self, passes: list[dict]) -> dict:
        metrics = {"setup_s": self.metric(statistics.median(self.setup_samples), "s",
                                          f"median of {len(self.setup_samples)} worker spawns")}
        for name in ("wall_s", "peak_rss_mb"):
            samples = [p[name] for p in passes]
            note = f"median of {len(passes)} passes: " + " ".join(f"{v:.4g}" for v in samples)
            if name == "wall_s":
                note += "; raw " + " ".join(f"{p['raw_wall_s']:.4g}" for p in passes)
            metrics[name] = self.metric(statistics.median(samples), END_TO_END[name], note)
        latencies = [ms for p in passes for ms in p["latencies"]]
        raw = [ms for p in passes for ms in p["raw_latencies"]]
        for name, share in (("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)):
            note = (f"over {len(latencies)} requests of {len(passes)} passes; "
                    f"raw {percentile(raw, share):.4g}")
            metrics[name] = self.metric(percentile(latencies, share), "ms", note)
        return {name: metrics[name] for name in END_TO_END}

    def per_layer(self, untraced: list[dict], traced: list[dict]) -> dict:
        n = len(traced)
        calls, self_ms, counts = {}, {}, {}
        hits = misses = 0
        for p in traced:
            summary = p["trace"]
            for key, value in summary["calls"].items():
                calls[key] = calls.get(key, 0) + value / n
            for key, value in summary["self_ms"].items():
                self_ms[key] = self_ms.get(key, 0.0) + value / n
            for key, value in summary["counts"].items():
                counts[key] = counts.get(key, 0) + value / n
            hits += summary["irreducible_hits"]
            misses += summary["irreducible_misses"]
        layer_ms = {layer: sum(v for k, v in self_ms.items() if k.startswith(layer + "."))
                    for layer in tracing.LAYERS}
        total_ms = sum(layer_ms.values())
        values = {}
        for span, fields in SPAN_METRICS.items():
            for field in fields:
                values[f"{span}.{field}"] = (calls if field == "calls" else self_ms).get(span, 0)
        for name in COUNT_METRICS:
            values[name] = counts.get(name, 0)
        divides = calls.get("exactalg.poly_divide_exact", 0)
        values["exactalg.poly_divide_exact.exact_share"] = (
            counts.get("exactalg.poly_divide_exact.exact", 0) / divides if divides else 0.0)
        values["oracle.monic_irreducibles.hit_share"] = hits / (hits + misses) if hits + misses else 0.0
        values["cli.stdout_bytes"] = sum(p["stdout_bytes"] for p in traced) / n
        for layer in tracing.LAYERS:
            values[f"{layer}.self_ms"] = layer_ms[layer]
            values[f"{layer}.self_share"] = layer_ms[layer] / total_ms if total_ms else 0.0
        values["trace.overhead_share"] = statistics.median(
            t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced)) - 1.0
        values["requests.failed_share"] = (
            sum(v != self.checks.OK for v in self.verdicts) / len(self.verdicts))
        notes = {
            "trace.overhead_share": f"median of traced / untraced wall over {n} pairs",
            "requests.failed_share": f"over all {len(self.verdicts)} requests",
        }
        metrics = {name: self.metric(values[name], unit,
                                     notes.get(name, f"mean of {n} traced passes"))
                   for name, unit in per_layer_units().items()}
        self.report_ladder(traced)
        return metrics

    def report_ladder(self, traced: list[dict]) -> None:
        """Root-span times by request shape: the depth and genus ladders."""
        groups: dict[tuple, list[float]] = {}
        for p in traced:
            for root in p["trace"]["roots"]:
                key = (root["kind"], root["ring"] or "-", root["depth"] or 0, root["genus"] or 0)
                groups.setdefault(key, []).append(root["ms"])
        for (kind, ring, depth, genus), times in sorted(groups.items()):
            print(f"ladder {kind} ring={ring} depth={depth} genus={genus}: "
                  f"median {statistics.median(times):.3f} ms (n={len(times)} requests)")

    @staticmethod
    def metric(value, unit: str, note: str) -> dict:
        return {"value": float(value), "unit": unit, "note": note}


def check_declared(root: str) -> None:
    """Refuse to run unless BENCHMARK.json declares exactly these metrics."""
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
            bench = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    for key, reported in (("end_to_end", END_TO_END), ("per_layer", per_layer_units())):
        declared = {m["name"]: m["unit"] for m in bench.get(key, [])}
        if declared != reported:
            diff = sorted(set(declared.items()) ^ set(reported.items()))
            raise BenchError(f"BENCHMARK.json {key} differs from the metrics reported: {diff}")


def git_sha(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mzvff", "cli.py")):
        print("error: src/mzvff not found; run from the repository root", file=sys.stderr)
        return 2
    try:
        check_declared(root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    work = os.path.join(HERE, f".work-{os.getpid()}")
    os.makedirs(work)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()} "
          f"git={git_sha(root)}")
    try:
        result = Bench(args, root, work).run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, metric in result["metrics"].items():
        note = metric.pop("note")
        print(f"{name} = {metric['value']:.6g} {metric['unit']} ({note})")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
