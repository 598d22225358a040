"""Run every workload over several seeds and record how steady each metric is.

Run from the repository root:

    python3 perfbench/record.py --seeds 10 --first-seed 1

For each workload and end-to-end metric this prints the median over seeds,
the quartile spread (Q3 - Q1) / median from statistics.quantiles(n=4), the
regression bound from BENCHMARK.json and the sample count.  It then makes two
traced runs per workload with the first seed and reports whether every
per-layer count repeats exactly.  Every result, with the Python version, git
SHA and nproc of the machine, goes to perfbench/recorded_runs.json.
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

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import git_sha  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "elapsed_s": time.monotonic() - start, "result": json.loads(lines[-1])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    record = {
        "python": platform.python_version(),
        "git_sha": git_sha(os.getcwd()),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "run_seconds": seconds,
        "summary": [],
        "runs": [],
    }
    runs, summary = record["runs"], record["summary"]

    def run_and_save(workload: str, seed: int, trace: int) -> dict:
        result = run_once(workload, seed, seconds, trace)
        runs.append(result)
        values = " ".join(f"{name}={m['value']:.5g}" for name, m in result["result"]["metrics"].items()
                          if name in bounds)
        print(f"{workload:20} seed {seed} trace {trace} {result['elapsed_s']:.1f}s {values}", flush=True)
        with open(os.path.join(HERE, "recorded_runs.json"), "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return result

    for workload in (w["name"] for w in bench["workloads"]):
        results = [run_and_save(workload, seed, 0) for seed in seeds]
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            row = {"workload": workload, "metric": name, "median": statistics.median(values),
                   "unit": results[0]["result"]["metrics"][name]["unit"], "spread": spread,
                   "bound": bound, "samples": len(values)}
            summary.append(row)
            print(f"{workload:20} {name:16} median {row['median']:.6g} {row['unit']:4} "
                  f"spread {spread:.4f} bound {bound} (n={len(values)} seeds)", flush=True)
        failed = {r["result"]["failed"] for r in results}
        correct = all(r["result"]["correct"] for r in results)
        print(f"{workload:20} correct={correct} failed per run={sorted(failed)}", flush=True)

        traced = [run_and_save(workload, args.first_seed, 1) for _ in range(2)]
        first, second = (t["result"]["metrics"] for t in traced)
        differing = [name for name, m in first.items()
                     if m["unit"] == "count" and m["value"] != second[name]["value"]]
        overheads = [round(m["trace.overhead_share"]["value"], 4) for m in (first, second)]
        print(f"{workload:20} traced counts repeat: {not differing} {differing}; "
              f"trace.overhead_share {overheads}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
