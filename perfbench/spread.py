"""Repeat the benchmark over several seeds and report each metric's spread.

Run from the root of a parityqec checkout:

    python3 perfbench/spread.py --seeds 0-9 --trace 0 --json runs.json

Runs perfbench/run.py once per (seed, workload) for every workload of
BENCHMARK.json and its run_seconds, one process at a time, with the
workloads interleaved inside each seed so that drift on the machine hits
every workload alike. For each workload and metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median, and
compares the spread with the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += list(range(int(low), int(high or low) + 1))
    return seeds


def host_info() -> dict:
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {
        "python": platform.python_version(),
        "numpy": versions[0],
        "scipy": versions[1],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit.stdout.strip() if commit.returncode == 0 else "unknown",
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every run and the summary to this file")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    runs = []
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            command = [*spec["command"], "--workload", workload, "--seed", str(seed)]
            command += ["--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, **result})
            print(f"seed {seed} {workload}: correct={result['correct']} attempted={result['attempted']}", flush=True)

    summary = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        summary[workload] = {}
        print(f"\n{workload} ({len(mine)} runs)")
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + ("  SPREAD > bound/3" if spread > bound / 3 else "")
            print(f"  {name:40s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:6.3f}{flag}")

    if args.json:
        payload = {"host": host_info(), "seeds": args.seeds, "trace": args.trace, "summary": summary, "runs": runs}
        Path(args.json).write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
