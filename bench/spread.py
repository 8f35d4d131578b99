"""Run the benchmark over ten seeds and record each metric's spread.

    python3 bench/spread.py OUT_FILE

Run from the repository root.  For every workload, runs ``bench/run.py``
once per seed, untraced, for BENCHMARK.json's run_seconds, and prints each
end-to-end metric's median, quartiles and spread, the interquartile
distance as a share of the median, next to the metric's bound.  Then
makes one traced run per workload and writes everything, with the machine
it ran on, to OUT_FILE as JSON; bench/baseline.json is such a file.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {"machine": {"nproc": os.cpu_count(),
                          "python": platform.python_version(),
                          "networkx": version("networkx")},
              "run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in workloads.WORKLOADS:
        results = [run(workload, seed, seconds, 0) for seed in SEEDS]
        entry = {"failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "end_to_end": {}}
        print(f"{workload}: {entry['failed']} failed of {entry['attempted']}")
        for metric in spec["end_to_end"]:
            s = stats([r["metrics"][metric["name"]]["value"] for r in results])
            entry["end_to_end"][metric["name"]] = s
            print(f"  {metric['name']:<15} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}  bound {metric['bound']}", flush=True)
        traced = run(workload, SEEDS[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
    Path(argv[0]).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
