"""znhg benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root; znhg is imported from ``src/``.  Workloads and
their inputs are defined in workloads.py.  A round is one fresh interpreter
(child.py) that sends the workload's requests through ``znhg.cli.main`` in a
closed loop with one client and ``--jobs 1``, and checks every document.
Rounds repeat while the next one still fits in --seconds, and at least
MIN_ROUNDS run.

End-to-end metrics (--trace 0):

Timings are reported at a fixed machine speed.  On a shared machine the
same deterministic request can run 25% slower for minutes at a time, so
raw times from two runs a few minutes apart are not comparable.  Right
before each request the round times a fixed reference job (child.py);
the request's cost is the median over rounds of its latency divided by
that job's time, and is reported in seconds as that ratio times
REFERENCE_S, the job's time on a quiet 2-core machine.  The reference job
does not touch znhg, so a change to znhg moves only the latencies.

* n_per_s: values of n verified per second (analyze: requests per second),
  the n in one round over the sum of those request times.
* latency_p50_s, latency_tail_s: over those request times; the tail is the
  highest percentile with at least TAIL_BEYOND requests beyond it, and the
  summary names it.
* setup_s: interpreter start, ``import znhg`` (networkx included) and
  input generation in a fresh process, the median over rounds.  It is
  scaled the same way, by the reference job timed in this process right
  before the round starts (the median of SETUP_REFERENCE_RUNS runs).
* peak_rss_mb: the round process's peak resident set; the median over rounds.

Every document is checked against independently derived expectations and
against the first round's bytes.  ``failed``/``attempted`` in the result
count the requests that raised, exited non-zero or failed a check; the
summary prints their share as failed_frac.

With --trace 1 the untraced rounds run as above, then one more round runs
with a span wrapper on every layer boundary (tracing.py).  Its documents
must equal the untraced ones byte for byte.  It reports the layer metrics
and trace.overhead_s (see tracing.py); spans are written to bench/out/.

The last line of stdout is the result JSON; a readable summary goes to
stderr.  Exits 2 without a result when ``src/znhg`` is missing or a round
process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from child import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# the reference job's time that reported seconds are scaled to
REFERENCE_S = 0.002
SETUP_REFERENCE_RUNS = 9
MIN_ROUNDS = 4
MAX_ROUNDS = 30
ROUND_TIMEOUT_S = 60
TAIL_BEYOND = 10

E2E_UNITS = {"n_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}


class RoundFailed(RuntimeError):
    pass


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic that leaves at
    least ``beyond`` samples above it."""
    ordered = sorted(values)
    if len(ordered) <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {len(ordered)}")
    rank = len(ordered) - beyond
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def run_round(workload: str, seed: int, trace: bool, spans_path=None) -> dict:
    """One round in a fresh interpreter; adds the scaled setup_s and the
    raw wall_s."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(SRC), workload,
           str(seed), "1" if trace else "0"]
    if spans_path is not None:
        cmd.append(str(spans_path))
    env = dict(os.environ, PYTHONHASHSEED="0")
    ref = statistics.median(reference() for _ in range(SETUP_REFERENCE_RUNS))
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round exceeded {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RoundFailed(f"round process exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = REFERENCE_S * (result["ready"] - started) / ref
    result["wall_s"] = time.monotonic() - started
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    requests = workloads.generate(workload, seed)
    rounds: list[dict] = []
    begin = time.monotonic()
    while len(rounds) < MIN_ROUNDS or (
            len(rounds) < MAX_ROUNDS
            and time.monotonic() - begin
            + statistics.median(r["wall_s"] for r in rounds) <= seconds):
        rounds.append(run_round(workload, seed, trace=False))
    traced = None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        traced = run_round(workload, seed, trace=True,
                           spans_path=OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    return summarize(requests, rounds, traced)


def summarize(requests, rounds: list[dict], traced: dict | None) -> dict:
    first = [row[2] for row in rounds[0]["rows"]]
    attempted = failed = 0
    errors = []
    for rnd in rounds + ([traced] if traced else []):
        for req, (_, _, digest, error), want in zip(requests, rnd["rows"], first):
            attempted += 1
            if error is None and digest != want:
                error = "document differs from the first round's"
            if error is not None:
                failed += 1
                errors.append(f"{' '.join(req.argv[:3])}: {error}")

    latencies = [REFERENCE_S * statistics.median(r["rows"][i][0] / r["rows"][i][1]
                                                 for r in rounds)
                 for i in range(len(requests))]
    tail_s, tail_pct = tail(latencies)
    e2e = {
        "n_per_s": sum(req.n_count for req in requests) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    out = {"rounds": len(rounds), "requests": len(requests),
           "tail_percentile": tail_pct, "attempted": attempted,
           "failed": failed, "errors": errors, "e2e": e2e}
    if traced is not None:
        out["layers"] = traced["layers"]
        out["missing"] = traced["missing"]
    return out


def result_line(summary: dict, trace: bool) -> dict:
    if trace:
        units, values = tracing.metric_units(), summary["layers"]
    else:
        units, values = E2E_UNITS, summary["e2e"]
    return {"correct": summary["failed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def report(workload: str, seed: int, summary: dict) -> None:
    e2e = summary["e2e"]
    lines = [f"{workload} seed={seed}: {summary['rounds']} rounds of "
             f"{summary['requests']} requests",
             f"  n_per_s        {e2e['n_per_s']:.4f} 1/s",
             f"  latency_p50_s  {e2e['latency_p50_s']:.6f} s",
             f"  latency_tail_s {e2e['latency_tail_s']:.6f} s "
             f"(p{summary['tail_percentile']:.1f} of {summary['requests']} "
             f"requests, {TAIL_BEYOND} beyond)",
             f"  setup_s        {e2e['setup_s']:.6f} s",
             f"  peak_rss_mb    {e2e['peak_rss_mb']:.3f} MB",
             f"  failed_frac    {summary['failed'] / summary['attempted']:.6f} "
             f"({summary['failed']} of {summary['attempted']})"]
    if "layers" in summary:
        if summary["missing"]:
            lines.append("  missing layer targets: " + ", ".join(summary["missing"]))
        for name, value in summary["layers"].items():
            lines.append(f"  {name} {value}")
    lines += [f"  FAILED {e}" for e in summary["errors"][:10]]
    print("\n".join(lines), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "znhg" / "__init__.py").is_file():
        print(f"error: no znhg sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            summary = measure(name, args.seed, args.seconds, bool(args.trace))
        except RoundFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        report(name, args.seed, summary)
        line = result_line(summary, bool(args.trace))
        if args.workload == "all":
            line = {"workload": name, **line}
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
