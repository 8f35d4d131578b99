"""One benchmark round, run in a fresh interpreter by run.py.

    python3 bench/child.py SRC WORKLOAD SEED TRACE [SPANS_FILE]

Imports znhg from SRC, generates the round's requests from the seed, then
sends each through ``znhg.cli.main`` in a closed loop with stdout
captured, and checks every document.  A fresh interpreter per round keeps
module-level caches (such as verify's host-tree cache) as cold as a CLI
user finds them.  With TRACE=1 the layer wrappers are installed first and
the spans are written to SPANS_FILE after the last request.

Right before each request the round times reference(), a fixed job of
pure-Python integer and dict work that does not touch znhg; run.py uses
it to take out how fast the machine ran at that moment.

Prints one JSON line: the monotonic time at which set-up ended, one
[latency_s, reference_s, sha256 of stdout, error or null] row per
request, the peak resident set in MB and, when traced, the layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import tracing
import workloads


def reference() -> float:
    """Seconds taken by a fixed job of about 2 ms on a quiet 2-core machine."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(15000):
        acc += i * i % 7
        table[i & 1023] = acc
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    src, workload, seed, trace = argv[:4]
    sys.path.insert(0, src)
    import znhg  # noqa: F401  (set-up includes importing every layer)
    from znhg import cli

    requests = workloads.generate(workload, int(seed))
    ready = time.monotonic()

    tracer = None
    if trace == "1":
        tracer = tracing.Tracer()
        tracer.install(tracing.TARGETS, "znhg")

    rows = []
    unknown = 0
    for req in requests:
        if tracer is not None:
            tracer.request = int(req.argv[1])  # n, or a sweep block's first n
        out, err = io.StringIO(), io.StringIO()
        ref = reference()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(req.argv))
        except Exception as exc:  # a request that raises is a failed request
            rows.append([time.perf_counter() - start, ref, None,
                         f"raised {exc!r}"])
            continue
        latency = time.perf_counter() - start
        text = out.getvalue()
        rows.append([latency, ref, hashlib.sha256(text.encode()).hexdigest(),
                     workloads.check(req, code, text)])
        if tracer is not None and req.expect[0] == "sweep" and rows[-1][3] is None:
            unknown += json.loads(text)["hypertree_unknown"]

    result = {"ready": ready, "rows": rows,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, unknown,
                                                 tracing.span_cost_s())
        result["missing"] = tracer.missing
        if len(argv) > 4:
            with open(argv[4], "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
