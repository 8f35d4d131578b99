"""Hash the observable output of a fixed set of znhg requests.

    python3 tools/output_identity.py SRC

Imports znhg from the directory SRC (a checkout's ``src``), runs every
request below through ``cli.main`` in this one process, and prints the
request count and one SHA-256 over (argv, exit code, stdout, stderr) of
all of them, in order.  Two trees whose outputs are byte for byte the
same print the same line, so a change meant to keep every output can be
checked against its parent:

    python3 tools/output_identity.py ../parent/src
    python3 tools/output_identity.py src

The requests are every bench request of seeds 1-2 on all four
workloads, read through bench/workloads.generate; analyze --json for
every n in 2..3000; analyze as text, sweeps as JSON and as text, at
--jobs 1 and 2; both exports of one n; two group requests; and one
request for each refusal the CLI makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def requests() -> list[tuple[str, ...]]:
    sys.path.insert(0, str(BENCH))
    import workloads

    out = [req.argv for workload in workloads.WORKLOADS for seed in (1, 2)
           for req in workloads.generate(workload, seed)]
    out += [("analyze", str(n), "--json") for n in range(2, 3001)]
    out += [("analyze", str(n)) for n in (30, 216, 840, 720720, 9699690)]
    out += [("sweep", "2", "20000", "--json", "--jobs", jobs)
            for jobs in ("1", "2")]
    out += [("sweep", "2", "5000", "--checks", "planarity", "--json"),
            ("sweep", "2", "3000"),
            ("export", "2310", "--format", "json", "--target", "incidence"),
            ("export", "2310", "--format", "dot", "--target", "incidence"),
            ("group", "dihedral", "4", "--json"),
            ("group", "cyclic", "30")]
    # the refusals: n < 2, a negative limit, a dihedral order below 3 and
    # a group order past the enumeration limit, a leftover too large to
    # prove prime, too many hyperedges, hi > 10^6, lo > hi, an unknown
    # check, no check
    out += [("analyze", "1"),
            ("analyze", "30", "--host-tree-limit", "-1"),
            ("group", "dihedral", "2"),
            ("group", "cyclic", "201"),
            ("analyze", str(53**20)),
            ("analyze", "6469693230"),
            ("sweep", "2", "1000001"),
            ("sweep", "5", "2"),
            ("sweep", "2", "10", "--checks", "zzz"),
            ("sweep", "2", "10", "--checks", ",")]
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    from znhg import cli

    digest = hashlib.sha256()
    argvs = requests()
    for args in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(args))
        digest.update(json.dumps([args, code, out.getvalue(),
                                  err.getvalue()]).encode() + b"\n")
    print(f"{len(argvs)} requests, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
