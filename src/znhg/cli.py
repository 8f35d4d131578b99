"""Command-line surface: analyze, sweep, group, export.

Exit codes: 0 when every verifiable field agrees with its prediction,
2 when the run produced at least one finding, 1 on usage errors.

main may be called any number of times in one process.  It builds the
argument parser on its first call and reuses it after that; argparse
keeps no state between parses and looks up sys.stdout, sys.stderr and
the terminal width when it prints.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import metrics, topology, verify
from .arith import CapabilityError, factorize
from .groups import (build_hypergraphs_for_group, check_enumerable, cyclic,
                     dihedral)
from .hypergraph import build_intersection_hypergraph, check_buildable
from .verify import ALL_CHECKS, DEFAULT_HOST_TREE_LIMIT, SCHEMA

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FINDINGS = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the harness reserves 2 for
    findings, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="znhg",
                     description="Intersection/co-maximal hypergraphs of Z_n: "
                                 "exact invariants vs. closed-form predictions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full report for one n")
    p_an.add_argument("n", type=int)
    p_an.add_argument("--json", action="store_true")
    p_an.add_argument("--host-tree-limit", type=int,
                      default=DEFAULT_HOST_TREE_LIMIT)

    p_sw = sub.add_parser("sweep", help="computed-vs-predicted range sweep")
    p_sw.add_argument("lo", type=int)
    p_sw.add_argument("hi", type=int)
    p_sw.add_argument("--checks", default=",".join(ALL_CHECKS),
                      help="comma-separated subset of: " + ",".join(ALL_CHECKS))
    p_sw.add_argument("--host-tree-limit", type=int,
                      default=DEFAULT_HOST_TREE_LIMIT)
    p_sw.add_argument("--jobs", type=int, default=1)
    p_sw.add_argument("--json", action="store_true")

    p_gr = sub.add_parser("group", help="element-level hypergraphs of a group")
    p_gr.add_argument("kind", choices=("cyclic", "dihedral"))
    p_gr.add_argument("n", type=int)
    p_gr.add_argument("--json", action="store_true")

    p_ex = sub.add_parser("export", help="DOT/JSON export")
    p_ex.add_argument("n", type=int)
    p_ex.add_argument("--format", choices=("dot", "json"), required=True)
    p_ex.add_argument("--target", choices=("hypergraph", "incidence"),
                      required=True)
    p_ex.add_argument("--output", help="write here instead of stdout")
    return parser


def cmd_analyze(args) -> int:
    report = verify.analyze(args.n, args.host_tree_limit)
    if args.json:
        print(report.to_json())
    else:
        print(verify.render_report(report), end="")
    return EXIT_FINDINGS if report.findings else EXIT_OK


def cmd_sweep(args) -> int:
    checks = tuple(c for c in args.checks.split(",") if c)
    result = verify.run_sweep(args.lo, args.hi, checks,
                              args.host_tree_limit, args.jobs)
    if args.json:
        print(verify.sweep_to_json(result))
    else:
        print(verify.render_sweep(result), end="")
    return EXIT_FINDINGS if result.findings else EXIT_OK


def cmd_group(args) -> int:
    # the table has order^2 entries, so refuse before building it
    check_enumerable(args.n if args.kind == "cyclic" else 2 * args.n)
    group = cyclic(args.n) if args.kind == "cyclic" else dihedral(args.n)
    inter, comax = build_hypergraphs_for_group(group)
    same, witness = metrics.isomorphic(inter, comax)
    if same and not metrics.verify_isomorphism(inter, comax, witness):
        raise AssertionError("isomorphism witness failed verification")

    def names(subgroup_elems):
        return "{" + ",".join(group.element_names[i] for i in subgroup_elems) + "}"

    if args.json:
        doc = {
            "schema": SCHEMA,
            "kind": "group",
            "group": f"{args.kind}({args.n})",
            "order": group.order,
            "intersection": {
                "vertices": [names(v) for v in inter.vertices],
                "edge_count": len(inter.edges),
            },
            "comaximal": {
                "vertices": [names(v) for v in comax.vertices],
                "edge_count": len(comax.edges),
            },
            "isomorphic": same,
        }
        print(verify.dumps(doc))
    else:
        print(f"{args.kind}({args.n}), order {group.order}")
        print(f"intersection hypergraph: {len(inter.vertices)} vertices, "
              f"{len(inter.edges)} hyperedges")
        for e in inter.edge_label_sets():
            print("  " + " ".join(names(v) for v in e))
        print(f"co-maximal hypergraph: {len(comax.vertices)} vertices, "
              f"{len(comax.edges)} hyperedges")
        for e in comax.edge_label_sets():
            print("  " + " ".join(names(v) for v in e))
        print(f"isomorphic: {'yes' if same else 'no'}")
    return EXIT_OK


def cmd_export(args) -> int:
    if args.n < 2:
        print("znhg: error: export needs n >= 2", file=sys.stderr)
        return EXIT_USAGE
    f = factorize(args.n)
    check_buildable(f)
    h = build_intersection_hypergraph(f)
    if args.format == "dot":
        # a hypergraph's DOT form is its bipartite star expansion, so both
        # targets serialize the incidence graph
        text = topology.to_dot(h)
    elif args.target == "hypergraph":
        text = verify.json_with_label_arrays(
            {"schema": SCHEMA, "kind": "hypergraph", "n": args.n},
            h.vertices, h.edge_label_sets()) + "\n"
    else:
        names = list(map(verify.dumps, topology.incidence_names(h)))
        text = verify.json_with_label_arrays(
            {"schema": SCHEMA, "kind": "incidence", "n": args.n}, names,
            ((names[u], names[v])
             for u, v in topology.incidence_graph(h).sorted_edges()),
            ("nodes", "links")) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"znhg: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        print(text, end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "analyze": cmd_analyze,
        "sweep": cmd_sweep,
        "group": cmd_group,
        "export": cmd_export,
    }
    # a bad value (ValueError) or a request past a documented limit
    # (CapabilityError) is refused before anything is printed
    try:
        return handlers[args.command](args)
    except (CapabilityError, ValueError) as exc:
        print(f"znhg: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
