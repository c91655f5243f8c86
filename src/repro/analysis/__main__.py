"""Command-line entry point for replint (``python -m repro.analysis``)."""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import ALL_RULES, lint_paths, render_human, render_json
from .framework import apply_baseline, load_baseline, write_baseline
from .rules_wire import write_schema


def _default_paths() -> list[str]:
    # Prefer the engine/server tree when run from a repo checkout; fixture
    # and test files exercise deliberate violations and are linted only by
    # their own test suite.
    for candidate in ("src/repro", "src"):
        if os.path.isdir(candidate):
            return [candidate]
    return ["."]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="replint: AST-based invariant checks for the repro tree",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="suppress findings recorded in a baseline snapshot "
        "(rule+path+message identity, line-number free)",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="snapshot the current findings to FILE and exit 0",
    )
    parser.add_argument(
        "--write-schema",
        metavar="PROTOCOL_PY",
        default=None,
        help="regenerate protocol_schema.json next to the given protocol module",
    )
    parser.add_argument(
        "--write-lock-graph",
        action="store_true",
        help="recompute the whole-program lock-order graph and write "
        "lock_graph.json (the runtime sentinel's rank table)",
    )
    return parser


def _write_lock_graph(paths: Sequence[str]) -> int:
    from .callgraph import CallGraph
    from .flow.lockgraph import ProgramLockAnalysis, default_lock_graph_path
    from .framework import collect_files

    files = collect_files(paths, root=os.getcwd())
    analysis = ProgramLockAnalysis(files, CallGraph.build(files))
    graph = analysis.lock_graph
    cycles = graph.cycles()
    if cycles:
        for cycle in cycles:
            print(f"replint: lock-order cycle: {' -> '.join(cycle)}",
                  file=sys.stderr)
        print("replint: refusing to write a cyclic lock graph "
              "(fix the cycle or extend the exemptions)", file=sys.stderr)
        return 1
    path = default_lock_graph_path()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(graph.render_json())
    print(f"replint: wrote {path} "
          f"({len(graph.nodes)} classes, {len(graph.edges)} edges)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.name}: {rule.description}")
        return 0

    if args.write_schema is not None:
        try:
            schema_path = write_schema(args.write_schema)
        except (OSError, SyntaxError) as exc:
            print(f"replint: cannot write schema: {exc}", file=sys.stderr)
            return 2
        print(f"replint: wrote {schema_path}")
        return 0

    if args.write_lock_graph:
        return _write_lock_graph(
            list(args.paths) if args.paths else _default_paths())

    rules = ALL_RULES
    if args.rules:
        wanted = {code.strip().upper() for code in args.rules.split(",") if code.strip()}
        rules = tuple(rule for rule in ALL_RULES if rule.code in wanted)
        unknown = wanted - {rule.code for rule in rules}
        if unknown:
            print(
                f"replint: unknown rule(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2

    paths = list(args.paths) if args.paths else _default_paths()

    findings = lint_paths(paths, rules=rules)

    if args.write_baseline is not None:
        try:
            write_baseline(findings, args.write_baseline)
        except OSError as exc:
            print(f"replint: cannot write baseline: {exc}", file=sys.stderr)
            return 2
        print(f"replint: wrote {args.write_baseline} "
              f"({len(findings)} finding(s) recorded)")
        return 0

    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"replint: cannot load baseline: {exc}", file=sys.stderr)
            return 2
        findings = apply_baseline(findings, baseline)

    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_human(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
