"""``python -m repro.analysis`` — lint the tree, exit non-zero on findings."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import RULES, LockGraphChecker, all_checkers, run_analysis


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis for the XKeyword reproduction "
        "(import layering, lock graph, general correctness).",
    )
    parser.add_argument(
        "root",
        nargs="?",
        default=None,
        type=Path,
        help="package directory to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    parser.add_argument(
        "--lock-graph",
        action="store_true",
        help="print the interprocedural lock-acquisition graph after linting",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in sorted(RULES.items()):
            print(f"{rule}  {description}")
        return 0

    root = args.root
    if root is None:
        root = Path(__file__).resolve().parent.parent
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2

    checkers = all_checkers()
    findings = run_analysis(root, checkers)
    if args.lock_graph:
        graph_checker = next(c for c in checkers if isinstance(c, LockGraphChecker))
        print(graph_checker.graph.render())
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"\n{len(findings)} finding(s).", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:  # e.g. `... --list-rules | head`
        raise SystemExit(0)
