#!/usr/bin/env python
"""CI benchmark-regression gate: diff BENCH_report.json against the baseline.

``benchmarks/run_report.py --json`` writes every numeric series the
figure tables print (latencies in ms, speedup ratios) to
``BENCH_report.json``; this tool compares it against the committed
``benchmarks/baselines/BENCH_baseline.json`` and exits non-zero when any
metric regresses past the tolerance:

* ``better: lower`` metrics (latencies) regress when the new value
  exceeds ``baseline * (1 + tolerance)``;
* ``better: higher`` metrics (speedups) regress when the new value drops
  below ``baseline * (1 - tolerance)``;
* metrics present in the baseline but missing from the report fail hard
  (a silently dropped benchmark is itself a regression); metrics new in
  the report are reported but pass.

Tolerance defaults to 25% and is configurable via ``--tolerance`` or the
``BENCH_TOLERANCE`` environment variable (a fraction, e.g. ``0.25``).

Re-baselining (after an intentional perf change, on an otherwise idle
machine)::

    PYTHONPATH=src python benchmarks/run_report.py --json BENCH_report.json
    python tools/check_bench_regression.py --update-baseline

``--update-baseline`` copies the report over the baseline instead of
comparing; commit the updated baseline together with the change that
moved the numbers, and say why in the commit message.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_REPORT = REPO_ROOT / "BENCH_report.json"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "BENCH_baseline.json"
DEFAULT_TOLERANCE = 0.25

# Improvement direction by metric-name prefix, consulted when an entry
# carries no explicit ``better`` field (e.g. a baseline hand-merged from
# an older report).  First match wins; anything unmatched defaults to
# ``lower`` (latencies dominate the report).
DEFAULT_DIRECTIONS: tuple[tuple[str, str], ...] = (
    ("fig16a/", "higher"),
    ("updates/update_vs_reload", "higher"),
    ("updates/cache_retention", "higher"),
)


def direction_for(name: str, entry: dict) -> str:
    """The improvement direction for one metric entry."""
    better = entry.get("better")
    if better:
        return better
    for prefix, default in DEFAULT_DIRECTIONS:
        if name.startswith(prefix):
            return default
    return "lower"


def load_metrics(path: Path) -> dict[str, dict]:
    """Read the ``metrics`` mapping out of one report file."""
    data = json.loads(path.read_text())
    metrics = data.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError(f"{path}: no 'metrics' mapping")
    return metrics


def compare(
    baseline: dict[str, dict],
    report: dict[str, dict],
    tolerance: float,
) -> tuple[list[str], list[str]]:
    """Return ``(lines, regressions)``: a report table and the failures."""
    lines: list[str] = []
    regressions: list[str] = []
    width = max((len(name) for name in baseline), default=10)
    for name in sorted(baseline):
        if "value" not in baseline[name]:
            regressions.append(
                f"{name}: baseline entry has no 'value' key — the baseline "
                "file is malformed; regenerate it with --update-baseline"
            )
            lines.append(f"  {name.ljust(width)}  {'NO VALUE':>10}")
            continue
        base = float(baseline[name]["value"])
        better = direction_for(name, baseline[name])
        entry = report.get(name)
        if entry is None:
            regressions.append(f"{name}: present in baseline, missing from report")
            lines.append(f"  {name.ljust(width)}  {base:10.2f}  {'MISSING':>10}")
            continue
        if "value" not in entry:
            regressions.append(
                f"{name}: report entry has no 'value' key — rerun "
                "'python benchmarks/run_report.py --json'"
            )
            lines.append(f"  {name.ljust(width)}  {base:10.2f}  {'NO VALUE':>10}")
            continue
        new = float(entry["value"])
        delta = (new - base) / base if base else 0.0
        if better == "higher":
            regressed = new < base * (1.0 - tolerance)
        else:
            regressed = new > base * (1.0 + tolerance)
        status = "REGRESSED" if regressed else "ok"
        lines.append(
            f"  {name.ljust(width)}  {base:10.2f}  {new:10.2f}  "
            f"{delta:+7.1%}  {status}"
        )
        if regressed:
            regressions.append(
                f"{name}: {base:.2f} -> {new:.2f} ({delta:+.1%}, "
                f"better={better}, tolerance={tolerance:.0%})"
            )
    for name in sorted(set(report) - set(baseline)):
        value = report[name].get("value")
        shown = f"{float(value):10.2f}" if value is not None else f"{'NO VALUE':>10}"
        lines.append(f"  {name.ljust(width)}  {'NEW':>10}  {shown}")
    return lines, regressions


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", type=Path, default=DEFAULT_REPORT)
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_TOLERANCE", DEFAULT_TOLERANCE)),
        help="allowed relative drift before failing (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="copy the report over the baseline instead of comparing",
    )
    args = parser.parse_args(argv)

    if not args.report.exists():
        print(f"report {args.report} not found; run "
              "'python benchmarks/run_report.py --json' first", file=sys.stderr)
        return 2
    if args.update_baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(args.report.read_text())
        print(f"baseline updated: {args.baseline}")
        return 0
    if not args.baseline.exists():
        print(f"baseline {args.baseline} not found; create it with "
              "--update-baseline", file=sys.stderr)
        return 2

    baseline = load_metrics(args.baseline)
    report = load_metrics(args.report)
    lines, regressions = compare(baseline, report, args.tolerance)
    print(f"benchmark regression check (tolerance {args.tolerance:.0%})")
    print(f"  {'metric'.ljust(max((len(n) for n in baseline), default=10))}  "
          f"{'baseline':>10}  {'new':>10}")
    for line in lines:
        print(line)
    if regressions:
        print(f"\n{len(regressions)} regression(s):", file=sys.stderr)
        for item in regressions:
            print(f"  {item}", file=sys.stderr)
        return 1
    print(f"\nall {len(baseline)} metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
