"""Compare two sets of benchmark summaries: ``compare.py BASE NEW``.

``BASE`` and ``NEW`` are each a summary written by ``run.py --out``, or
a directory of them (several runs of one commit).  One row per workload
and end-to-end metric of ``BENCHMARK.json``: each side's median, the
ratio new / base, and a verdict against the metric's bound —

``ok``          new is not worse than base by more than the bound;
``worse``       it is;
``unresolved``  a side has no value (a percentile without the samples),
                or base's own runs spread (quartile distance over
                median) wider than the bound, so the bound cannot
                separate a change from noise.

``error_rate`` is held to an absolute bound.  Exit status 1 on any
``worse``, 2 on unusable input (``--quick`` summaries are refused).
This is the A/A agreement check of the benchmark and the A/B tool of
later changes.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
ERROR_RATE = {"name": "error_rate", "better": "lower", "absolute": 0.005}


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise ValueError(f"{path}: no summaries")
    runs = [json.loads(file.read_text()) for file in files]
    for file, run in zip(files, runs):
        if run.get("quick"):
            raise ValueError(f"{file}: a --quick summary is a smoke test, not a measurement")
    return runs


def values(runs: list[dict], workload: str, name: str) -> list[float]:
    found = []
    for run in runs:
        entry = run["workloads"].get(workload, {}).get("end_to_end", {}).get(name)
        if entry is not None and entry["value"] is not None:
            found.append(entry["value"])
    return found


def spread(sample: list[float]) -> float:
    """Quartile distance over the median; 0 for fewer than two runs."""
    if len(sample) < 2:
        return 0.0
    quartiles = statistics.quantiles(sample, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(sample)


def verdict(base: list[float], new: list[float], declared: dict) -> str:
    if not base or not new:
        return "unresolved"
    base_median, new_median = statistics.median(base), statistics.median(new)
    loss = new_median - base_median
    if declared["better"] == "higher":
        loss = -loss
    if "absolute" in declared:
        return "worse" if loss > declared["absolute"] else "ok"
    if spread(base) > declared["bound"]:
        return "unresolved"
    return "worse" if loss > declared["bound"] * base_median else "ok"


def compare(base_runs: list[dict], new_runs: list[dict], declared: list[dict]) -> list[dict]:
    rows = []
    for workload in base_runs[0]["workloads"]:
        for metric in [*declared, ERROR_RATE]:
            base = values(base_runs, workload, metric["name"])
            new = values(new_runs, workload, metric["name"])
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "base": statistics.median(base) if base else None,
                "new": statistics.median(new) if new else None,
                "verdict": verdict(base, new, metric),
            })
    return rows


def render(rows: list[dict], base_count: int, new_count: int) -> str:
    def number(value: float | None) -> str:
        return "null" if value is None else f"{value:.4f}"

    lines = [
        f"base: median of {base_count} run(s)   new: median of {new_count} run(s)",
        f"{'workload':10} {'metric':22} {'base':>12} {'new':>12} {'new/base':>9}  verdict",
    ]
    for row in rows:
        both = row["base"] and row["new"] is not None
        quotient = f"{row['new'] / row['base']:.3f}" if both else "-"
        lines.append(
            f"{row['workload']:10} {row['metric']:22} {number(row['base']):>12} "
            f"{number(row['new']):>12} {quotient:>9}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    try:
        base_runs, new_runs = load_runs(Path(argv[0])), load_runs(Path(argv[1]))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = compare(base_runs, new_runs, declared)
    print(render(rows, len(base_runs), len(new_runs)))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
