"""The CI benchmark-regression gate (tools/check_bench_regression.py)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_bench_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_bench_regression", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def write_report(path: Path, metrics: dict) -> Path:
    path.write_text(json.dumps({"meta": {"quick": True}, "metrics": metrics}))
    return path


BASE = {
    "fig/latency": {"value": 100.0, "better": "lower"},
    "fig/speedup": {"value": 4.0, "better": "higher"},
}


class TestCompare:
    def test_identical_reports_pass(self, gate):
        lines, regressions = gate.compare(BASE, BASE, 0.25)
        assert regressions == []
        assert len(lines) == 2

    def test_latency_regression_detected(self, gate):
        report = {**BASE, "fig/latency": {"value": 130.0, "better": "lower"}}
        _, regressions = gate.compare(BASE, report, 0.25)
        assert len(regressions) == 1
        assert "fig/latency" in regressions[0]

    def test_latency_within_tolerance_passes(self, gate):
        report = {**BASE, "fig/latency": {"value": 124.0, "better": "lower"}}
        _, regressions = gate.compare(BASE, report, 0.25)
        assert regressions == []

    def test_speedup_drop_detected(self, gate):
        report = {**BASE, "fig/speedup": {"value": 2.0, "better": "higher"}}
        _, regressions = gate.compare(BASE, report, 0.25)
        assert len(regressions) == 1
        assert "fig/speedup" in regressions[0]

    def test_improvements_never_fail(self, gate):
        report = {
            "fig/latency": {"value": 10.0, "better": "lower"},
            "fig/speedup": {"value": 40.0, "better": "higher"},
        }
        _, regressions = gate.compare(BASE, report, 0.25)
        assert regressions == []

    def test_missing_metric_fails(self, gate):
        report = {"fig/latency": {"value": 100.0, "better": "lower"}}
        _, regressions = gate.compare(BASE, report, 0.25)
        assert len(regressions) == 1
        assert "missing" in regressions[0]

    def test_new_metric_is_listed_but_passes(self, gate):
        report = {**BASE, "fig/extra": {"value": 1.0, "better": "lower"}}
        lines, regressions = gate.compare(BASE, report, 0.25)
        assert regressions == []
        assert any("fig/extra" in line and "NEW" in line for line in lines)

    def test_baseline_entry_without_value_fails_readably(self, gate):
        """A malformed baseline entry produces a named failure line,
        not a KeyError traceback."""
        base = {**BASE, "fig/broken": {"better": "lower"}}
        lines, regressions = gate.compare(base, base, 0.25)
        assert any("fig/broken" in item and "value" in item for item in regressions)
        assert any("fig/broken" in line for line in lines)

    def test_report_entry_without_value_fails_readably(self, gate):
        report = {**BASE, "fig/latency": {"better": "lower"}}
        _, regressions = gate.compare(BASE, report, 0.25)
        assert len(regressions) == 1
        assert "fig/latency" in regressions[0]
        assert "value" in regressions[0]

    def test_new_metric_without_value_does_not_crash(self, gate):
        report = {**BASE, "fig/extra": {"better": "lower"}}
        lines, regressions = gate.compare(BASE, report, 0.25)
        assert regressions == []
        assert any("fig/extra" in line and "NO VALUE" in line for line in lines)


class TestDirectionDefaults:
    def test_explicit_better_wins(self, gate):
        entry = {"value": 1.0, "better": "higher"}
        assert gate.direction_for("updates/single_update_ms", entry) == "higher"

    def test_streaming_first_result_defaults_lower(self, gate):
        assert gate.direction_for("streaming/first_result_ms", {}) == "lower"

    def test_streaming_speedup_defaults_higher(self, gate):
        assert gate.direction_for("fig16a/size2/in_process_speedup", {}) == "higher"

    def test_unknown_prefix_defaults_lower(self, gate):
        assert gate.direction_for("fig15a/top01/XKeyword", {}) == "lower"

    def test_compare_uses_prefix_default_when_better_missing(self, gate):
        # A higher-is-better Fig 16(a) speedup that *improves* must pass
        # even when the baseline entry forgot its "better" field.
        base = {"fig16a/size2/in_process_speedup": {"value": 1.5}}
        report = {"fig16a/size2/in_process_speedup": {"value": 3.0}}
        _, regressions = gate.compare(base, report, 0.25)
        assert regressions == []
        # ... and a drop past tolerance fails.
        report = {"fig16a/size2/in_process_speedup": {"value": 0.9}}
        _, regressions = gate.compare(base, report, 0.25)
        assert len(regressions) == 1


class TestMain:
    def test_exit_zero_when_within_tolerance(self, gate, tmp_path):
        baseline = write_report(tmp_path / "base.json", BASE)
        report = write_report(tmp_path / "report.json", BASE)
        code = gate.main(
            ["--baseline", str(baseline), "--report", str(report)]
        )
        assert code == 0

    def test_exit_one_on_regression(self, gate, tmp_path, capsys):
        baseline = write_report(tmp_path / "base.json", BASE)
        report = write_report(
            tmp_path / "report.json",
            {**BASE, "fig/latency": {"value": 1000.0, "better": "lower"}},
        )
        code = gate.main(
            ["--baseline", str(baseline), "--report", str(report)]
        )
        assert code == 1
        assert "fig/latency" in capsys.readouterr().err

    def test_exit_two_when_report_missing(self, gate, tmp_path):
        baseline = write_report(tmp_path / "base.json", BASE)
        code = gate.main(
            ["--baseline", str(baseline), "--report", str(tmp_path / "no.json")]
        )
        assert code == 2

    def test_tolerance_flag_loosens_the_gate(self, gate, tmp_path):
        baseline = write_report(tmp_path / "base.json", BASE)
        report = write_report(
            tmp_path / "report.json",
            {**BASE, "fig/latency": {"value": 150.0, "better": "lower"}},
        )
        argv = ["--baseline", str(baseline), "--report", str(report)]
        assert gate.main(argv) == 1
        assert gate.main(argv + ["--tolerance", "0.6"]) == 0

    def test_update_baseline_copies_the_report(self, gate, tmp_path):
        report = write_report(tmp_path / "report.json", BASE)
        baseline = tmp_path / "nested" / "base.json"
        code = gate.main(
            [
                "--baseline",
                str(baseline),
                "--report",
                str(report),
                "--update-baseline",
            ]
        )
        assert code == 0
        assert json.loads(baseline.read_text())["metrics"] == BASE

    def test_committed_baseline_is_well_formed(self, gate):
        """The baseline in the repo parses and self-compares cleanly."""
        committed = gate.DEFAULT_BASELINE
        assert committed.exists()
        metrics = gate.load_metrics(committed)
        assert metrics, "committed baseline has no metrics"
        for name, entry in metrics.items():
            assert entry.get("better") in ("lower", "higher"), name
            assert isinstance(entry["value"], (int, float)), name
        _, regressions = gate.compare(metrics, metrics, 0.0)
        assert regressions == []
