"""``compare.py`` verdicts against declared bounds."""

from __future__ import annotations

import json

import compare

LOWER = {"name": "search_p50_ms", "better": "lower", "bound": 0.10}
HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.10}


def test_within_and_beyond_the_bound():
    assert compare.verdict([100.0], [109.0], LOWER) == "ok"
    assert compare.verdict([100.0], [111.0], LOWER) == "worse"
    assert compare.verdict([100.0], [50.0], LOWER) == "ok"
    assert compare.verdict([10.0], [8.9], HIGHER) == "worse"
    assert compare.verdict([10.0], [20.0], HIGHER) == "ok"


def test_missing_value_or_wide_base_spread_is_unresolved():
    assert compare.verdict([], [1.0], LOWER) == "unresolved"
    noisy = [80.0, 90.0, 100.0, 110.0, 120.0]
    assert compare.verdict(noisy, [100.0] * 5, LOWER) == "unresolved"


def test_error_rate_has_an_absolute_bound():
    assert compare.verdict([0.0], [0.004], compare.ERROR_RATE) == "ok"
    assert compare.verdict([0.0], [0.006], compare.ERROR_RATE) == "worse"


def summary(value: float, quick: bool = False) -> dict:
    entry = {"value": value, "unit": "ms", "samples": 50}
    return {"quick": quick, "workloads": {"cold_topk": {"end_to_end": {
        "search_p50_ms": entry, "error_rate": {"value": 0.0, "unit": "ratio"},
    }}}}


def test_exit_status_and_quick_refusal(tmp_path, capsys):
    paths = {}
    for name, run in {
        "base": summary(100.0), "same": summary(101.0),
        "slow": summary(150.0), "quick": summary(100.0, quick=True),
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(run))
    assert compare.main([str(paths["base"]), str(paths["same"])]) == 0
    assert compare.main([str(paths["base"]), str(paths["slow"])]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([str(paths["base"]), str(paths["quick"])]) == 2
