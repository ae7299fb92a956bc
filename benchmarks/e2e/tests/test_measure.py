"""The reporting rules of ``measure.py`` on canned input."""

from __future__ import annotations

import pytest

from measure import (
    Span,
    SSEParser,
    mean_ms_per_request,
    parse_exposition,
    percentile,
    self_times,
    series_delta,
    staged_account,
)


class TestPercentileRule:
    def test_p90_needs_ten_samples_beyond_it(self):
        assert percentile(list(range(99)), 90) is None
        assert percentile(list(range(100)), 90) == pytest.approx(89.1)

    def test_median_needs_one_sample(self):
        assert percentile([], 50) is None
        assert percentile([7.0], 50) == 7.0
        assert percentile([1.0, 2.0, 4.0, 8.0], 50) == 3.0


class TestSSEParser:
    STREAM = [
        b"event: result\n",
        b'data: {"rank": 1, "score": 2}\n',
        b"\n",
        b"event: result\n",
        b'data: {"rank": 2, "score": 3}\n',
        b"\n",
        b"event: done\n",
        b'data: {"count": 2, "cached": false}\n',
        b"\n",
    ]

    def test_first_result_time_is_the_first_event_line(self):
        parser = SSEParser()
        for now, line in enumerate(self.STREAM, start=10):
            parser.feed(line, float(now))
        assert parser.first_result_at == 10.0
        assert [result["rank"] for result in parser.results] == [1, 2]
        assert parser.done == {"count": 2, "cached": False}
        assert parser.error is None

    def test_empty_answer_has_done_and_no_first_result(self):
        parser = SSEParser()
        for line in self.STREAM[6:]:
            parser.feed(line, 1.0)
        assert parser.first_result_at is None
        assert parser.results == []
        assert parser.done["count"] == 2

    def test_error_event_is_kept_apart_from_done(self):
        parser = SSEParser()
        for line in (b"event: error\r\n", b'data: {"error": "deadline"}\r\n', b"\r\n"):
            parser.feed(line, 1.0)
        assert parser.done is None
        assert parser.error == {"error": "deadline"}


class TestMetricsDelta:
    BEFORE = """\
# HELP repro_query_cache_hits_total Cross-query cache hits
# TYPE repro_query_cache_hits_total counter
repro_query_cache_hits_total 16
repro_cache_invalidations_total{reason="keyword"} 2
repro_requests_total{endpoint="search",status="200"} 40
"""
    AFTER = """\
repro_query_cache_hits_total 516
repro_cache_invalidations_total{reason="keyword"} 5
repro_cache_invalidations_total{reason="relation"} 4
repro_requests_total{endpoint="search",status="200"} 560
repro_query_cache_hit_rate 0.97
"""

    def test_counter_growth(self):
        before, after = parse_exposition(self.BEFORE), parse_exposition(self.AFTER)
        assert series_delta(before, after, "repro_query_cache_hits_total") == 500

    def test_label_sets_are_summed_and_new_series_start_at_zero(self):
        before, after = parse_exposition(self.BEFORE), parse_exposition(self.AFTER)
        assert series_delta(before, after, "repro_cache_invalidations_total") == 7

    def test_a_name_does_not_match_its_prefix(self):
        after = parse_exposition(self.AFTER)
        assert series_delta({}, after, "repro_query_cache_hit") == 0
        assert series_delta({}, after, "repro_shed_total") == 0


class TestSpans:
    def spans(self):
        return [
            Span(0, "core.engine.search", 0, None, 0.0, 0.100),
            Span(1, "staged", 0, None, 1.0, 1.096),
            Span(2, "core.cn_generator", 0, 1, 1.0, 1.060),
            Span(3, "core.execution", 0, 1, 1.070, 1.090),
            Span(4, "core.engine.search", 1, None, 2.0, 2.200),
            Span(5, "staged", 1, None, 3.0, 3.190),
            Span(6, "core.cn_generator", 1, 5, 3.0, 3.100),
            Span(7, "core.execution", 1, 5, 3.100, 3.180),
        ]

    def test_self_time_is_duration_minus_children(self):
        own = self_times(self.spans())
        assert own[1] == pytest.approx(0.016)
        assert own[2] == pytest.approx(0.060)
        assert own[0] == pytest.approx(0.100)

    def test_overlapping_children_are_counted_once_and_clipped(self):
        spans = [
            Span(0, "parent", 0, None, 0.0, 1.0),
            Span(1, "a", 0, 0, 0.1, 0.6),
            Span(2, "b", 0, 0, 0.4, 1.5),
        ]
        assert self_times(spans)[0] == pytest.approx(0.1)

    def test_staged_sum_against_the_parent(self):
        account = staged_account(
            self.spans(), "core.engine.search", ("core.cn_generator", "core.execution")
        )
        assert mean_ms_per_request(self.spans(), "core.engine.search") == pytest.approx(150.0)
        assert account["staged_ms"] == pytest.approx(130.0)
        assert account["share"] == pytest.approx(130.0 / 150.0)
        assert account["unattributed_ms"] == pytest.approx(20.0)
