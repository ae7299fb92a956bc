"""Engine-level tracing: span trees, estimates, and always-on timings."""

from __future__ import annotations

from repro.core import ExecutionMetrics, KeywordQuery, XKeyword
from repro.trace import Tracer, TraceStore

STAGES = ("matching", "cn_generation", "ctssn_reduction")

# Two authors that co-occur in the seeded small DBLP fixture.
DBLP_QUERY = KeywordQuery.of("smith", "balmin", max_size=6)


def traced_engine(db) -> XKeyword:
    return XKeyword(db, tracer=Tracer(TraceStore()))


class TestSpanTreeContents:
    def test_search_records_the_stage_spans(self, small_dblp_db):
        engine = traced_engine(small_dblp_db)
        result = engine.search(DBLP_QUERY, k=5)
        trace = result.trace
        assert trace is not None
        assert trace.root.end is not None
        names = [span.name for span in trace.root.children]
        for stage in STAGES:
            assert stage in names
        assert trace.root.attributes["results"] == len(result.mttons)
        assert trace.root.attributes["candidate_networks"] == len(
            result.candidate_networks
        )

    def test_cn_spans_pair_estimates_with_actuals(self, figure1_db):
        engine = traced_engine(figure1_db)
        result = engine.search("john vcr", k=50)
        cn_spans = [s for s in result.trace.root.children if s.name == "cn"]
        assert cn_spans
        for span in cn_spans:
            assert "estimated_results" in span.attributes
            assert "actual_results" in span.attributes
            children = [child.name for child in span.children]
            assert children == ["plan", "execute"]
            plan = span.children[0]
            assert "anchor_role" in plan.attributes
            assert "detail" in plan.attributes  # the rendered plan tree
        total_actual = sum(s.attributes["actual_results"] for s in cn_spans)
        assert total_actual >= len(result.mttons)

    def test_lookup_provenance_matches_metrics(self, figure1_db):
        engine = traced_engine(figure1_db)
        result = engine.search("john vcr", k=50)
        dbms_probes = 0
        for cn_span in result.trace.root.children:
            if cn_span.name != "cn":
                continue
            execute = cn_span.children[1]
            dbms_probes += sum(
                stats["dbms"] for stats in execute.lookups.values()
            )
        assert dbms_probes == result.metrics.queries_sent

    def test_tracer_store_retains_the_trace(self, small_dblp_db):
        engine = traced_engine(small_dblp_db)
        result = engine.search(KeywordQuery.of("smith", max_size=6), k=3)
        store = engine.tracer.store
        assert store.get(result.trace.trace_id) is result.trace
        assert engine.tracer.last is result.trace

    def test_no_keyword_match_still_finishes_the_trace(self, small_dblp_db):
        engine = traced_engine(small_dblp_db)
        result = engine.search("zzz_nonexistent_keyword", k=3)
        assert result.trace is not None
        assert result.trace.root.end is not None
        assert result.trace.root.attributes["results"] == 0


class TestDisabledPath:
    def test_default_engine_records_no_trace(self, small_dblp_db):
        engine = XKeyword(small_dblp_db)
        result = engine.search(DBLP_QUERY, k=5)
        assert result.trace is None

    def test_stage_seconds_are_always_recorded(self, small_dblp_db):
        engine = XKeyword(small_dblp_db)
        result = engine.search(DBLP_QUERY, k=5)
        for stage in STAGES:
            assert result.metrics.stage_seconds.get(stage, 0.0) > 0.0
        if result.candidate_networks:
            assert "planning" in result.metrics.stage_seconds
            assert "execution" in result.metrics.stage_seconds

    def test_tracing_does_not_change_results(self, small_dblp_db):
        baseline = XKeyword(small_dblp_db).search(DBLP_QUERY, k=8)
        traced = traced_engine(small_dblp_db).search(
            DBLP_QUERY, k=8
        )
        assert traced.scores() == baseline.scores()
        assert [m.target_objects() for m in traced.mttons] == [
            m.target_objects() for m in baseline.mttons
        ]


class TestStageMetrics:
    def test_record_stage_accumulates(self):
        metrics = ExecutionMetrics()
        metrics.record_stage("execution", 0.5)
        metrics.record_stage("execution", 0.25)
        assert metrics.stage_seconds == {"execution": 0.75}

    def test_merge_folds_stage_seconds(self):
        first = ExecutionMetrics()
        first.record_stage("matching", 0.5)
        second = ExecutionMetrics()
        second.record_stage("matching", 0.25)
        second.record_stage("execution", 1.0)
        first.merge(second)
        assert first.stage_seconds == {"matching": 0.75, "execution": 1.0}
