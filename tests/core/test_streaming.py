"""Streamed delivery: equivalence with buffered top-k, cancellation, units.

The streaming contract is strict: the concatenation of results
published on a :class:`~repro.core.ResultStream` is *identical* — same
results, same order — to the buffered ranked top-k of
:meth:`~repro.core.XKeyword.search`.  The equivalence tests here run
under whatever ambient ``$REPRO_BACKEND`` the CI matrix sets, so every
variant cell re-proves the contract, and on top of that an explicit
backend sweep pins the cells locally.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExecutorConfig,
    KeywordQuery,
    ResultStream,
    StreamCancelledError,
    XKeyword,
)
from repro.core.results import MTTON
from repro.core.streaming import _StreamEmitter
from repro.trace import Tracer, TraceStore


@pytest.fixture(scope="module")
def engine(small_dblp_db):
    """Engine under the ambient backend (the CI matrix cell)."""
    return XKeyword(small_dblp_db)


QUERY = KeywordQuery.of("smith", "balmin", max_size=6)


def fake_mtton(score: int, key: str, to: str) -> MTTON:
    """A minimal MTTON stand-in for emitter/stream unit tests."""
    ctssn = SimpleNamespace(score=score, canonical_key=key)
    return MTTON(ctssn, ((0, to),), (), score)


# ----------------------------------------------------------------------
# Equivalence: streamed == buffered
# ----------------------------------------------------------------------
class TestStreamedEquivalence:
    def test_stream_matches_buffered_topk(self, engine):
        buffered = engine.search(QUERY, k=10)
        stream = engine.search_streaming(QUERY, k=10)
        assert list(stream) == list(buffered.mttons)
        assert list(stream.result().mttons) == list(buffered.mttons)

    def test_search_publishes_and_leaves_termination_to_the_owner(self, engine):
        stream = ResultStream()
        result = engine.search(QUERY, k=10, stream=stream)
        assert not stream.done
        assert stream.emitted == len(result.mttons)
        stream.complete(result)
        assert list(stream) == list(result.mttons)

    @settings(max_examples=12, deadline=None)
    @given(k=st.integers(min_value=1, max_value=30))
    def test_stream_matches_buffered_any_k(self, engine, k):
        buffered = engine.search(QUERY, k=k)
        streamed = list(engine.search_streaming(QUERY, k=k))
        assert streamed == list(buffered.mttons)

    def test_stream_matches_buffered_all_results(self, engine):
        buffered = engine.search(QUERY, k=None)
        streamed = list(engine.search_streaming(QUERY, k=None))
        assert streamed == list(buffered.mttons)

    @pytest.mark.parametrize("backend", ["python", "sql"])
    def test_backend_cells(self, small_dblp_db, backend):
        """Explicit sweep of the CI variant cells."""
        cell = XKeyword(
            small_dblp_db, executor_config=ExecutorConfig(backend=backend)
        )
        buffered = cell.search(QUERY, k=8)
        streamed = list(cell.search_streaming(QUERY, k=8))
        assert streamed == list(buffered.mttons)

    def test_scores_arrive_in_ranked_order(self, engine):
        scores = [m.score for m in engine.search_streaming(QUERY, k=20)]
        assert scores == sorted(scores)

    def test_missing_keyword_completes_empty(self, engine):
        stream = engine.search_streaming(
            KeywordQuery.of("zzzabsent", "smith", max_size=4)
        )
        assert list(stream) == []
        assert stream.result().mttons == []

    def test_late_subscriber_replays_from_start(self, engine):
        stream = engine.search_streaming(QUERY, k=5)
        first = list(stream)  # drain to completion
        late = list(stream.subscribe())  # subscribe after the fact
        assert late == first

    def test_first_result_seconds_recorded(self, engine):
        stream = engine.search_streaming(QUERY, k=5)
        result = stream.result(timeout=60.0)
        assert result.mttons
        assert stream.first_result_seconds is not None
        assert stream.first_result_seconds >= 0.0


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
class TestCancellation:
    def test_cancel_mid_stream_stops_iteration(self, engine):
        stream = engine.search_streaming(QUERY, k=20)
        cursor = stream.subscribe()
        cursor.next(timeout=60.0)  # at least one result arrived
        stream.cancel()
        with pytest.raises((StopIteration, StreamCancelledError)):
            while True:
                cursor.next(timeout=60.0)

    def test_cancel_flags_producer_without_terminating(self, engine):
        stream = ResultStream()
        stream.cancel()
        assert stream.cancelled
        # cancel() only asks the producer to wind down; the stream still
        # terminates via complete()/fail(), so result() keeps blocking.
        with pytest.raises(TimeoutError):
            stream.result(timeout=0.05)

    def test_cancel_stops_planning_and_execution(self, small_dblp_db):
        """A consumer that cancels at its first result stops the run at
        once on ``sql``: no CN is planned, and none executes, after it."""

        class CancelAtFirst(ResultStream):
            cancelled_at: float | None = None

            def publish(self, mtton):
                super().publish(mtton)
                if self.cancelled_at is None:
                    self.cancelled_at = time.perf_counter()
                    self.cancel()

        engine = XKeyword(small_dblp_db, tracer=Tracer(TraceStore()))
        stream = CancelAtFirst()
        result = engine.search(QUERY, k=None, config=ExecutorConfig("sql"), stream=stream)
        assert stream.cancelled_at is not None
        cn_spans = [s for s in result.trace.root.children if s.name == "cn"]
        cancelled = [s for s in cn_spans if s.attributes.get("cancelled")]
        assert cancelled
        assert all(span.children == [] for span in cancelled)
        children = [child for span in cn_spans for child in span.children]
        assert not [
            c.name for c in children
            if c.name in ("plan", "execute") and c.start > stream.cancelled_at
        ]
        assert stream.emitted < len(engine.search(QUERY, k=None).mttons)

    def test_engine_reusable_after_cancel(self, engine):
        stream = engine.search_streaming(QUERY, k=20)
        stream.cancel()
        buffered = engine.search(QUERY, k=5)
        assert list(engine.search_streaming(QUERY, k=5)) == list(buffered.mttons)


# ----------------------------------------------------------------------
# ResultStream unit behavior
# ----------------------------------------------------------------------
class TestResultStream:
    def test_publish_then_iterate(self):
        stream = ResultStream()
        a, b = fake_mtton(1, "a", "t1"), fake_mtton(2, "b", "t2")
        stream.publish(a)
        stream.publish(b)
        stream.fail(RuntimeError("stop"))  # terminate for iteration
        cursor = stream.subscribe()
        assert cursor.next() is a
        assert cursor.next() is b

    def test_fail_propagates_to_consumers(self):
        stream = ResultStream()
        stream.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            list(stream)
        with pytest.raises(ValueError, match="boom"):
            stream.result(timeout=1.0)

    def test_result_timeout(self):
        stream = ResultStream()
        with pytest.raises(TimeoutError):
            stream.result(timeout=0.05)

    def test_cursor_timeout_then_resume(self):
        stream = ResultStream()
        cursor = stream.subscribe()
        with pytest.raises(TimeoutError):
            cursor.next(timeout=0.05)
        item = fake_mtton(1, "a", "t1")
        stream.publish(item)
        assert cursor.next(timeout=1.0) is item

    def test_closed_cursor_stops(self):
        stream = ResultStream()
        cursor = stream.subscribe()
        cursor.close()
        with pytest.raises(StopIteration):
            cursor.next()

    def test_publisher_unblocks_waiting_consumer(self):
        stream = ResultStream()
        item = fake_mtton(3, "c", "t3")
        received = []

        def consume():
            received.extend(stream)

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.05)
        stream.publish(item)
        stream.complete(SimpleNamespace(mttons=[item]))
        thread.join(timeout=5.0)
        assert received == [item]


# ----------------------------------------------------------------------
# _StreamEmitter: the band frontier
# ----------------------------------------------------------------------
class TestStreamEmitter:
    def test_band_flushes_only_when_all_cns_of_score_done(self):
        stream = ResultStream()
        emitter = _StreamEmitter(stream, scores=[1, 1, 2], limit=10)
        a = fake_mtton(1, "a", "t1")
        emitter.offer(a)
        emitter.cn_done(1)
        assert stream.emitted == 0  # second score-1 CN still running
        emitter.cn_done(1)
        assert stream.emitted == 1  # band 1 complete -> flushed

    def test_later_band_waits_for_earlier(self):
        stream = ResultStream()
        emitter = _StreamEmitter(stream, scores=[1, 2], limit=10)
        b = fake_mtton(2, "b", "t2")
        emitter.offer(b)
        emitter.cn_done(2)
        assert stream.emitted == 0  # band 1 not finished yet
        emitter.cn_done(1)
        assert stream.emitted == 1  # both bands flush in order

    def test_band_sorted_by_full_ranking_key(self):
        stream = ResultStream()
        emitter = _StreamEmitter(stream, scores=[1, 1], limit=10)
        late = fake_mtton(1, "z", "t9")
        early = fake_mtton(1, "a", "t1")
        emitter.offer(late)
        emitter.offer(early)
        emitter.cn_done(1)
        emitter.cn_done(1)
        cursor = stream.subscribe()
        assert cursor.next(timeout=1.0) is early
        assert cursor.next(timeout=1.0) is late

    def test_budget_truncates_at_limit(self):
        stream = ResultStream()
        emitter = _StreamEmitter(stream, scores=[1], limit=2)
        for index in range(5):
            emitter.offer(fake_mtton(1, f"k{index}", f"t{index}"))
        emitter.cn_done(1)
        assert stream.emitted == 2

    def test_on_first_fires_once(self):
        stream = ResultStream()
        seen = []
        emitter = _StreamEmitter(
            stream, scores=[1, 2], limit=10, on_first=seen.append
        )
        emitter.offer(fake_mtton(1, "a", "t1"))
        emitter.cn_done(1)
        emitter.offer(fake_mtton(2, "b", "t2"))
        emitter.cn_done(2)
        assert len(seen) == 1 and seen[0] >= 0.0
