"""The single scheduler: one work unit per CN behind one evaluator.

Covers what the one-evaluator refactor made *single* paths: the
``XKeyword.stream()`` generator as a cancelling view of
``search_streaming``, bounded failure when a unit raises, and the one
stage vocabulary.
"""

from __future__ import annotations

import gc
import itertools
import re
import threading
import time
from pathlib import Path

import pytest

from repro.core import (
    PIPELINE_STAGES,
    ExecutorConfig,
    KeywordQuery,
    ResultStream,
    XKeyword,
)
from repro.core.execution import QueryExecution
from repro.trace import Tracer

QUERY = KeywordQuery.of("smith", "balmin", max_size=6)


class TestStreamGenerator:
    def test_closing_the_generator_cancels_the_execution(
        self, small_dblp_db, monkeypatch
    ):
        engine = XKeyword(small_dblp_db)
        streams = []
        start = engine.search_streaming

        def recording(*args, **kwargs):
            streams.append(start(*args, **kwargs))
            return streams[-1]

        monkeypatch.setattr(engine, "search_streaming", recording)
        before = {t for t in threading.enumerate() if t.name == "xkeyword-stream"}
        generator = engine.stream(QUERY)
        first = next(generator)
        assert first.score == min(m.score for m in engine.search(QUERY, k=None).mttons)
        (stream,) = streams
        assert not stream.cancelled
        generator.close()
        assert stream.cancelled
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            running = {
                t for t in threading.enumerate() if t.name == "xkeyword-stream"
            } - before
            if not running:
                break
            time.sleep(0.01)
        assert not running, "background execution outlived the closed generator"
        assert stream.done


class TestRunStateLifetime:
    """A run's state (lookup cache, collected results, containing lists)
    must die with the search: the service streams every request, and a
    reference cycle through the emitter would park it all until the
    cycle collector's next full pass."""

    def test_streamed_run_is_freed_by_refcount_alone(self, small_dblp_db):
        engine = XKeyword(small_dblp_db, tracer=Tracer())
        gc.collect()
        gc.disable()
        try:
            result = engine.search(QUERY, k=5, stream=ResultStream())
            assert result.mttons
            leaked = [o for o in gc.get_objects() if isinstance(o, QueryExecution)]
            assert not leaked
        finally:
            gc.enable()


class _FailingFactory(XKeyword):
    """An engine whose executor factory raises for one candidate network."""

    fail_at = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.builds = itertools.count(1)

    def _make_executor(self, plan, containing, config, **kwargs):
        if next(self.builds) == self.fail_at:
            raise RuntimeError("executor factory exploded")
        return super()._make_executor(plan, containing, config, **kwargs)


class TestUnitFailure:
    """Every unit signals completion or the stream fails — never a hang."""

    def test_stream_fails_promptly(self, small_dblp_db):
        engine = _FailingFactory(
            small_dblp_db, executor_config=ExecutorConfig(strategy="serial")
        )
        stream = engine.search_streaming(QUERY, k=None)
        with pytest.raises(RuntimeError, match="exploded"):
            stream.result(timeout=60.0)
        with pytest.raises(RuntimeError, match="exploded"):
            list(stream)

    def test_buffered_search_raises(self, small_dblp_db):
        engine = _FailingFactory(small_dblp_db)
        with pytest.raises(RuntimeError, match="exploded"):
            engine.search(QUERY, k=None)


class TestStageVocabulary:
    def test_recorded_stages_are_the_vocabulary(self, small_dblp_db):
        engine = XKeyword(small_dblp_db)
        result = engine.search_streaming(QUERY, k=5).result(timeout=60.0)
        assert set(result.metrics.stage_seconds) == set(PIPELINE_STAGES)

    def test_operations_catalogue_lists_exactly_the_vocabulary(self):
        runbook = Path(__file__).resolve().parents[2] / "docs" / "OPERATIONS.md"
        (row,) = [
            line
            for line in runbook.read_text().splitlines()
            if line.startswith("| `repro_stage_seconds{stage}`")
        ]
        meaning = row.split("|")[2]
        documented = re.findall(r"`(\w+)`", meaning)
        assert documented == list(PIPELINE_STAGES)
