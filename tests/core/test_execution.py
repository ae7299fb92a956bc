"""Tests for plan construction and nested-loop execution (Section 6)."""

import pytest

from repro.core import (
    ContainingLists,
    CTSSNExecutor,
    ExecutionMetrics,
    ExecutorConfig,
    KeywordQuery,
    Optimizer,
    ResultCache,
)
from repro.core import execution
from repro.core.cn_generator import CNGenerator
from repro.core.ctssn import reduce_to_ctssn


def make_pipeline(db, catalog, query):
    containing = ContainingLists.fetch(db.master_index, query)
    generator = CNGenerator(catalog.schema, containing.schema_nodes())
    cns = generator.generate(query)
    ctssns = [reduce_to_ctssn(cn, catalog.tss) for cn in cns]
    optimizer = Optimizer(dict(db.stores), db.statistics)
    return containing, ctssns, optimizer


def run_all(db, ctssn, containing, optimizer, config=None):
    plan = optimizer.plan(ctssn)
    executor = CTSSNExecutor(
        plan, dict(db.stores), containing, config=config or ExecutorConfig()
    )
    return sorted(tuple(sorted(r.items())) for r in executor.run()), executor


class TestFigure2:
    """The paper's Figure 2: query {us, vcr} has the four results N1-N4."""

    @pytest.fixture(scope="class")
    def pipeline(self, figure1_db, tpch):
        query = KeywordQuery.of("us", "vcr", max_size=8)
        return figure1_db, make_pipeline(figure1_db, tpch, query)

    def test_four_results_from_the_figure2_ctssn(self, pipeline):
        db, (containing, ctssns, optimizer) = pipeline
        # Person(us) <- Lineitem -> Part -> Part(vcr)
        targets = [
            c
            for c in ctssns
            if sorted(c.network.labels) == ["Lineitem", "Part", "Part", "Person"]
        ]
        assert targets
        rows = []
        for ctssn in targets:
            results, _ = run_all(db, ctssn, containing, optimizer)
            rows.extend(results)
        quads = {
            tuple(value for _, value in row)
            for row in rows
            if {"l1", "l2"} & {value for _, value in row}
        }
        lineitem_part_pairs = {
            (
                next(v for v in values if v.startswith("l")),
                next(v for v in values if v in ("pa1", "pa2")),
            )
            for values in quads
        }
        assert lineitem_part_pairs == {
            ("l1", "pa1"), ("l1", "pa2"), ("l2", "pa1"), ("l2", "pa2"),
        }

    def test_roles_bind_distinct_target_objects(self, pipeline):
        db, (containing, ctssns, optimizer) = pipeline
        for ctssn in ctssns:
            results, _ = run_all(db, ctssn, containing, optimizer)
            for row in results:
                values = [value for _, value in row]
                assert len(set(values)) == len(values)


class TestCachedVsNaive:
    @pytest.fixture(scope="class")
    def pipeline(self, small_dblp_db, dblp):
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        return small_dblp_db, make_pipeline(small_dblp_db, dblp, query)

    def test_same_results(self, pipeline):
        """The optimized (cached) executor must agree with the naive one."""
        db, (containing, ctssns, optimizer) = pipeline
        for ctssn in ctssns:
            cached, _ = run_all(
                db, ctssn, containing, optimizer,
                ExecutorConfig(backend="python", memoize=True),
            )
            naive, _ = run_all(
                db, ctssn, containing, optimizer,
                ExecutorConfig(backend="python", memoize=False),
            )
            assert cached == naive, str(ctssn)

    def test_cache_reduces_queries(self, pipeline):
        """The Section 6 optimization: repeated junction ids reuse inner
        results instead of re-querying (Figure 16(a)'s speedup source)."""
        db, (containing, ctssns, optimizer) = pipeline
        big = [c for c in ctssns if c.size >= 3]
        assert big
        total_cached = total_naive = 0
        for ctssn in big:
            _, cached_exec = run_all(
                db, ctssn, containing, optimizer,
                ExecutorConfig(backend="python", memoize=True),
            )
            _, naive_exec = run_all(
                db, ctssn, containing, optimizer,
                ExecutorConfig(backend="python", memoize=False),
            )
            total_cached += cached_exec.metrics.queries_sent
            total_naive += naive_exec.metrics.queries_sent
        assert total_cached < total_naive

    def test_limit_stops_early(self, pipeline):
        db, (containing, ctssns, optimizer) = pipeline
        ctssn = next(c for c in ctssns if c.size == 2)
        plan = optimizer.plan(ctssn)
        executor = CTSSNExecutor(plan, dict(db.stores), containing)
        rows = list(executor.run(limit=2))
        assert len(rows) == 2

    def test_fixed_bindings_respected(self, pipeline):
        db, (containing, ctssns, optimizer) = pipeline
        ctssn = next(c for c in ctssns if c.size == 2)
        plan = optimizer.plan(ctssn)
        executor = CTSSNExecutor(plan, dict(db.stores), containing)
        all_rows = list(executor.run())
        assert all_rows
        paper_role = next(
            r for r, l in enumerate(ctssn.network.labels) if l == "Paper"
        )
        pin = all_rows[0][paper_role]
        pinned = list(executor.run(fixed_bindings={paper_role: pin}))
        assert pinned
        assert all(row[paper_role] == pin for row in pinned)

    def test_metrics_results_counted(self, pipeline):
        db, (containing, ctssns, optimizer) = pipeline
        ctssn = next(c for c in ctssns if c.size == 2)
        plan = optimizer.plan(ctssn)
        metrics = ExecutionMetrics()
        executor = CTSSNExecutor(plan, dict(db.stores), containing, metrics=metrics)
        rows = list(executor.run())
        assert metrics.results == len(rows)


class TestResultCache:
    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put(("a",), [])
        cache.put(("b",), [])
        cache.get(("a",))  # refresh a
        cache.put(("c",), [])  # evicts b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None
        assert len(cache) == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    def test_bounded_cache_still_correct(self, small_dblp_db, dblp, monkeypatch):
        """A tiny cache (constant re-sending, like the paper's full-cache
        fallback) must not change results."""
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        containing, ctssns, optimizer = make_pipeline(small_dblp_db, dblp, query)
        ctssn = max(ctssns, key=lambda c: c.size)
        plan = optimizer.plan(ctssn)
        big = CTSSNExecutor(plan, dict(small_dblp_db.stores), containing)
        monkeypatch.setattr(execution, "RESULT_CACHE_CAPACITY", 2)
        tiny = CTSSNExecutor(plan, dict(small_dblp_db.stores), containing)
        assert tiny.cache.capacity == 2
        as_set = lambda rows: sorted(tuple(sorted(r.items())) for r in rows)
        assert as_set(big.run()) == as_set(tiny.run())
