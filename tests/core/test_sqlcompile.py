"""The plan→SQL compiler and the DBMS-side executor."""

from __future__ import annotations

import pytest

from repro.core import ExecutorConfig, KeywordQuery, XKeyword
from repro.core.execution import BACKEND_ENV_VAR, BACKEND_SQL, CTSSNExecutor
from repro.core.sqlcompile import (
    SQLCTSSNExecutor,
    binding_order,
    compile_plan,
    render_sql,
)
from repro.trace import Tracer, TraceStore

DBLP_QUERY = KeywordQuery.of("smith", "balmin", max_size=6)


def planned(db, *keywords, max_size=8):
    """Engine, containing lists and the planned CTSSNs for a query."""
    engine = XKeyword(db)
    query = KeywordQuery(tuple(keywords), max_size=max_size)
    containing = engine.containing_lists(query)
    ctssns = engine.candidate_tss_networks(query, containing)
    plans = [engine.plan(ctssn, containing) for ctssn in ctssns]
    return engine, containing, plans


def filters_for(plan, containing):
    return {
        role: containing.allowed_tos(constraints)
        for role, constraints in plan.ctssn.keyword_roles()
    }


class TestCompilation:
    def test_single_select_shape(self, figure1_db):
        engine, containing, plans = planned(figure1_db, "john", "vcr")
        plan = next(p for p in plans if len(p.steps) >= 2)
        compiled = compile_plan(
            plan, engine.stores, filters_for(plan, containing)
        )
        assert compiled.sql.startswith("SELECT DISTINCT")
        assert compiled.sql.count("JOIN") == len(plan.steps) - 1
        assert "ORDER BY" in compiled.sql
        assert "LIMIT" not in compiled.sql
        assert not compiled.empty
        # IN-list parameters are the sorted admission values.
        assert list(compiled.params) == sorted(compiled.params, key=str) or (
            len(compiled.params) > 0
        )

    def test_limit_pushdown(self, figure1_db):
        engine, containing, plans = planned(figure1_db, "john", "vcr")
        plan = plans[0]
        compiled = compile_plan(
            plan, engine.stores, filters_for(plan, containing), with_limit=True
        )
        assert compiled.sql.rstrip().endswith("LIMIT ?")
        assert compiled.with_limit

    def test_select_list_follows_binding_order(self, figure1_db):
        engine, containing, plans = planned(figure1_db, "john", "vcr")
        for plan in plans:
            if not plan.steps:
                continue
            compiled = compile_plan(
                plan, engine.stores, filters_for(plan, containing)
            )
            assert compiled.roles == binding_order(plan)
            assert compiled.roles[0] == plan.anchor_role

    def test_empty_admission_set_compiles_to_sentinel(self, figure1_db):
        engine, containing, plans = planned(figure1_db, "john", "vcr")
        plan = plans[0]
        role_filters = dict(filters_for(plan, containing))
        role_filters[next(iter(role_filters))] = set()
        compiled = compile_plan(plan, engine.stores, role_filters)
        assert compiled.empty
        assert compiled.sql == ""

    def test_injectivity_clique_present(self, figure1_db):
        engine, containing, plans = planned(figure1_db, "john", "vcr")
        plan = max(plans, key=lambda p: len(binding_order(p)))
        roles = binding_order(plan)
        compiled = compile_plan(
            plan, engine.stores, filters_for(plan, containing)
        )
        expected_pairs = len(roles) * (len(roles) - 1) // 2
        assert compiled.sql.count("<>") == expected_pairs

    def test_render_sql_matches_describe(self, figure1_db):
        engine, containing, plans = planned(figure1_db, "john", "vcr")
        plan = plans[0]
        role_filters = filters_for(plan, containing)
        rendered = render_sql(plan, engine.stores, role_filters)
        described = plan.describe(engine.stores, role_filters)
        assert "compiled sql:" in described
        for line in rendered.splitlines():
            assert line.strip() in described


class TestBindingOrder:
    def test_anchor_first_then_step_order(self, figure1_db):
        engine, containing, plans = planned(figure1_db, "john", "vcr")
        for plan in plans:
            order = binding_order(plan)
            assert order[0] == plan.anchor_role
            assert sorted(order) == sorted(set(order))
            bound = {plan.anchor_role}
            for step in plan.steps:
                bound.update(step.new_roles)
            assert set(order) == bound


class TestSQLExecutor:
    def test_rows_match_python_executor(self, figure1_db):
        engine, containing, plans = planned(figure1_db, "john", "vcr")
        for plan in plans:
            python_rows = list(
                CTSSNExecutor(plan, engine.stores, containing).run()
            )
            sql_rows = list(
                SQLCTSSNExecutor(plan, engine.stores, containing).run()
            )
            assert sql_rows == python_rows

    def test_limit_matches_python_subset(self, figure1_db):
        engine, containing, plans = planned(figure1_db, "john", "vcr")
        for plan in plans:
            for limit in (1, 2, 5):
                python_rows = list(
                    CTSSNExecutor(plan, engine.stores, containing).run(
                        limit=limit
                    )
                )
                sql_rows = list(
                    SQLCTSSNExecutor(plan, engine.stores, containing).run(
                        limit=limit
                    )
                )
                assert sql_rows == python_rows

    def test_fixed_bindings_fall_back_to_python_path(self, figure1_db):
        engine, containing, plans = planned(figure1_db, "john", "vcr")
        plan, reference = next(
            (p, rows)
            for p in plans
            if p.steps
            for rows in [list(CTSSNExecutor(p, engine.stores, containing).run())]
            if rows
        )
        pinned_role, pinned_to = next(iter(reference[0].items()))
        fixed = {pinned_role: pinned_to}
        python_rows = list(
            CTSSNExecutor(plan, engine.stores, containing).run(
                fixed_bindings=fixed
            )
        )
        executor = SQLCTSSNExecutor(plan, engine.stores, containing)
        sql_rows = list(executor.run(fixed_bindings=fixed))
        assert sql_rows == python_rows
        # The fallback runs nested loops, not one compiled statement.
        assert executor.metrics.queries_sent != 1

    def test_metrics_counted(self, figure1_db):
        engine, containing, plans = planned(figure1_db, "john", "vcr")
        plan = next(p for p in plans if p.steps)
        executor = SQLCTSSNExecutor(plan, engine.stores, containing)
        rows = list(executor.run())
        assert executor.metrics.queries_sent == 1
        assert executor.metrics.results == len(rows)


class TestEngineIntegration:
    def test_search_results_identical_across_backends(self, figure1_db):
        engine = XKeyword(figure1_db)
        query = KeywordQuery.of("john", "vcr", max_size=8)

        def ranked(result):
            return [
                (m.score, m.ctssn.canonical_key, m.assignment)
                for m in result.mttons
            ]

        oracle = engine.search(
            query, k=10, config=ExecutorConfig(backend="python")
        )
        compiled = engine.search(
            query, k=10, config=ExecutorConfig(backend="sql")
        )
        assert ranked(compiled) == ranked(oracle)
        assert compiled.metrics.queries_sent < oracle.metrics.queries_sent

    def test_trace_spans_carry_backend_and_sql(self, figure1_db):
        from repro.trace import Tracer

        engine = XKeyword(figure1_db, tracer=Tracer())
        result = engine.search(
            KeywordQuery.of("john", "vcr", max_size=8),
            k=5,
            config=ExecutorConfig(backend="sql"),
        )
        assert result.trace is not None
        backends = set()
        saw_sql = False
        for cn_span in result.trace.root.children:
            for child in cn_span.children:
                if child.name == "execute":
                    backends.add(child.attributes.get("backend"))
                    if "sql" in child.attributes:
                        saw_sql = True
        assert backends == {"sql"}
        assert saw_sql


def all_spans(span):
    yield span
    for child in span.children:
        yield from all_spans(child)


def ranked(result):
    return [
        (m.ctssn.canonical_key, m.assignment, m.score) for m in result.mttons
    ]


class TestOneStatementPerCN:
    """The paper's execution model on the default backend: each executed
    candidate network is exactly one parameterized statement — no shared
    prefix is assigned, materialized or spliced into the SQL text."""

    @pytest.mark.parametrize("k", [1, 10, None])
    def test_default_search_sends_one_statement_per_cn(
        self, small_dblp_db, monkeypatch, k
    ):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        engine = XKeyword(small_dblp_db, tracer=Tracer(TraceStore()))
        assert engine.executor_config.backend == BACKEND_SQL
        result = engine.search(DBLP_QUERY, k=k)
        executes = [
            span for span in all_spans(result.trace.root) if span.name == "execute"
        ]
        assert executes
        for span in executes:
            assert span.attributes["queries_sent"] <= 1, span.attributes
            assert "compiled-sql:prefix" not in span.lookups
            assert "WITH" not in span.attributes.get("sql", "")
        assert result.metrics.prefix_materializations == 0
        assert result.metrics.prefix_hits == 0
        oracle = engine.search(DBLP_QUERY, k=k, config=ExecutorConfig(backend="python"))
        assert ranked(result) == ranked(oracle)
