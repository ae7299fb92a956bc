"""The cross-CN scheduler: prefix canonicalization, the shared-prefix
table, the global top-k bound, and the engine wiring of all three."""

from __future__ import annotations

import pytest

from repro.core import (
    ExecutorConfig,
    KeywordQuery,
    SharedPrefixTable,
    TopKBound,
    XKeyword,
    assign_shared_prefixes,
    prefix_spec,
)
from repro.trace import Tracer, TraceStore

DBLP_QUERY = KeywordQuery.of("smith", "balmin", max_size=6)


def plans_for(db, query=DBLP_QUERY):
    engine = XKeyword(db)
    containing = engine.containing_lists(query)
    ctssns = engine.candidate_tss_networks(query, containing)
    ctssns.sort(key=lambda c: (c.score, c.canonical_key))
    return engine, containing, [engine.plan(c, containing) for c in ctssns]


class TestPrefixSpec:
    def test_out_of_range_lengths_yield_none(self, small_dblp_db):
        _, _, plans = plans_for(small_dblp_db)
        plan = plans[0]
        assert prefix_spec(plan, 0) is None
        assert prefix_spec(plan, len(plan.steps) + 1) is None

    def test_slot_zero_is_the_anchor(self, small_dblp_db):
        _, _, plans = plans_for(small_dblp_db)
        for plan in plans:
            spec = prefix_spec(plan, 1)
            if spec is not None:
                assert spec.roles_by_slot[0] == plan.anchor_role

    def test_key_is_independent_of_role_numbering(self, small_dblp_db):
        """Plans from *different* CTSSNs (different role ids) that start
        with the same join steps canonicalize to the same key — that is
        the whole point of slot renaming."""
        _, _, plans = plans_for(small_dblp_db)
        keys = {}
        for plan in plans:
            spec = prefix_spec(plan, 1)
            if spec is None:
                continue
            keys.setdefault(spec.key, []).append(plan)
        shared = [group for group in keys.values() if len(group) >= 2]
        assert shared, "expected at least one length-1 prefix shared by two CNs"
        for group in shared:
            role_sets = {plan.ctssn.canonical_key for plan in group}
            assert len(role_sets) >= 2  # genuinely distinct CTSSNs

    def test_longer_prefix_extends_shorter_signature(self, small_dblp_db):
        _, _, plans = plans_for(small_dblp_db)
        plan = max(plans, key=lambda p: len(p.steps))
        assert len(plan.steps) >= 2
        one = prefix_spec(plan, 1)
        two = prefix_spec(plan, 2)
        assert one.key != two.key
        assert two.key[0][: 1] == one.key[0]  # step signatures nest
        assert two.length == 2
        assert set(one.roles_by_slot) <= set(two.roles_by_slot)


class TestAssignSharedPrefixes:
    def test_only_groups_of_two_or_more(self, small_dblp_db):
        _, _, plans = plans_for(small_dblp_db)
        assigned = assign_shared_prefixes(plans)
        assert assigned, "the DBLP query should share prefixes across CNs"
        by_key = {}
        for spec in assigned.values():
            by_key.setdefault(spec.key, 0)
            by_key[spec.key] += 1
        assert all(count >= 2 for count in by_key.values())

    def test_assignment_indices_are_valid(self, small_dblp_db):
        _, _, plans = plans_for(small_dblp_db)
        assigned = assign_shared_prefixes(plans)
        for index, spec in assigned.items():
            plan = plans[index]
            assert 1 <= spec.length <= len(plan.steps)
            assert prefix_spec(plan, spec.length).key == spec.key

    def test_no_sharing_on_a_single_plan(self, small_dblp_db):
        _, _, plans = plans_for(small_dblp_db)
        assert assign_shared_prefixes(plans[:1]) == {}


class TestSharedPrefixTable:
    def test_producer_runs_exactly_once(self):
        table = SharedPrefixTable()
        calls = []

        def producer():
            calls.append(1)
            return [("a",), ("b",)]

        rows, reused = table.get_or_materialize(("k",), producer)
        again, reused_again = table.get_or_materialize(("k",), producer)
        assert rows == again == [("a",), ("b",)]
        assert (reused, reused_again) == (False, True)
        assert len(calls) == 1
        assert len(table) == 1

    def test_failed_producer_releases_the_key(self):
        table = SharedPrefixTable()

        def boom():
            raise RuntimeError("probe failed")

        with pytest.raises(RuntimeError):
            table.get_or_materialize(("k",), boom)
        rows, reused = table.get_or_materialize(("k",), lambda: [("ok",)])
        assert rows == [("ok",)]
        assert reused is False


class TestTopKBound:
    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            TopKBound(0)

    def test_no_bound_until_k_results(self):
        bound = TopKBound(3)
        bound.add(5)
        bound.add(2)
        assert bound.bound() is None
        assert bound.admits(10**6)
        bound.add(7)
        assert bound.bound() == 7

    def test_tracks_the_kth_smallest(self):
        bound = TopKBound(2)
        for score in (9, 4, 6, 3):
            bound.add(score)
        assert bound.bound() == 4  # two best are 3 and 4

    def test_ties_are_admitted_strictly_above_is_not(self):
        bound = TopKBound(1)
        bound.add(4)
        assert bound.admits(4)  # equal scores must still run (tie-break)
        assert not bound.admits(5)


class TestExecutorConfigStrategy:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            ExecutorConfig(strategy="turbo")

    @pytest.mark.parametrize(
        "strategy, share, prune",
        [
            ("serial", False, False),
            ("shared-prefix", True, False),
            ("shared-prefix+pruning", True, True),
        ],
    )
    def test_strategy_flags(self, strategy, share, prune):
        """``share`` is the ``python`` backend's flag: on ``sql`` every CN is
        one statement, so no strategy shares prefixes there.  Pruning is
        backend-independent."""
        for backend in ("python", "sql"):
            config = ExecutorConfig(backend, strategy=strategy)
            assert config.share_prefixes is (share and backend != "sql"), backend
            assert config.prune_by_bound is prune, backend


def ranked(result):
    return [
        (m.ctssn.canonical_key, m.assignment, m.score) for m in result.mttons
    ]


class TestEngineScheduling:
    def test_prefix_metrics_and_trace_attributes(self, small_dblp_db):
        engine = XKeyword(small_dblp_db, tracer=Tracer(TraceStore()))
        config = ExecutorConfig(backend="python", strategy="shared-prefix")
        result = engine.search(DBLP_QUERY, k=10, config=config)
        assert result.metrics.prefix_materializations > 0
        assert result.metrics.prefix_hits > 0
        assert result.metrics.cns_pruned == 0
        reuse_notes = [
            span.children[1].attributes["prefix_reuse"]
            for span in result.trace.root.children
            if span.name == "cn" and "prefix_reuse" in span.children[1].attributes
        ]
        assert reuse_notes
        assert any(note["reused"] for note in reuse_notes)
        assert any(not note["reused"] for note in reuse_notes)
        assert all(note["length"] >= 1 for note in reuse_notes)

    def test_pruned_cns_are_counted_and_annotated(self, small_dblp_db):
        engine = XKeyword(small_dblp_db, tracer=Tracer(TraceStore()))
        result = engine.search(DBLP_QUERY, k=1)
        assert result.metrics.cns_pruned > 0
        pruned_spans = [
            span
            for span in result.trace.root.children
            if span.name == "cn" and span.attributes.get("pruned") is True
        ]
        assert len(pruned_spans) == result.metrics.cns_pruned
        for span in pruned_spans:
            assert span.attributes["actual_results"] == 0
            assert span.attributes["prune_bound"] is not None
            # A class the bound excludes is never costed or planned.
            assert [child.name for child in span.children] == []
            assert "estimated_results" not in span.attributes
        bound = pruned_spans[0].attributes["prune_bound"]
        assert f"pruned at bound {bound}, not planned" in result.trace.render()

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_strategies_agree_on_the_topk(self, small_dblp_db, k):
        engine = XKeyword(small_dblp_db)
        baseline = ranked(
            engine.search(
                DBLP_QUERY,
                k=k,
                config=ExecutorConfig(strategy="serial"),
            )
        )
        for strategy in ("shared-prefix", "shared-prefix+pruning"):
            got = ranked(
                engine.search(
                    DBLP_QUERY,
                    k=k,
                    config=ExecutorConfig(strategy=strategy),
                )
            )
            assert got == baseline, (strategy, k)

    def test_search_all_ignores_the_bound(self, small_dblp_db):
        """With no K there is no bound; pruning must never drop results."""
        engine = XKeyword(small_dblp_db)
        serial = ranked(
            engine.search(DBLP_QUERY, k=None, config=ExecutorConfig(strategy="serial"))
        )
        pruned = ranked(
            engine.search(
                DBLP_QUERY, k=None, config=ExecutorConfig(strategy="shared-prefix+pruning")
            )
        )
        assert pruned == serial
