"""Level-2 verifier: tampered pipeline objects trip their RV rule.

Strategy: run the real pipeline over the small DBLP database, then break
one invariant at a time with :func:`dataclasses.replace` and assert the
specific rule fires — and that the untouched objects are silent.
"""

from dataclasses import replace

import pytest

from repro.analysis.plans import (
    DebugVerifier,
    InvariantError,
    cn_violations,
    ctssn_violations,
    network_violations,
    plan_violations,
)
from repro.core import KeywordQuery, XKeyword
from repro.decomposition.fragments import NetEdge

QUERY = KeywordQuery.of("smith", "balmin", max_size=6)


@pytest.fixture(scope="module")
def engine(small_dblp_db):
    return XKeyword(small_dblp_db)


@pytest.fixture(scope="module")
def containing(engine):
    return engine.containing_lists(QUERY)


@pytest.fixture(scope="module")
def cns(engine, containing):
    return engine.candidate_networks(QUERY, containing)


@pytest.fixture(scope="module")
def ctssns(engine, containing):
    return engine.candidate_tss_networks(QUERY, containing)


@pytest.fixture(scope="module")
def plans(engine, containing, ctssns):
    return [engine.plan(ctssn, containing) for ctssn in ctssns]


def rules_of(violations):
    return {violation.rule for violation in violations}


def multi_role(objects):
    """First object whose network has at least two roles."""
    for obj in objects:
        if obj.network.role_count >= 2:
            return obj
    pytest.skip("query produced no multi-role network")


class _FakeNetwork:
    """Arbitrary (possibly non-tree) shape for exercising RV301."""

    def __init__(self, labels, edges):
        self.labels = tuple(labels)
        self.edges = tuple(edges)

    @property
    def role_count(self):
        return len(self.labels)

    @property
    def size(self):
        return len(self.edges)

    def incident(self, role):
        return [
            edge for edge in self.edges if role in (edge.source, edge.target)
        ]


class TestRealPipelineIsSilent:
    def test_cns_pass(self, cns):
        assert cns
        for cn in cns:
            assert cn_violations(cn, QUERY.keywords) == []

    def test_ctssns_pass(self, ctssns, small_dblp_db):
        assert ctssns
        for ctssn in ctssns:
            assert ctssn_violations(ctssn, QUERY.keywords, small_dblp_db.catalog.tss) == []

    def test_plans_pass(self, plans, engine):
        assert plans
        for plan in plans:
            assert plan_violations(plan, engine.stores) == []

    def test_debug_verify_engine_searches(self, small_dblp_db):
        verified = XKeyword(small_dblp_db, verifier=DebugVerifier())
        result = verified.search(QUERY, k=5)
        assert result.mttons is not None


class TestRV301TreeShape:
    def test_empty_network(self):
        assert rules_of(network_violations(_FakeNetwork((), ()))) == {"RV301"}

    def test_cycle(self):
        network = _FakeNetwork(
            ("a", "b", "c"),
            (NetEdge(0, 1, "e1"), NetEdge(1, 2, "e2"), NetEdge(2, 0, "e3")),
        )
        violations = network_violations(network)
        assert any("cycle" in v.message for v in violations)
        assert rules_of(violations) == {"RV301"}

    def test_self_loop(self):
        network = _FakeNetwork(("a", "b"), (NetEdge(0, 0, "e1"),))
        violations = network_violations(network)
        assert any("self-loop" in v.message for v in violations)

    def test_dangling_edge(self):
        network = _FakeNetwork(("a", "b"), (NetEdge(0, 7, "e1"),))
        violations = network_violations(network)
        assert any("unknown role" in v.message for v in violations)

    def test_real_networks_are_trees(self, ctssns):
        for ctssn in ctssns:
            assert network_violations(ctssn.network) == []


class TestRV302Coverage:
    def test_uncovered_keyword(self, cns):
        cn = cns[0]
        violations = cn_violations(cn, (*QUERY.keywords, "zzz_not_there"))
        assert "RV302" in rules_of(violations)

    def test_stray_keyword(self, cns):
        cn = cns[0]
        violations = cn_violations(cn, QUERY.keywords[:1])
        assert "RV302" in rules_of(violations)

    def test_annotation_arity_mismatch(self, cns):
        cn = multi_role(cns)
        tampered = replace(cn, annotations=cn.annotations[:-1])
        assert "RV302" in rules_of(cn_violations(tampered, QUERY.keywords))


class TestRV303Duplication:
    def test_keyword_on_two_roles(self, cns):
        cn = multi_role(cns)
        keyword = next(iter(QUERY.keywords))
        doubled = tuple(frozenset({keyword}) for _ in cn.annotations)
        tampered = replace(cn, annotations=doubled)
        assert "RV303" in rules_of(cn_violations(tampered, QUERY.keywords))

    def test_overlapping_witness_constraints(self, ctssns, small_dblp_db):
        ctssn = next(
            (c for c in ctssns if any(c.annotations)), None
        ) or pytest.skip("no annotated CTSSN")
        role = next(i for i, a in enumerate(ctssn.annotations) if a)
        constraint = ctssn.annotations[role][0]
        tampered_annotations = tuple(
            (constraint, constraint) if i == role else a
            for i, a in enumerate(ctssn.annotations)
        )
        tampered = replace(ctssn, annotations=tampered_annotations)
        violations = ctssn_violations(
            tampered, QUERY.keywords, small_dblp_db.catalog.tss
        )
        assert "RV303" in rules_of(violations)


class TestRV304FreeLeaves:
    def test_stripped_leaf_annotation(self, cns):
        cn = multi_role(cns)
        leaf = next(
            role
            for role in range(cn.network.role_count)
            if len(cn.network.incident(role)) == 1 and cn.annotations[role]
        )
        stripped = tuple(
            frozenset() if role == leaf else keywords
            for role, keywords in enumerate(cn.annotations)
        )
        tampered = replace(cn, annotations=stripped)
        assert "RV304" in rules_of(cn_violations(tampered, QUERY.keywords))


class TestRV305Expressibility:
    def test_bogus_labels(self, ctssns, small_dblp_db):
        ctssn = multi_role(ctssns)
        fake = _FakeNetwork(
            tuple("no_such_tss" for _ in ctssn.network.labels),
            ctssn.network.edges,
        )
        tampered = replace(ctssn, network=fake)
        violations = ctssn_violations(
            tampered, QUERY.keywords, small_dblp_db.catalog.tss
        )
        assert "RV305" in rules_of(violations)

    def test_bogus_edge_id(self, ctssns, small_dblp_db):
        ctssn = multi_role(ctssns)
        edges = tuple(
            replace(edge, edge_id="no-such-edge") for edge in ctssn.network.edges
        )
        fake = _FakeNetwork(ctssn.network.labels, edges)
        tampered = replace(ctssn, network=fake)
        violations = ctssn_violations(
            tampered, QUERY.keywords, small_dblp_db.catalog.tss
        )
        assert "RV305" in rules_of(violations)


def plan_with_steps(plans, minimum):
    for plan in plans:
        if len(plan.steps) >= minimum:
            return plan
    pytest.skip(f"no plan with >= {minimum} steps")


class TestRV306Coverage:
    def test_dropped_step_uncovers_edges(self, plans, engine):
        plan = plan_with_steps(plans, 2)
        tampered = replace(plan, steps=plan.steps[:-1])
        assert "RV306" in rules_of(plan_violations(tampered, engine.stores))

    def test_phantom_edge_index(self, plans, engine):
        plan = plan_with_steps(plans, 1)
        step = plan.steps[0]
        piece = replace(
            step.piece,
            covered_edges=step.piece.covered_edges | {99},
        )
        tampered = replace(plan, steps=(replace(step, piece=piece), *plan.steps[1:]))
        assert "RV306" in rules_of(plan_violations(tampered, engine.stores))


class TestRV307Joinability:
    def test_swapped_shared_and_new(self, plans, engine):
        plan = plan_with_steps(plans, 2)
        second = plan.steps[1]
        tampered_step = replace(
            second,
            shared_roles=second.new_roles,
            new_roles=second.shared_roles,
        )
        tampered = replace(
            plan, steps=(plan.steps[0], tampered_step, *plan.steps[2:])
        )
        assert "RV307" in rules_of(plan_violations(tampered, engine.stores))


class TestRV308Materialization:
    def test_unknown_store(self, plans, engine):
        plan = plan_with_steps(plans, 1)
        tampered_step = replace(plan.steps[0], store_name="no-such-store")
        tampered = replace(plan, steps=(tampered_step, *plan.steps[1:]))
        assert "RV308" in rules_of(plan_violations(tampered, engine.stores))


class TestRV309Embeddings:
    def test_covered_edges_disagree_with_embedding(self, plans, engine):
        plan = plan_with_steps(plans, 2)
        first, second = plan.steps[0], plan.steps[1]
        # Claim the second step's edges for the first: total coverage is
        # intact (so RV306 stays quiet) but neither embedding matches.
        swapped = (
            replace(first, piece=replace(first.piece, covered_edges=second.piece.covered_edges)),
            replace(second, piece=replace(second.piece, covered_edges=first.piece.covered_edges)),
            *plan.steps[2:],
        )
        tampered = replace(plan, steps=swapped)
        assert "RV309" in rules_of(plan_violations(tampered, engine.stores))

    def test_non_injective_role_map(self, plans, engine):
        plan = next(
            (
                p
                for p in plans
                for s in p.steps
                if s.piece.fragment.role_count >= 2
            ),
            None,
        ) or pytest.skip("no multi-role fragment in any plan")
        step_index, step = next(
            (i, s)
            for i, s in enumerate(plan.steps)
            if s.piece.fragment.role_count >= 2
        )
        target = step.piece.role_map[0][1]
        collapsed = tuple(
            (fragment_role, target) for fragment_role, _ in step.piece.role_map
        )
        piece = replace(step.piece, role_map=collapsed)
        steps = list(plan.steps)
        steps[step_index] = replace(step, piece=piece)
        tampered = replace(plan, steps=tuple(steps))
        assert "RV309" in rules_of(plan_violations(tampered, engine.stores))


class TestRV310Anchor:
    def test_out_of_range_anchor(self, plans, engine):
        plan = plan_with_steps(plans, 1)
        tampered = replace(plan, anchor_role=99)
        assert "RV310" in rules_of(plan_violations(tampered, engine.stores))

    def test_anchor_not_bound_first(self, plans, engine):
        plan = plan_with_steps(plans, 2)
        late_roles = [
            role
            for step in plan.steps[1:]
            for role in step.new_roles
        ]
        if not late_roles:
            pytest.skip("every role is bound by the first step")
        tampered = replace(plan, anchor_role=late_roles[0])
        assert "RV310" in rules_of(plan_violations(tampered, engine.stores))


class TestDebugVerifier:
    def test_raises_invariant_error_with_details(self, plans, engine):
        plan = plan_with_steps(plans, 1)
        tampered = replace(plan, anchor_role=99)
        with pytest.raises(InvariantError) as excinfo:
            DebugVerifier().check_plan(tampered, engine.stores)
        assert excinfo.value.violations
        assert any(v.rule == "RV310" for v in excinfo.value.violations)
        assert "RV310" in str(excinfo.value)

    def test_is_assertion_error(self):
        assert issubclass(InvariantError, AssertionError)

    def test_check_cn_raises_on_bad_coverage(self, cns):
        with pytest.raises(InvariantError):
            DebugVerifier().check_cn(cns[0], (*QUERY.keywords, "zzz_not_there"))

    def test_check_ctssn_raises_on_bogus_network(self, ctssns, small_dblp_db):
        ctssn = multi_role(ctssns)
        fake = _FakeNetwork(
            tuple("no_such_tss" for _ in ctssn.network.labels),
            ctssn.network.edges,
        )
        with pytest.raises(InvariantError):
            DebugVerifier().check_ctssn(
                replace(ctssn, network=fake),
                QUERY.keywords,
                small_dblp_db.catalog.tss,
            )


class TestRV311SharedPrefixes:
    """The scheduler's prefix assignments re-verify from scratch."""

    def assigned(self, plans):
        from repro.core import assign_shared_prefixes

        assignments = assign_shared_prefixes(plans)
        if not assignments:
            pytest.skip("query produced no shared prefixes")
        index, prefix = next(iter(assignments.items()))
        return plans[index], prefix

    def test_real_assignments_pass(self, plans):
        from repro.core import assign_shared_prefixes
        from repro.analysis.plans import shared_prefix_violations

        assignments = assign_shared_prefixes(plans)
        assert assignments
        for index, prefix in assignments.items():
            assert shared_prefix_violations(plans[index], prefix) == []
            DebugVerifier().check_shared_prefix(plans[index], prefix)

    def test_tampered_key(self, plans):
        from repro.analysis.plans import shared_prefix_violations

        plan, prefix = self.assigned(plans)
        tampered = replace(prefix, key=(("bogus",), (), ()))
        assert "RV311" in rules_of(shared_prefix_violations(plan, tampered))

    def test_out_of_range_length(self, plans):
        from repro.analysis.plans import shared_prefix_violations

        plan, prefix = self.assigned(plans)
        tampered = replace(prefix, length=len(plan.steps) + 1)
        assert "RV311" in rules_of(shared_prefix_violations(plan, tampered))

    def test_non_injective_roles(self, plans):
        from repro.analysis.plans import shared_prefix_violations

        plan, prefix = self.assigned(plans)
        roles = prefix.roles_by_slot
        if len(roles) < 2:
            pytest.skip("single-slot prefix cannot be made non-injective")
        tampered = replace(prefix, roles_by_slot=(roles[0],) * len(roles))
        assert "RV311" in rules_of(shared_prefix_violations(plan, tampered))

    def test_unknown_role(self, plans):
        from repro.analysis.plans import shared_prefix_violations

        plan, prefix = self.assigned(plans)
        roles = prefix.roles_by_slot
        tampered = replace(prefix, roles_by_slot=(99, *roles[1:]))
        assert "RV311" in rules_of(shared_prefix_violations(plan, tampered))

    def test_borrowing_by_a_foreign_plan_fails(self, plans):
        """A prefix handed to a plan with a *different* first-steps
        signature must be rejected — the soundness core of RV311."""
        from repro.core import prefix_spec
        from repro.analysis.plans import shared_prefix_violations

        specs = [(plan, prefix_spec(plan, 1)) for plan in plans]
        specs = [(plan, spec) for plan, spec in specs if spec is not None]
        for plan, _ in specs:
            for other, foreign in specs:
                if foreign.key != prefix_spec(plan, 1).key:
                    assert "RV311" in rules_of(
                        shared_prefix_violations(plan, foreign)
                    )
                    return
        pytest.skip("every plan shares one length-1 signature")

    def test_debug_verifier_raises(self, plans):
        plan, prefix = self.assigned(plans)
        tampered = replace(prefix, key=(("bogus",), (), ()))
        with pytest.raises(InvariantError) as excinfo:
            DebugVerifier().check_shared_prefix(plan, tampered)
        assert any(v.rule == "RV311" for v in excinfo.value.violations)
