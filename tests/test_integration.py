"""Cross-module integration and property-based tests."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import quick_engine
from repro.core import ExecutorConfig, KeywordQuery, XKeyword
from repro.decomposition import (
    Fragment,
    NetEdge,
    fragment_fds,
    has_genuine_mvd,
    minimal_decomposition,
    relation_satisfies_fd,
)
from repro.schema import dblp_catalog, tpch_catalog
from repro.storage import load_database
from repro.workloads import (
    DBLPConfig,
    author_keywords,
    generate_dblp,
)

from .storage.oracle import fragment_instances


class TestQuickEngine:
    def test_dblp_quickstart(self):
        engine = quick_engine("dblp", seed=7)
        result = engine.search("smith", k=3)
        assert result.mttons

    def test_tpch_quickstart(self):
        engine = quick_engine("tpch", seed=7)
        result = engine.search("tv", k=3)
        assert result.candidate_networks


class TestFullPipelineProperties:
    @pytest.fixture(scope="class")
    def engine(self, small_dblp_db):
        return XKeyword(small_dblp_db)

    def test_every_result_satisfies_every_keyword(self, engine, small_dblp_db):
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        containing = engine.containing_lists(query)
        result = engine.search(query, k=None)
        assert result.mttons
        for mtton in result.mttons:
            tos = set(mtton.target_objects())
            for keyword in query.keywords:
                assert tos & containing.keyword_tos[keyword], mtton.describe()

    def test_results_scores_within_z(self, engine):
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        result = engine.search(query, k=None)
        assert all(m.score <= 6 for m in result.mttons)

    def test_every_result_edge_instance_exists(self, engine, small_dblp_db):
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        result = engine.search(query, k=None)
        for mtton in result.mttons:
            for edge in mtton.edges:
                assert small_dblp_db.to_graph.path_of(
                    edge.edge_id, edge.source_to, edge.target_to
                ) is not None


class RandomTreeMachinery:
    """Hypothesis strategy for random role-labeled trees over a TSS graph."""

    @staticmethod
    def random_tree(tss_graph, rng_seed, size):
        rng = random.Random(rng_seed)
        edges_pool = tss_graph.edges()
        first = rng.choice(edges_pool)
        labels = [first.source, first.target]
        edges = [NetEdge(0, 1, first.edge_id)]
        tries = 0
        while len(edges) < size and tries < 50:
            tries += 1
            role = rng.randrange(len(labels))
            outgoing = rng.random() < 0.5
            options = (
                tss_graph.out_edges(labels[role])
                if outgoing
                else tss_graph.in_edges(labels[role])
            )
            if not options:
                continue
            chosen = rng.choice(options)
            new_role = len(labels)
            if outgoing:
                labels.append(chosen.target)
                edges.append(NetEdge(role, new_role, chosen.edge_id))
            else:
                labels.append(chosen.source)
                edges.append(NetEdge(new_role, role, chosen.edge_id))
        return Fragment(labels, edges)


class TestCanonicalFormProperties:
    @given(seed=st.integers(0, 10_000), size=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_relabeling_preserves_canonical_key(self, seed, size):
        """Shuffling role indices never changes the canonical form."""
        tss_graph = tpch_catalog().tss
        fragment = RandomTreeMachinery.random_tree(tss_graph, seed, size)
        rng = random.Random(seed + 1)
        permutation = list(range(fragment.role_count))
        rng.shuffle(permutation)
        remap = {old: new for old, new in enumerate(permutation)}
        labels = [None] * fragment.role_count
        for old, new in remap.items():
            labels[new] = fragment.labels[old]
        edges = [
            NetEdge(remap[e.source], remap[e.target], e.edge_id)
            for e in fragment.edges
        ]
        shuffled = Fragment(labels, edges)
        assert shuffled.canonical_key() == fragment.canonical_key()
        assert shuffled.relation_name == fragment.relation_name


class TestStructuralVsDataDependencies:
    """Theorem 5.3's structural classification cross-validated on data."""

    @pytest.fixture(scope="class")
    def dblp_data(self):
        catalog = dblp_catalog()
        graph = generate_dblp(DBLPConfig(papers=40, authors=20, seed=21))
        loaded = load_database(graph, catalog, [minimal_decomposition(catalog.tss)])
        return catalog, loaded

    @given(seed=st.integers(0, 5_000), size=st.integers(1, 3))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_tree_fds_hold_on_generated_data(self, dblp_data, seed, size):
        catalog, loaded = dblp_data
        fragment = RandomTreeMachinery.random_tree(catalog.tss, seed, size)
        rows = list(fragment_instances(fragment, loaded.to_graph))
        for fd in fragment_fds(fragment, catalog.tss):
            assert relation_satisfies_fd(
                rows, fragment.columns, sorted(fd.lhs), sorted(fd.rhs)
            ), f"{fd} violated for {fragment}"

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=30, deadline=None)
    def test_mvd_classification_consistent(self, seed):
        """has_genuine_mvd agrees with a branch-counting oracle."""
        tss_graph = dblp_catalog().tss
        fragment = RandomTreeMachinery.random_tree(tss_graph, seed, 4)
        from repro.decomposition.mvd import branch_is_multivalued

        oracle = any(
            sum(
                1
                for edge in fragment.incident(role)
                if branch_is_multivalued(fragment, role, edge, tss_graph)
            )
            >= 2
            for role in range(fragment.role_count)
        )
        assert has_genuine_mvd(fragment, tss_graph) == oracle


class TestCachedVsNaiveRandomQueries:
    @given(seed=st.integers(0, 1_000))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_agreement(self, small_dblp_db, small_dblp_graph, seed):
        rng = random.Random(seed)
        keywords = author_keywords(small_dblp_graph, rng, 2)
        query = KeywordQuery(tuple(keywords), max_size=5)
        engine = XKeyword(small_dblp_db)
        cached = engine.search(
            query,
            k=None,
            config=ExecutorConfig(backend="python", memoize=True),
        )
        naive = engine.search(
            query,
            k=None,
            config=ExecutorConfig(backend="python", memoize=False),
        )
        assert {(m.ctssn.canonical_key, m.assignment) for m in cached.mttons} == {
            (m.ctssn.canonical_key, m.assignment) for m in naive.mttons
        }


class TestDebugVerifyMode:
    """The ``debug_verify`` engine mode passes on every real query.

    The DebugVerifier raises on any CN/CTSSN/plan invariant violation
    (rules RV301-RV311), so identical results with and without it proves
    both that the pipeline maintains the paper's invariants and that
    verification is observation-only.
    """

    @given(seed=st.integers(0, 1_000))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_queries_verify_clean(
        self, small_dblp_db, small_dblp_graph, seed
    ):
        from repro.analysis.plans import DebugVerifier

        rng = random.Random(seed)
        keywords = author_keywords(small_dblp_graph, rng, 2)
        query = KeywordQuery(tuple(keywords), max_size=5)
        verified = XKeyword(small_dblp_db, verifier=DebugVerifier())
        plain = XKeyword(small_dblp_db)
        checked = verified.search(query, k=None)
        baseline = plain.search(query, k=None)
        assert {(m.ctssn.canonical_key, m.assignment) for m in checked.mttons} == {
            (m.ctssn.canonical_key, m.assignment) for m in baseline.mttons
        }

    def test_figure1_query_verifies_clean(self, figure1_db):
        from repro.analysis.plans import DebugVerifier

        engine = XKeyword(figure1_db, verifier=DebugVerifier())
        result = engine.search(
            KeywordQuery.of("us", "vcr", max_size=4), k=None
        )
        assert result.mttons

    def test_service_debug_verify_config(self, small_dblp_db):
        from repro.service import QueryService, ServiceConfig

        service = QueryService(
            small_dblp_db, ServiceConfig(debug_verify=True, workers=2)
        )
        try:
            assert isinstance(service.engine.verifier, object)
            assert service.engine.verifier is not None
            response = service.search("smith", k=3)
            assert response["results"] is not None
        finally:
            service.close()
