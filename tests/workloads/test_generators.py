"""Tests for the synthetic workload generators."""

import random

import pytest

from repro.schema import validate
from repro.storage import build_target_object_graph
from repro.workloads import (
    DBLPConfig,
    TPCHConfig,
    author_keywords,
    co_occurring_queries,
    generate_dblp,
    generate_tpch,
    part_keywords,
    person_keywords,
    title_keywords,
)


class TestDBLPGenerator:
    def test_deterministic(self):
        a = generate_dblp(DBLPConfig(seed=1))
        b = generate_dblp(DBLPConfig(seed=1))
        assert a.node_count == b.node_count
        assert a.edge_count == b.edge_count

    def test_seed_changes_output(self):
        a = generate_dblp(DBLPConfig(seed=1))
        b = generate_dblp(DBLPConfig(seed=2))
        values_a = sorted(n.value or "" for n in a.nodes() if n.label == "title")
        values_b = sorted(n.value or "" for n in b.nodes() if n.label == "title")
        assert values_a != values_b

    def test_conforms_to_schema(self, dblp):
        graph = generate_dblp(DBLPConfig(papers=40, authors=20, seed=9))
        assert validate(graph, dblp.schema) == []

    def test_citation_average_close_to_config(self):
        config = DBLPConfig(papers=100, avg_citations=6.0, seed=4)
        graph = generate_dblp(config)
        citations = sum(
            1
            for edge in graph.edges()
            if edge.is_reference
            and graph.node(edge.source).label == "paper"
            and graph.node(edge.target).label == "paper"
        )
        assert 4.0 <= citations / config.papers <= 8.0

    def test_paper_counts(self):
        config = DBLPConfig(papers=50, authors=25, seed=2)
        graph = generate_dblp(config)
        assert sum(1 for n in graph.nodes() if n.label == "paper") == 50
        assert sum(1 for n in graph.nodes() if n.label == "author") == 25

    def test_keyword_samplers(self):
        graph = generate_dblp(DBLPConfig(seed=2))
        rng = random.Random(0)
        authors = author_keywords(graph, rng, 2)
        titles = title_keywords(graph, rng, 2)
        assert len(authors) == 2 and len(titles) == 2
        assert all(kw.islower() for kw in authors + titles)


class TestTPCHGenerator:
    def test_conforms_to_schema(self, tpch):
        graph = generate_tpch(TPCHConfig(persons=8, seed=13))
        assert validate(graph, tpch.schema) == []

    def test_parts_are_shared_roots(self, tpch):
        """Several lines may reference the same part (the Figure 2 shape)."""
        graph = generate_tpch(TPCHConfig(persons=15, parts=3, seed=1))
        referenced: dict[str, int] = {}
        for edge in graph.edges():
            if edge.is_reference and graph.node(edge.source).label == "line":
                referenced[edge.target] = referenced.get(edge.target, 0) + 1
        assert any(count >= 2 for count in referenced.values())

    def test_target_objects_build(self, tpch):
        graph = generate_tpch(TPCHConfig(persons=5, seed=3))
        to_graph = build_target_object_graph(graph, tpch.tss)
        assert to_graph.target_object_count > 0
        assert any(key[0] == "Lineitem=>Person" for key in to_graph.paths)

    def test_deterministic(self):
        a = generate_tpch(TPCHConfig(seed=6))
        b = generate_tpch(TPCHConfig(seed=6))
        assert a.node_count == b.node_count

    def test_keyword_samplers(self):
        graph = generate_tpch(TPCHConfig(seed=6))
        rng = random.Random(0)
        assert len(part_keywords(graph, rng, 2)) == 2
        assert len(person_keywords(graph, rng, 2)) == 2


class TestQueryWorkload:
    def test_co_occurring_queries_have_matches(self, small_dblp_db, small_dblp_graph):
        rng = random.Random(5)
        pool = author_keywords(small_dblp_graph, rng, 10)
        queries = co_occurring_queries(small_dblp_db.master_index, pool, 5, seed=1)
        assert len(queries) == 5
        for spec in queries:
            for keyword in spec.keywords:
                assert small_dblp_db.master_index.keyword_count(keyword) > 0

    def test_too_few_keywords_raises(self, small_dblp_db):
        with pytest.raises(ValueError, match="indexed keywords"):
            co_occurring_queries(small_dblp_db.master_index, ["zzz"], 2)

    def test_query_spec_str(self, small_dblp_db, small_dblp_graph):
        rng = random.Random(5)
        pool = author_keywords(small_dblp_graph, rng, 4)
        spec = co_occurring_queries(small_dblp_db.master_index, pool, 1, seed=0)[0]
        assert ", " in str(spec)
