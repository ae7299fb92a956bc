"""End-to-end validation against the Definition 3.1 reference evaluator.

The exhaustive searcher enumerates MTNNs directly on the data graph with
no schema knowledge; the full XKeyword pipeline (master index -> CN
generation -> CTSSN reduction -> planning -> relational execution) must
produce exactly the same result set, projected to target objects.
"""

import pytest

from repro.baselines.exhaustive import ExhaustiveSearcher
from repro.core import KeywordQuery, XKeyword
from repro.decomposition import minimal_decomposition
from repro.storage import load_database
from repro.workloads import DBLPConfig, generate_dblp


def engine_projection(engine, query):
    result = engine.search(query, k=None)
    return {
        (frozenset(m.target_objects()), m.score)
        for m in result.mttons
    }


class TestFigure1Agreement:
    @pytest.mark.parametrize(
        "keywords",
        [("john", "vcr"), ("us", "vcr"), ("tv", "vcr"), ("mike", "dvd"),
         ("john", "tv"), ("1005", "vcr")],
    )
    def test_pipeline_matches_definition(self, figure1_db, figure1_graph, tpch, keywords):
        query = KeywordQuery(keywords, max_size=8)
        engine = XKeyword(figure1_db)
        reference = ExhaustiveSearcher(figure1_graph, tpch.text_nodes)
        expected = reference.project_to_target_objects(
            reference.search(query.keywords, query.max_size),
            figure1_db.to_graph.to_of,
        )
        actual = engine_projection(engine, query)
        assert actual == expected, (
            f"query {keywords}: engine {sorted(actual)} != "
            f"reference {sorted(expected)}"
        )

    def test_single_keyword(self, figure1_db, figure1_graph, tpch):
        query = KeywordQuery(("vcr",), max_size=4)
        engine = XKeyword(figure1_db)
        reference = ExhaustiveSearcher(figure1_graph, tpch.text_nodes)
        expected = reference.project_to_target_objects(
            reference.search(query.keywords, query.max_size),
            figure1_db.to_graph.to_of,
        )
        assert engine_projection(engine, query) == expected


class TestTinyDBLPAgreement:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_tiny_graphs(self, dblp, seed):
        graph = generate_dblp(
            DBLPConfig(
                conferences=2,
                years_per_conference=1,
                papers=8,
                authors=6,
                max_authors_per_paper=2,
                avg_citations=1.0,
                seed=seed,
            )
        )
        loaded = load_database(graph, dblp, [minimal_decomposition(dblp.tss)])
        engine = XKeyword(loaded)
        reference = ExhaustiveSearcher(graph, dblp.text_nodes)
        names = sorted(
            {
                node.value.split()[-1]
                for node in graph.nodes()
                if node.label == "aname" and node.value
            }
        )
        query = KeywordQuery((names[0], names[-1]), max_size=6)
        expected = reference.project_to_target_objects(
            reference.search(query.keywords, query.max_size),
            loaded.to_graph.to_of,
        )
        actual = engine_projection(engine, query)
        assert actual == expected, f"seed {seed}, query {query}"
