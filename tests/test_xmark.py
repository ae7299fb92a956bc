"""Cross-schema generality: the full pipeline on the XMark catalog,
validated against the Definition 3.1 reference evaluator."""

import pytest

from repro.baselines.exhaustive import ExhaustiveSearcher
from repro.core import KeywordQuery, XKeyword
from repro.decomposition import minimal_decomposition
from repro.schema import validate, xmark_catalog
from repro.storage import load_database
from repro.workloads import XMarkConfig, generate_xmark


@pytest.fixture(scope="module")
def xmark():
    return xmark_catalog()


@pytest.fixture(scope="module")
def xmark_graph():
    return generate_xmark(XMarkConfig(persons=12, items=8, auctions=10, seed=5))


@pytest.fixture(scope="module")
def xmark_db(xmark_graph, xmark):
    return load_database(xmark_graph, xmark, [minimal_decomposition(xmark.tss)])


class TestCatalog:
    def test_tss_structure(self, xmark):
        assert set(xmark.tss.tss_names()) == {"Person", "Item", "Auction", "Bid"}
        assert xmark.tss.edge_count == 4

    def test_generated_data_conforms(self, xmark_graph, xmark):
        assert validate(xmark_graph, xmark.schema) == []

    def test_registry(self):
        from repro.schema import get_catalog

        assert get_catalog("xmark").name == "xmark"


class TestSearch:
    def test_seller_item_query(self, xmark_db, xmark_graph):
        names = sorted(
            node.value.split()[0]
            for node in xmark_graph.nodes()
            if node.label == "p_name" and node.value
        )
        items = sorted(
            node.value
            for node in xmark_graph.nodes()
            if node.label == "i_name" and node.value
        )
        engine = XKeyword(xmark_db)
        query = KeywordQuery((names[0], items[0]), max_size=6)
        result = engine.search(query, k=None)
        # There may be no connection for an arbitrary pair; the pipeline
        # must at least produce candidate networks linking them.
        assert result.candidate_networks

    @pytest.mark.parametrize("seed", [1, 2])
    def test_reference_agreement(self, xmark, seed):
        graph = generate_xmark(XMarkConfig(persons=6, items=4, auctions=5, seed=seed))
        loaded = load_database(graph, xmark, [minimal_decomposition(xmark.tss)])
        engine = XKeyword(loaded)
        reference = ExhaustiveSearcher(graph, xmark.text_nodes)
        names = sorted(
            {
                node.value.split()[-1]
                for node in graph.nodes()
                if node.label == "p_name" and node.value
            }
        )
        query = KeywordQuery((names[0], names[-1]), max_size=6)
        expected = reference.project_to_target_objects(
            reference.search(query.keywords, query.max_size),
            loaded.to_graph.to_of,
        )
        actual = {
            (frozenset(m.target_objects()), m.score)
            for m in engine.search(query, k=None).mttons
        }
        assert actual == expected


class TestQuickEngine:
    def test_quick_engine_xmark(self):
        from repro import quick_engine

        engine = quick_engine("xmark")
        result = engine.search("tv", k=2)
        assert result.candidate_networks
