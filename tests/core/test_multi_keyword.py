"""Three-keyword queries: subset annotations, execution, and agreement
with the Definition 3.1 reference evaluator."""

import pytest

from repro.baselines.exhaustive import ExhaustiveSearcher
from repro.core import KeywordQuery, XKeyword


@pytest.fixture(scope="module")
def engine(figure1_db):
    return XKeyword(figure1_db)


class TestThreeKeywordCNs:
    def test_cn_generation(self, engine):
        query = KeywordQuery.of("john", "us", "vcr", max_size=8)
        cns = engine.candidate_networks(query)
        assert cns
        for cn in cns:
            assert cn.covered_keywords() == {"john", "us", "vcr"}

    def test_multi_keyword_single_node(self, engine):
        """'set of VCR and DVD' witnesses {set, vcr, dvd} in one node."""
        query = KeywordQuery.of("set", "vcr", "dvd", max_size=4)
        result = engine.search(query, k=None)
        assert any(m.score == 0 for m in result.mttons)

    def test_mixed_split_two_one(self, engine):
        """Two keywords in one node, the third elsewhere."""
        query = KeywordQuery.of("set", "vcr", "john", max_size=8)
        result = engine.search(query, k=None)
        assert result.mttons
        best = result.mttons[0]
        assert "pr1" in best.target_objects()
        assert "p1" in best.target_objects()


class TestThreeKeywordAgreement:
    @pytest.mark.parametrize(
        "keywords",
        [
            ("john", "us", "vcr"),
            ("mike", "tv", "vcr"),
            ("set", "vcr", "john"),
            ("john", "mike", "tv"),
        ],
    )
    def test_matches_reference(self, figure1_db, figure1_graph, tpch, keywords):
        query = KeywordQuery(keywords, max_size=8)
        engine = XKeyword(figure1_db)
        reference = ExhaustiveSearcher(figure1_graph, tpch.text_nodes)
        expected = reference.project_to_target_objects(
            reference.search(query.keywords, query.max_size),
            figure1_db.to_graph.to_of,
        )
        actual = {
            (frozenset(m.target_objects()), m.score)
            for m in engine.search(query, k=None).mttons
        }
        assert actual == expected, keywords
