"""Tests for join-bound coverage (paper Section 5.1 / Example 5.1)."""

import pytest

from repro.core import CNGenerator, KeywordQuery
from repro.core.ctssn import reduce_to_ctssn
from repro.decomposition import (
    Fragment,
    NetEdge,
    covers_with_joins,
    embedding_pieces,
    min_cover,
    minimal_fragments,
    single_edge_fragment,
    xkeyword_decomposition,
)
from repro.decomposition.cover import edge_ids_fit
from tests.core.test_front_half_golden import CATALOGS, QUERIES


def ctssn4_network(tpch):
    """The paper's CTSSN4: Part(TV) <- L <- O -> L -> Part(VCR)."""
    return Fragment(
        ["Part", "Lineitem", "Order", "Lineitem", "Part"],
        [
            NetEdge(1, 0, "Lineitem=>Part"),
            NetEdge(2, 1, "Order=>Lineitem"),
            NetEdge(2, 3, "Order=>Lineitem"),
            NetEdge(3, 4, "Lineitem=>Part"),
        ],
    )


def olpa_fragment(tpch):
    """The Figure 9 OLPa fragment."""
    return Fragment(
        ["Order", "Lineitem", "Part"],
        [NetEdge(0, 1, "Order=>Lineitem"), NetEdge(1, 2, "Lineitem=>Part")],
    )


class TestPaperExample51:
    def test_minimal_needs_three_joins(self, tpch):
        """'CTSSN4 requires three joins given the decomposition of
        Figure 8' (single-edge relations)."""
        network = ctssn4_network(tpch)
        cover = min_cover(network, minimal_fragments(tpch.tss))
        assert cover is not None
        assert len(cover) == 4  # 4 pieces -> 3 joins

    def test_olpa_gives_single_join(self, tpch):
        """'With this decomposition, CTSSN4 can be evaluated with a single
        join OLPa x OLPa.'"""
        network = ctssn4_network(tpch)
        cover = min_cover(network, [olpa_fragment(tpch)])
        assert cover is not None
        assert len(cover) == 2  # OLPa TV join OLPa VCR

    def test_join_bounds(self, tpch):
        network = ctssn4_network(tpch)
        singles = minimal_fragments(tpch.tss)
        assert covers_with_joins(network, singles, 3)
        assert not covers_with_joins(network, singles, 2)
        assert covers_with_joins(network, [olpa_fragment(tpch)], 1)
        assert not covers_with_joins(network, [olpa_fragment(tpch)], 0)


class TestMinCover:
    def test_exact_match_zero_joins(self, tpch):
        network = olpa_fragment(tpch)
        cover = min_cover(network, [olpa_fragment(tpch)])
        assert cover is not None and len(cover) == 1

    def test_missing_edge_uncoverable(self, tpch):
        network = olpa_fragment(tpch)
        only_po = [single_edge_fragment(tpch.tss, "Person=>Order")]
        assert min_cover(network, only_po) is None

    def test_max_pieces_bound_respected(self, tpch):
        network = ctssn4_network(tpch)
        assert min_cover(network, minimal_fragments(tpch.tss), max_pieces=3) is None

    def test_cover_pieces_cover_all_edges(self, tpch):
        network = ctssn4_network(tpch)
        cover = min_cover(network, minimal_fragments(tpch.tss))
        covered = set()
        for piece in cover:
            covered |= piece.covered_edges
        assert covered == set(range(network.size))

    def test_mixed_fragment_sizes_prefer_fewer_pieces(self, tpch):
        network = ctssn4_network(tpch)
        fragments = list(minimal_fragments(tpch.tss)) + [olpa_fragment(tpch)]
        cover = min_cover(network, fragments)
        assert len(cover) == 2

    def test_embedding_pieces_dedupe_symmetry(self, tpch):
        network = ctssn4_network(tpch)
        pieces = embedding_pieces(network, olpa_fragment(tpch))
        # OLPa embeds twice (left arm, right arm), each with distinct edges.
        assert len(pieces) == 2
        assert pieces[0].covered_edges != pieces[1].covered_edges

    def test_single_edge_shortcut(self, tpch):
        """covers_with_joins short-circuits small networks with singles."""
        network = olpa_fragment(tpch)
        assert covers_with_joins(network, minimal_fragments(tpch.tss), 1)


class TestEdgeIdPrefilter:
    """``min_cover`` skips fragments whose edge ids the network lacks;
    that must never drop an embedding."""

    @pytest.mark.parametrize("catalog_name", ["dblp", "tpch"])
    def test_skipped_fragments_have_no_embeddings(self, catalog_name):
        catalog = CATALOGS[catalog_name]()
        fragments = xkeyword_decomposition(catalog.tss, 4, 1).fragments
        skipped = kept = 0
        for name, keyword_nodes, max_size, dedupe in QUERIES:
            if name != catalog_name:
                continue
            query = KeywordQuery(tuple(keyword_nodes), max_size=max_size)
            generator = CNGenerator(catalog.schema, keyword_nodes, dedupe=dedupe)
            for cn in generator.generate(query):
                network = reduce_to_ctssn(cn, catalog.tss).network
                for fragment in fragments:
                    if edge_ids_fit(fragment, network):
                        kept += 1
                    else:
                        skipped += 1
                        assert embedding_pieces(network, fragment) == [], (
                            f"{fragment.relation_name} skipped but embeds in {network}"
                        )
        assert skipped and kept  # the check is not vacuous either way

    def test_repeated_edge_id_needs_as_many_network_edges(self, tpch):
        """A fan of two Order=>Lineitem edges does not fit OLPa, which has
        that id once: the check counts ids, it does not just collect them."""
        fan = Fragment(
            ["Lineitem", "Order", "Lineitem"],
            [NetEdge(1, 0, "Order=>Lineitem"), NetEdge(1, 2, "Order=>Lineitem")],
        )
        olpa = olpa_fragment(tpch)
        assert fan.size == olpa.size
        assert not edge_ids_fit(fan, olpa)
        assert embedding_pieces(olpa, fan) == []
        assert edge_ids_fit(fan, ctssn4_network(tpch))
        assert len(embedding_pieces(ctssn4_network(tpch), fan)) == 1
