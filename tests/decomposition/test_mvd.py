"""Tests for fragment classification (Theorem 5.3) — including the paper's
own examples and a data-level cross-validation against real relation
instances."""

import pytest

from repro.decomposition import (
    Fragment,
    FragmentClass,
    NetEdge,
    classify_fragment,
    fragment_fds,
    has_genuine_mvd,
    relation_satisfies_fd,
    relation_satisfies_mvd,
)

from ..storage.oracle import fragment_instances


def frag(labels, edges):
    return Fragment(labels, edges)


@pytest.fixture
def tss(tpch):
    return tpch.tss


class TestPaperExamples:
    def test_single_edges_are_4nf(self, tss):
        """'Connection relations that correspond to a single edge ... are
        always in 4NF.'"""
        for edge in tss.edges():
            fragment = frag([edge.source, edge.target], [NetEdge(0, 1, edge.edge_id)])
            assert classify_fragment(fragment, tss).fragment_class is FragmentClass.FOUR_NF

    def test_pol_is_inlined(self, tss):
        """Person-Order-Lineitem: transitive FDs, no genuine MVD."""
        pol = frag(
            ["Person", "Order", "Lineitem"],
            [NetEdge(0, 1, "Person=>Order"), NetEdge(1, 2, "Order=>Lineitem")],
        )
        assert classify_fragment(pol, tss).fragment_class is FragmentClass.INLINED

    def test_olpa_is_4nf(self, tss):
        """'...the OLPa relation of Figure 9 can be in 4NF' — the line
        choice makes Lineitem=>Part to-one, so L is a key."""
        olpa = frag(
            ["Order", "Lineitem", "Part"],
            [NetEdge(0, 1, "Order=>Lineitem"), NetEdge(1, 2, "Lineitem=>Part")],
        )
        assert classify_fragment(olpa, tss).fragment_class is FragmentClass.FOUR_NF

    def test_palolpa_has_mvd(self, tss):
        """Figure 10's PaLOLPa fragment has the MVD the paper calls out."""
        palolpa = frag(
            ["Part", "Lineitem", "Order", "Lineitem", "Part"],
            [
                NetEdge(1, 0, "Lineitem=>Part"),
                NetEdge(2, 1, "Order=>Lineitem"),
                NetEdge(2, 3, "Order=>Lineitem"),
                NetEdge(3, 4, "Lineitem=>Part"),
            ],
        )
        assert classify_fragment(palolpa, tss).fragment_class is FragmentClass.MVD

    def test_order_two_lineitems_mvd(self, tss):
        fan = frag(
            ["Order", "Lineitem", "Lineitem"],
            [NetEdge(0, 1, "Order=>Lineitem"), NetEdge(0, 2, "Order=>Lineitem")],
        )
        assert has_genuine_mvd(fan, tss)

    def test_subpart_chain_not_mvd(self, tss):
        """part -> sub -> part -> sub -> part: fan-outs in one direction."""
        chain = frag(
            ["Part", "Part", "Part"],
            [NetEdge(0, 1, "Part=>Part"), NetEdge(1, 2, "Part=>Part")],
        )
        assert not has_genuine_mvd(chain, tss)
        assert classify_fragment(chain, tss).fragment_class is FragmentClass.INLINED

    def test_citation_chain_is_mvd(self, dblp):
        """paper cites paper cites paper: the middle paper's citing and
        cited sides are independent."""
        chain = frag(
            ["Paper", "Paper", "Paper"],
            [NetEdge(0, 1, "Paper=>Paper"), NetEdge(1, 2, "Paper=>Paper")],
        )
        assert classify_fragment(chain, dblp.tss).fragment_class is FragmentClass.MVD

    def test_conference_year_paper_inlined(self, dblp):
        chain = frag(
            ["Conference", "Year", "Paper"],
            [NetEdge(0, 1, "Conference=>Year"), NetEdge(1, 2, "Year=>Paper")],
        )
        assert classify_fragment(chain, dblp.tss).fragment_class is FragmentClass.INLINED


class TestFDsFromTrees:
    def test_pol_fds(self, tss):
        pol = frag(
            ["Person", "Order", "Lineitem"],
            [NetEdge(0, 1, "Person=>Order"), NetEdge(1, 2, "Order=>Lineitem")],
        )
        fds = {str(fd) for fd in fragment_fds(pol, tss)}
        assert "{order_id} -> {person_id}" in fds
        assert "{lineitem_id} -> {order_id}" in fds
        assert "{person_id} -> {order_id}" not in fds

    def test_reference_edge_fds(self, tss):
        lp = frag(
            ["Lineitem", "Person"], [NetEdge(0, 1, "Lineitem=>Person")]
        )
        fds = {str(fd) for fd in fragment_fds(lp, tss)}
        assert "{lineitem_id} -> {person_id}" in fds  # one supplier each
        assert "{person_id} -> {lineitem_id}" not in fds


class TestDataLevelCrossValidation:
    """The structural theory must hold on actual relation instances."""

    def _rows(self, fragment, db):
        return list(fragment_instances(fragment, db.to_graph))

    def test_tree_fds_hold_on_instances(self, small_tpch_db, tss):
        fragments = [
            frag(
                ["Person", "Order", "Lineitem"],
                [NetEdge(0, 1, "Person=>Order"), NetEdge(1, 2, "Order=>Lineitem")],
            ),
            frag(
                ["Order", "Lineitem", "Part"],
                [NetEdge(0, 1, "Order=>Lineitem"), NetEdge(1, 2, "Lineitem=>Part")],
            ),
        ]
        for fragment in fragments:
            rows = self._rows(fragment, small_tpch_db)
            assert rows, f"no instances for {fragment}"
            for fd in fragment_fds(fragment, tss):
                assert relation_satisfies_fd(
                    rows, fragment.columns, sorted(fd.lhs), sorted(fd.rhs)
                ), f"{fd} violated on data for {fragment}"

    def test_join_dependency_mvds_hold_on_instances(self, small_tpch_db, tss):
        """Every branch MVD r ->> branch holds by construction; verify on
        the generated TPC-H data for an MVD-classified fragment.

        The branches carry distinct TSSs so role-injectivity (which would
        thin the cross product) cannot interfere.
        """
        fan = frag(
            ["Person", "Order", "Service_call"],
            [NetEdge(0, 1, "Person=>Order"), NetEdge(0, 2, "Person=>Service_call")],
        )
        assert classify_fragment(fan, tss).fragment_class is FragmentClass.MVD
        rows = self._rows(fan, small_tpch_db)
        assert rows
        assert relation_satisfies_mvd(
            rows, fan.columns, [fan.columns[0]], [fan.columns[1]]
        )

    def test_mvd_fragment_blows_up_rows(self, small_tpch_db, tss):
        """MVD fragments materialize more rows than their edges justify —
        the space blow-up the decomposition algorithm avoids."""
        single = frag(["Order", "Lineitem"], [NetEdge(0, 1, "Order=>Lineitem")])
        fan = frag(
            ["Order", "Lineitem", "Lineitem"],
            [NetEdge(0, 1, "Order=>Lineitem"), NetEdge(0, 2, "Order=>Lineitem")],
        )
        single_rows = len(self._rows(single, small_tpch_db))
        fan_rows = len(self._rows(fan, small_tpch_db))
        assert fan_rows > single_rows
