"""The paper's running example, reproduced from raw XML text.

Parses an XML document shaped like the paper's Figure 1 (persons,
orders, lineitems with supplier and line references, part/subpart trees,
products, service calls), then runs the Section 1 queries:

* ``john vcr`` — the size-6 product route must beat the size-8 subpart
  route, exactly as the paper argues;
* ``us vcr``   — the Figure 2 candidate network yields the four results
  N1..N4 whose multivalued redundancy motivates presentation graphs.

Run:  python examples/tpch_paper_example.py
"""

from __future__ import annotations

from repro import KeywordQuery, XKeyword, load_database, minimal_decomposition, parse_xml, tpch_catalog
from repro.workloads import figure1_document


def show(result) -> None:
    for rank, mtton in enumerate(result.mttons, start=1):
        labels = mtton.ctssn.network.labels
        nodes = " + ".join(f"{labels[role]}:{to}" for role, to in mtton.assignment)
        print(f"  #{rank} score={mtton.score}  {nodes}")


def main() -> None:
    from repro.xmlgraph import ParseOptions

    catalog = tpch_catalog()
    # Drop the wrapper root so persons and parts are unrelated roots,
    # exactly as the paper prescribes (Section 3: the root would provide
    # an artificial connection between unrelated first-level elements).
    graph = parse_xml(figure1_document(), ParseOptions(drop_root=True))

    loaded = load_database(graph, catalog, [minimal_decomposition(catalog.tss)])
    engine = XKeyword(loaded)

    print("query: john, vcr (Z=8)")
    result = engine.search(KeywordQuery.of("john", "vcr", max_size=8), k=10)
    show(result)
    best = result.mttons[0]
    assert best.score == 6, "the product route must win, per the paper"
    print(
        "  -> best result is John --supplied--> lineitem --line--> "
        "product 'set of VCR and DVD' (size 6), beating the subpart "
        "route (size 8), as in the paper's Section 1.\n"
    )

    print("query: us, vcr (Z=8) — the Figure 2 multivalued redundancy")
    result = engine.search(KeywordQuery.of("us", "vcr", max_size=8), k=None)
    figure2 = [
        m
        for m in result.mttons
        if {"l1", "l2"} & set(m.target_objects())
        and {"pa1", "pa2"} & set(m.target_objects())
        and "p1" in m.target_objects()  # the Figure 2 CN: supplier route
    ]
    show(type(result)(result.query, figure2, result.metrics))
    print(
        f"  -> {len(figure2)} results N1..N4 share the same pieces of "
        "information; XKeyword's presentation graphs summarize them "
        "instead of listing all four."
    )


if __name__ == "__main__":
    main()
