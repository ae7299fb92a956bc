"""Property test: the SQL backend stays exact under live updates.

Hypothesis drives random insert/delete/update sequences against one
database while a single long-lived engine serves queries on both
backends.  After every mutation the ``sql`` backend must return the
identical ranked top-k to the Python oracle.  The engine holds no state
between queries (every statement is compiled from the current admission
sets), so a ranking mismatch here means a compiled statement read a
rotation the delta skipped — or that something started caching
statements again: the deterministic same-size swap below is the case a
statement cache keyed by parameter *lengths* got wrong.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ExecutorConfig, KeywordQuery, XKeyword
from repro.service import QueryService
from repro.updates import UpdateManager

from .conftest import build_dblp, target_objects
from .test_property_equivalence import paper_xml

ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.integers(min_value=0, max_value=99),
    ),
    min_size=1,
    max_size=5,
)

QUERIES = (("alpha", "proximity"), ("gamma",))


def ranked(engine, keywords, backend, max_size=8):
    result = engine.search(
        KeywordQuery(keywords, max_size=max_size),
        k=10,
        config=ExecutorConfig(backend=backend),
        parallel=False,
    )
    return [(m.score, m.ctssn.canonical_key, m.assignment) for m in result.mttons]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sequence=ops)
def test_sql_backend_matches_oracle_across_mutations(sequence):
    catalog, decomps, loaded = build_dblp(papers=12, authors=8)
    manager = UpdateManager(loaded)
    engine = XKeyword(loaded)
    papers = target_objects(loaded, "Paper")
    parents = target_objects(loaded, "Year")

    def check(context):
        for keywords in QUERIES:
            oracle = ranked(engine, keywords, "python")
            compiled = ranked(engine, keywords, "sql")
            assert compiled == oracle, (context, keywords)

    check("before any mutation")
    fresh_counter = 0
    for op, pick in sequence:
        if op == "insert":
            node_id = f"hyp{fresh_counter}"
            fresh_counter += 1
            refs = [papers[pick % len(papers)]] if papers else []
            manager.insert_document(
                paper_xml(node_id, pick, refs),
                parent_id=parents[pick % len(parents)],
            )
            papers.append(node_id)
            papers.sort()
        elif op == "delete" and papers:
            manager.delete_document(papers.pop(pick % len(papers)))
        elif op == "update" and papers:
            target = papers[pick % len(papers)]
            refs = [p for p in papers if p != target][: pick % 2 + 1]
            manager.update_document(target, paper_xml(target, pick + 1, refs))
        check((op, pick))


def study_xml(node_id: str, word: str, ref: str | None = None) -> str:
    ref = f' ref="{ref}"' if ref else ""
    return (
        f'<paper id="{node_id}"{ref}>'
        f'<title id="{node_id}t">{word} study</title></paper>'
    )


def same_size_swap(insert, delete, check):
    """Replace a keyword's only match by a new document of the same shape.

    Every admission list keeps its *length* across the swap (one zebra
    paper citing one quokka paper, before and after) while the values
    change, so a statement replayed from before the swap filters on the
    deleted ``hzA`` and loses the score-3 ``hzA2 -> hzB`` answer.
    """
    insert(study_xml("hzB", "quokka"))
    insert(study_xml("hzA", "zebra", ref="hzB"))
    check("before the swap")
    delete("hzA")
    insert(study_xml("hzA2", "zebra", ref="hzB"))
    check("after the swap")


def first_year(loaded) -> str:
    return target_objects(loaded, "Year")[0]


SWAP_QUERY = ("zebra", "quokka")


def test_same_size_swap_bare_engine():
    _, _, loaded = build_dblp(papers=12, authors=8)
    manager = UpdateManager(loaded)
    engine = XKeyword(loaded)
    parent = first_year(loaded)

    def check(context):
        oracle = ranked(engine, SWAP_QUERY, "python", max_size=6)
        assert 3 in [score for score, _, _ in oracle], context
        assert ranked(engine, SWAP_QUERY, "sql", max_size=6) == oracle, context

    same_size_swap(
        lambda xml: manager.insert_document(xml, parent_id=parent),
        manager.delete_document,
        check,
    )


def test_same_size_swap_through_service():
    _, _, loaded = build_dblp(papers=12, authors=8)
    service = QueryService(loaded)
    oracle_engine = XKeyword(loaded, executor_config=ExecutorConfig(backend="python"))
    parent = first_year(loaded)

    def served():
        reply = service.search(list(SWAP_QUERY), k=10, max_size=6)
        return [
            (r["score"], r["network"], [n["target_object"] for n in r["nodes"]])
            for r in reply["results"]
        ]

    def check(context):
        oracle = [
            (score, network, [to for _, to in assignment])
            for score, network, assignment in ranked(
                oracle_engine, SWAP_QUERY, "python", max_size=6
            )
        ]
        assert 3 in [score for score, _, _ in oracle], context
        assert served() == oracle, context

    try:
        same_size_swap(
            lambda xml: service.insert_document(xml, parent_id=parent),
            service.delete_document,
            check,
        )
    finally:
        service.close()
