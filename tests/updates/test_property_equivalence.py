"""Property test: any mutation interleaving == a full reload.

Hypothesis drives random sequences of insert/delete/update against one
database; after the whole sequence (and after every prefix, since each
example replays from scratch) the incrementally maintained artifacts
must match ``load_database`` run on the mutated graph, and a top-k
query must rank identically.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import KeywordQuery, XKeyword
from repro.storage import load_database
from repro.updates import UpdateManager

from .conftest import assert_equivalent, build_dblp, target_objects

WORDS = ("alpha", "beta", "gamma", "delta", "epsilon")

ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.integers(min_value=0, max_value=99),
    ),
    min_size=1,
    max_size=6,
)


def paper_xml(node_id: str, word_index: int, refs: list[str]) -> str:
    ref = f' ref="{" ".join(refs)}"' if refs else ""
    word = WORDS[word_index % len(WORDS)]
    return (
        f'<paper id="{node_id}"{ref}>'
        f'<title id="{node_id}t">{word} proximity study</title>'
        f'<pages id="{node_id}g">1-{word_index + 1}</pages></paper>'
    )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sequence=ops)
def test_any_interleaving_matches_full_reload(sequence):
    catalog, decomps, loaded = build_dblp(papers=12, authors=8)
    manager = UpdateManager(loaded)
    papers = target_objects(loaded, "Paper")
    parents = target_objects(loaded, "Year")
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
            target = papers.pop(pick % len(papers))
            manager.delete_document(target)
        elif op == "update" and papers:
            target = papers[pick % len(papers)]
            refs = [p for p in papers if p != target][: pick % 2 + 1]
            manager.update_document(target, paper_xml(target, pick + 1, refs))

    assert_equivalent(catalog, decomps, loaded)

    fresh = load_database(loaded.graph, catalog, decomps)
    for keywords in (("alpha", "proximity"), ("smith",), ("gamma",)):
        query = KeywordQuery(keywords)
        theirs = [
            (m.score, tuple(sorted(m.assignment)))
            for m in XKeyword(fresh).search(query, k=10).mttons
        ]
        ours = [
            (m.score, tuple(sorted(m.assignment)))
            for m in XKeyword(loaded).search(query, k=10).mttons
        ]
        assert ours == theirs, keywords
