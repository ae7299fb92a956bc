"""The query cache stays sound under live writes.

A cached answer is served only under the mutation epoch it was computed
at, so no answer computed before a write is served after it.  The
hypothesis test drives a random insert/replace/delete sequence and,
after every write, checks each served answer — cached or not — against
a fresh, uncached engine.  The window tests pin the two ways a pre-write
answer could still reach a request that starts after the write
returned: through the cache, when the flight caches it after the write
landed, and through single-flight, when the request joins the pre-write
flight.

Results that tie at the k-th score are left out: which of them make the
cut depends on the plan (ROADMAP item 14), not on cache validity.
"""

from __future__ import annotations

import threading
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import KeywordQuery, XKeyword
from repro.decomposition import minimal_decomposition
from repro.schema import dblp_catalog
from repro.service import QueryService, ServiceConfig
from repro.storage import load_database
from repro.workloads import DBLPConfig, generate_dblp

MAX_SIZE = 6
QUERIES = (
    (("smith", "balmin"), 3),
    (("balmin", "hristidis"), 2),
    (("keyword", "smith"), 3),
    (("relational", "balmin"), 1),
    (("john", "smith"), 1),  # one author's name: the size-0 class fills k
    (("john", "balmin"), 1),
)
AUTHORS = ("a0", "a1", "a2", "a4", "a5", "a6", "a10", "a11")
WORDS = ("keyword", "relational", "search", "probe", "john", "smith")
ORIGINAL_PAPERS = ("p13", "p15", "p18")

WRITES = st.lists(
    st.tuples(
        st.sampled_from(("insert", "replace", "delete", "author")),
        st.integers(min_value=0, max_value=63),  # which live paper
        st.lists(st.sampled_from(AUTHORS), min_size=1, max_size=2, unique=True),
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=2, unique=True),
    ),
    min_size=1,
    max_size=5,
)


def paper_xml(doc: str, authors: list[str], words: list[str]) -> str:
    return (
        f'<paper id="{doc}" ref="{" ".join(authors)}">'
        f'<title id="{doc}t">{" ".join(words)}</title>'
        f'<pages id="{doc}g">1-2</pages></paper>'
    )


def author_xml(doc: str, words: list[str]) -> str:
    return f'<author id="{doc}"><aname id="{doc}n">{" ".join(words)}</aname></author>'


def build_service() -> QueryService:
    catalog = dblp_catalog()
    graph = generate_dblp(DBLPConfig(papers=24, authors=12, avg_citations=2.0, seed=3))
    loaded = load_database(graph, catalog, [minimal_decomposition(catalog.tss)])
    return QueryService(loaded, ServiceConfig(workers=2))


def decided(ranked: list[tuple], k: int) -> tuple[list[int], list[tuple]]:
    """Score list, and every result scoring below the k-th score."""
    scores = [entry[0] for entry in ranked]
    if len(ranked) < k:
        return scores, ranked
    return scores, [entry for entry in ranked if entry[0] < scores[k - 1]]


def served(service: QueryService, keywords, k: int) -> tuple[bool, list[tuple]]:
    payload = service.search(list(keywords), k=k, max_size=MAX_SIZE)
    return payload["cached"], [
        (
            result["score"],
            result["network"],
            tuple((node["role"], node["target_object"]) for node in result["nodes"]),
        )
        for result in payload["results"]
    ]


def fresh(service: QueryService, keywords, k: int) -> list[tuple]:
    result = XKeyword(service.engine.loaded).search(
        KeywordQuery(keywords, max_size=MAX_SIZE), k=k
    )
    return [
        (m.score, m.ctssn.canonical_key, tuple(tuple(pair) for pair in m.assignment))
        for m in result.mttons
    ]


@settings(
    deadline=None,
    max_examples=6,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(writes=WRITES)
def test_served_answers_match_a_fresh_engine_after_every_write(writes):
    service = build_service()
    live = list(ORIGINAL_PAPERS)
    inserted = 0
    try:
        for keywords, k in QUERIES:  # every query starts out cached
            served(service, keywords, k)
        for kind, pick, authors, words in writes:
            if kind == "author":
                service.insert_document(author_xml(f"w{inserted}", words))
                inserted += 1
            elif kind == "insert" or not live:
                doc = f"n{inserted}"
                inserted += 1
                service.insert_document(paper_xml(doc, authors, words), parent_id="c0y1")
                live.append(doc)
            elif kind == "replace":
                doc = live[pick % len(live)]
                service.update_document(doc, paper_xml(doc, authors, words))
            else:
                service.delete_document(live.pop(pick % len(live)))
            for keywords, k in QUERIES:
                cached, answer = served(service, keywords, k)
                assert decided(answer, k) == decided(fresh(service, keywords, k), k), (
                    keywords, k, cached,
                )
    finally:
        service.close()


WINDOW_QUERY, WINDOW_K = ("smith", "balmin"), 10
# Co-authored by matching authors, titled with neither keyword: it adds
# score-4 answers without touching the query's keywords.
WINDOW_WRITE = paper_xml("n0", ["a0", "a4", "a10", "a11"], ["graphs"])


def in_the_window(service: QueryService, action) -> None:
    """Run ``action`` once, from the first search's runner, after it left
    the read lock and before it caches the answer and completes."""
    record = service._instrumentation.record
    ran: list[bool] = []

    def record_then_act(result, seconds):
        if not ran:
            ran.append(True)
            action()
        record(result, seconds)

    service._instrumentation.record = record_then_act


class TestWriteWindows:
    def test_an_answer_computed_before_a_write_is_not_served_after_it(self):
        service = build_service()
        try:
            before = fresh(service, WINDOW_QUERY, WINDOW_K)
            in_the_window(
                service,
                lambda: service.insert_document(WINDOW_WRITE, parent_id="c0y1"),
            )
            _, computed = served(service, WINDOW_QUERY, WINDOW_K)
            assert decided(computed, WINDOW_K) == decided(before, WINDOW_K)
            after = fresh(service, WINDOW_QUERY, WINDOW_K)
            assert decided(after, WINDOW_K) != decided(before, WINDOW_K)
            cached, answer = served(service, WINDOW_QUERY, WINDOW_K)
            assert cached is False
            assert decided(answer, WINDOW_K) == decided(after, WINDOW_K)
        finally:
            service.close()

    def test_a_search_after_a_write_does_not_join_a_flight_from_before_it(self):
        service = build_service()
        joins: list[bool] = []
        join = service.singleflight.join

        def counting_join(key):
            flight, joined = join(key)
            joins.append(joined)
            return flight, joined

        service.singleflight.join = counting_join
        late: list[tuple[bool, list[tuple]]] = []
        searcher = threading.Thread(
            target=lambda: late.append(served(service, WINDOW_QUERY, WINDOW_K))
        )

        def write_then_search():
            service.insert_document(WINDOW_WRITE, parent_id="c0y1")
            searcher.start()  # the late search starts after the write returned
            deadline = time.monotonic() + 10.0
            while len(joins) < 2 and time.monotonic() < deadline:
                time.sleep(0.005)

        try:
            in_the_window(service, write_then_search)
            served(service, WINDOW_QUERY, WINDOW_K)
            searcher.join(30.0)
            assert joins == [False, False], "the late search joined the pre-write flight"
            assert decided(late[0][1], WINDOW_K) == decided(
                fresh(service, WINDOW_QUERY, WINDOW_K), WINDOW_K
            )
        finally:
            service.close()
