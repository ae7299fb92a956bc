"""Shared setup for the Section 7 benchmark suite.

One synthetic DBLP database (the paper's experimental data set: DBLP
with synthesized citations) is built once per benchmark session, loaded
under every decomposition the paper compares.  Scale is laptop-sized —
the reproduction targets the *shapes* of Figures 15 and 16, not 2003
Oracle absolute times — and every knob is in :data:`BenchScale`.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

from repro.core import ExecutorConfig, KeywordQuery, XKeyword
from repro.decomposition import (
    Decomposition,
    IndexPolicy,
    complete_decomposition,
    inlined_only_decomposition,
    minimal_decomposition,
    xkeyword_decomposition,
)
from repro.schema import dblp_catalog
from repro.storage import LoadedDatabase, load_database
from repro.workloads import DBLPConfig, generate_dblp


@dataclass(frozen=True)
class BenchScale:
    """Benchmark sizing (kept modest so the suite finishes in minutes)."""

    papers: int = 800
    authors: int = 250
    avg_citations: float = 12.0
    seed: int = 17
    max_network_size: int = 6  # M = f(8) = 6, the paper's configuration
    max_joins: int = 2  # B = 2, hence L = 2 (Theorem 5.1)
    query_count: int = 3


SCALE = BenchScale()

TOPK_DECOMPOSITIONS = ("XKeyword", "MinClust", "MinNClustIndx", "Complete")
ALL_RESULT_DECOMPOSITIONS = (
    "XKeyword", "MinClust", "MinNClustIndx", "MinNClustNIndx",
)


def build_decompositions() -> list[Decomposition]:
    catalog = dblp_catalog()
    tss = catalog.tss
    m, b = SCALE.max_network_size, SCALE.max_joins
    return [
        xkeyword_decomposition(tss, m, b),
        minimal_decomposition(tss, IndexPolicy.ALL_ROTATIONS),
        minimal_decomposition(tss, IndexPolicy.SINGLE_COLUMN_INDEXES),
        minimal_decomposition(tss, IndexPolicy.NONE),
        complete_decomposition(tss, m, b),
        inlined_only_decomposition(tss, m, b),
    ]


@lru_cache(maxsize=1)
def bench_database() -> LoadedDatabase:
    """The shared loaded database (memoized per process)."""
    catalog = dblp_catalog()
    graph = generate_dblp(
        DBLPConfig(
            papers=SCALE.papers,
            authors=SCALE.authors,
            avg_citations=SCALE.avg_citations,
            seed=SCALE.seed,
        )
    )
    return load_database(graph, catalog, build_decompositions())


@contextmanager
def round_trip_latency(database, seconds: float):
    """Charge every read query on ``database`` one round trip.

    The paper's system talks to Oracle over JDBC, so every focused query
    pays a round trip; in-process SQLite has none.  Inside the block
    this instance's ``query``/``query_one`` sleep ``seconds`` before
    running (writes are not delayed); the originals are restored on
    exit.  Not reentrant on one database.
    """

    def delayed(read):
        def call(sql, params=()):
            time.sleep(seconds)
            return read(sql, params)

        return call

    database.query = delayed(database.query)
    database.query_one = delayed(database.query_one)
    try:
        yield
    finally:
        del database.query, database.query_one


@lru_cache(maxsize=1)
def bench_graph():
    return bench_database().graph


@lru_cache(maxsize=None)
def engine_for(decomposition_name: str) -> XKeyword:
    """An engine restricted to one decomposition's relations, on the
    ``python`` executor the Figure 15/16 benches time."""
    loaded = bench_database()
    names = [decomposition_name]
    if decomposition_name == "Combined":
        names = ["XKeyword", "MinClust"]
    config = ExecutorConfig(backend="python")
    return XKeyword(loaded, store_priority=names, executor_config=config)


@lru_cache(maxsize=None)
def bench_queries(max_size: int = 8, count: int | None = None) -> tuple[KeywordQuery, ...]:
    """Deterministic two-author keyword queries whose authors co-author.

    Keyword pairs are drawn from authors of the same paper, so every
    CTSSN size from 2 (Author-Paper-Author) upward has results — the
    Figure 15(b)/16 sweeps need non-empty result sets at every size.
    """
    graph = bench_graph()
    rng = random.Random(SCALE.seed)
    name_of = {}
    for node in graph.nodes():
        if node.label == "aname" and node.value:
            author = graph.containment_parent(node.node_id).node_id
            name_of[author] = node.value.split()[-1]
    coauthor_pairs = []
    for node in graph.nodes():
        if node.label != "paper":
            continue
        authors = [
            edge.target
            for edge in graph.out_edges(node.node_id)
            if edge.is_reference and graph.node(edge.target).label == "author"
        ]
        if len(authors) >= 2:
            first, second = name_of[authors[0]], name_of[authors[1]]
            if first != second:
                coauthor_pairs.append(tuple(sorted((first, second))))
    unique_pairs = sorted(set(coauthor_pairs))
    rng.shuffle(unique_pairs)
    chosen = unique_pairs[: (count or SCALE.query_count)]
    return tuple(KeywordQuery(pair, max_size=max_size) for pair in chosen)


@dataclass
class PreparedQuery:
    """One keyword query with all pre-execution work already done.

    CN generation, CTSSN reduction and plan selection are identical
    across physical decomposition variants, so the Figure 15/16 benches
    keep them outside the timer and measure execution proper.
    """

    engine: XKeyword
    query: KeywordQuery
    containing: object
    plans: list  # (ctssn, ExecutionPlan) in score order


@lru_cache(maxsize=None)
def prepared_searches(
    decomposition_name: str, max_size: int = 8
) -> tuple[PreparedQuery, ...]:
    """Pre-planned queries for one decomposition (memoized)."""
    engine = engine_for(decomposition_name)
    prepared = []
    for query in bench_queries(max_size=max_size):
        containing = engine.containing_lists(query)
        ctssns = engine.candidate_tss_networks(query, containing)
        ctssns.sort(key=lambda c: (c.score, c.canonical_key))
        plans = [(ctssn, engine.plan(ctssn, containing)) for ctssn in ctssns]
        prepared.append(PreparedQuery(engine, query, containing, plans))
    return tuple(prepared)


def execute_prepared(
    prepared: PreparedQuery,
    k: int | None,
    memoize: bool = True,
    strategy: str = "serial",
) -> int:
    """Run pre-planned CTSSNs in score order under one scheduling strategy,
    on the ``python`` executor (one focused query per binding).

    ``memoize=False`` is the paper's *naive* executor: no partial-result
    reuse of any kind (every inner loop re-sends its queries).
    ``strategy`` ablates the cross-CN scheduler: ``serial`` evaluates
    every CN independently to ``k`` results, ``shared-prefix`` adds
    once-per-query materialization of canonical join prefixes, and
    ``shared-prefix+pruning`` also skips CNs whose score exceeds the
    global k-th best collected score — all three produce the same top-k.
    """
    from repro.core import (
        CTSSNExecutor,
        ResultCache,
        SharedPrefixTable,
        TopKBound,
        assign_shared_prefixes,
    )

    config = ExecutorConfig(
        backend="python",
        memoize=memoize,
        strategy=strategy,
    )
    lookup_cache = ResultCache()
    prefixes = {}
    prefix_table = None
    if config.share_prefixes:
        prefixes = assign_shared_prefixes([plan for _, plan in prepared.plans])
        if prefixes:
            prefix_table = SharedPrefixTable()
    bound = TopKBound(k) if config.prune_by_bound and k is not None else None
    produced = 0
    for index, (ctssn, plan) in enumerate(prepared.plans):
        if bound is not None and not bound.admits(ctssn.score):
            continue
        executor = CTSSNExecutor(
            plan,
            prepared.engine.stores,
            prepared.containing,
            config=config,
            lookup_cache=lookup_cache,
            prefix=prefixes.get(index),
            prefix_table=prefix_table,
        )
        for _ in executor.run(limit=k):
            produced += 1
            if bound is not None:
                bound.add(ctssn.score)
    return produced


def chain_ctssn(engine: XKeyword, query: KeywordQuery, size: int):
    """The Author - Paper^k - Author citation-chain CTSSN of a given size.

    Figure 16's experiments focus on these networks ("the candidate
    network Author-Paper-...-Author").
    """
    containing = engine.containing_lists(query)
    for ctssn in engine.candidate_tss_networks(query, containing):
        labels = list(ctssn.network.labels)
        if ctssn.size != size:
            continue
        if labels.count("Author") == 2 and labels.count("Paper") == size - 1:
            if all(label in ("Author", "Paper") for label in labels):
                return ctssn, containing
    raise LookupError(f"no Author-Paper^{size - 1}-Author CTSSN for {query}")
