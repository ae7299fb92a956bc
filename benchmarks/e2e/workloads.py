"""Corpus and request sequences of the end-to-end benchmark.

Everything here is a pure function of ``(corpus, seed)``: the server
sees only the operations these generators emit.  The corpus is fixed
(synthetic DBLP at the ``BenchScale`` of ``benchmarks/common.py``); the
workload seed decides *which* keyword pairs, authors and papers the
operations name, never *how many* of each kind there are — the order of
reads and writes and the Zipf rank of every draw are drawn from a fixed
stream, so two seeds give different requests with the same shape and a
run's hit/miss and read/write mix is not a second source of noise.

Each client owns one sequence (``client`` of ``CLIENTS[workload]``): a
client's operations are sent strictly in order, so a ``PUT``/``DELETE``
always names a paper that the same client's earlier ``POST`` has created.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Iterator

from repro.workloads import DBLPConfig, generate_dblp
from repro.xmlgraph import serialize_graph

CLIENTS = {"cold_topk": 1, "deep_topk": 1, "hot_zipf": 2, "mixed_rw": 2}
"""Closed-loop clients per workload.  The two miss workloads run one:
with two, a request shares the interpreter lock with the other's
four-thread execution.  On ``cold_topk`` first-result latency then turns
bimodal (135 / 250 ms) and its median moves 30 % between identical runs,
against 3 % with one client; on ``deep_topk`` two busy requests lose
twice what one does whenever the shared host takes a core away (over
the same twelve minutes two clients ranged over 30 %, one over 16 %)."""

QUICK_ACK = {"cold_topk": True, "deep_topk": True, "hot_zipf": False, "mixed_rw": False}
"""Whether a workload's clients acknowledge reply segments at once
(``harness.Client``): the miss workloads do, so that no run draws the
40 ms delayed-ACK stall; ``hot_zipf`` exists to show that stall."""

WORKLOADS = tuple(CLIENTS)
"""``BENCHMARK.json`` declares the first three.  ``mixed_rw`` runs from
this harness only: its mix of 45 ms hits, 300 ms misses and 200 ms
writes on two clients spread 25–29 % between runs of one commit, past
any bound the declaration may carry, and a fourth workload does not fit
the time the declared runs have."""

CORPUS_CONFIG = DBLPConfig(papers=800, authors=250, avg_citations=12.0, seed=17)

COLD_K, COLD_MAX_SIZE = 10, 8
DEEP_K, DEEP_MAX_SIZE = 100, 6

VERIFY_QUERIES = 12
"""Golden-checked queries per read-only workload; they double as the
fixed warm-up, so the golden check runs at every seed."""

HOT_POOL = 16
"""Pairs ``hot_zipf`` draws from.  The warm-up requests each once, and a
cold request costs ~0.25 s, so the pool is sized to the warm-up budget;
it is far inside the 256-entry cache either way."""

MIXED_POOL = 64
ZIPF_EXPONENT = 1.1
WRITE_EVERY = 6
INSERT_PARENT = "c0y1"


@dataclass(frozen=True)
class Op:
    """One HTTP operation of a workload.

    ``kind`` is ``search`` (buffered), ``stream`` (SSE), ``insert``,
    ``replace`` or ``delete``.  Mutations carry the paper they touch
    (``doc``), and inserts/replaces the probe ``token`` in the new title
    plus one referenced author's last name (``author``) — the pair the
    final-state check searches for.
    """

    kind: str
    method: str
    path: str
    body: dict | None = None
    doc: str | None = None
    token: str | None = None
    author: str | None = None

    def wire(self) -> bytes:
        """The bytes that identify this operation on the wire."""
        body = "" if self.body is None else json.dumps(self.body, sort_keys=True)
        return f"{self.method} {self.path} {body}".encode()

    @property
    def query_key(self) -> str | None:
        """Golden-file key of a search (``None`` for mutations)."""
        if self.body is None or "keywords" not in self.body:
            return None
        return golden_key(self.body["keywords"], self.body["k"], self.body["max_size"])


def golden_key(keywords, k: int, max_size: int) -> str:
    return f"{' '.join(sorted(keywords))}|k={k}|z={max_size}"


def search_op(pair: tuple[str, str], k: int, max_size: int, stream: bool = False) -> Op:
    body = {"keywords": list(pair), "k": k, "max_size": max_size}
    if stream:
        body["stream"] = True
    return Op("stream" if stream else "search", "POST", "/search", body)


@dataclass(frozen=True)
class Corpus:
    """The served document plus the populations requests are drawn from."""

    xml: str
    coauthor_pairs: tuple[tuple[str, str], ...]
    """Distinct last-name pairs of two authors of one paper, sorted."""
    name_pairs: tuple[tuple[str, str], ...]
    """Every pair of distinct author last names, sorted."""
    authors: tuple[tuple[str, str], ...]
    """``(author id, last name)``, sorted by id."""
    papers: tuple[str, ...]
    pool: tuple[tuple[str, str], ...]
    """``MIXED_POOL`` co-author pairs in a fixed order: the first
    ``VERIFY_QUERIES`` are the ``cold_topk`` verify set, the first
    ``HOT_POOL`` the ``hot_zipf`` pool."""
    deep_verify: tuple[tuple[str, str], ...]
    """The ``deep_topk`` verify set, ``VERIFY_QUERIES`` name pairs."""


def build_corpus() -> Corpus:
    """Generate the fixed DBLP document and index its populations."""
    graph = generate_dblp(CORPUS_CONFIG)
    last_name = {}
    for node in graph.nodes():
        if node.label == "aname" and node.value:
            author = graph.containment_parent(node.node_id).node_id
            last_name[author] = node.value.split()[-1]
    coauthors = set()
    papers = []
    for node in graph.nodes():
        if node.label != "paper":
            continue
        papers.append(node.node_id)
        names = sorted(
            {
                last_name[edge.target]
                for edge in graph.out_edges(node.node_id)
                if edge.is_reference and edge.target in last_name
            }
        )
        coauthors.update(itertools.combinations(names, 2))
    coauthor_pairs = tuple(sorted(coauthors))
    name_pairs = tuple(itertools.combinations(sorted(set(last_name.values())), 2))
    fixed = random.Random("e2e-fixed-sets")
    return Corpus(
        xml=serialize_graph(graph),
        coauthor_pairs=coauthor_pairs,
        name_pairs=name_pairs,
        authors=tuple(sorted(last_name.items())),
        papers=tuple(sorted(papers)),
        pool=tuple(fixed.sample(coauthor_pairs, MIXED_POOL)),
        deep_verify=tuple(fixed.sample(name_pairs, VERIFY_QUERIES)),
    )


# ----------------------------------------------------------------------
# Sequences
# ----------------------------------------------------------------------
def _never_repeating(
    population, reserved, seed: int, client: int, label: str, make
) -> Iterator[Op]:
    """This client's slice of a seed-shuffled population, each pair once.

    Raises instead of wrapping around: a repeated pair would be a cache
    hit and silently turn a miss workload into a hit workload.
    """
    pairs = [pair for pair in population if pair not in reserved]
    random.Random(f"{label}:{seed}").shuffle(pairs)
    for pair in pairs[client::CLIENTS[label]]:
        yield make(pair)
    raise RuntimeError(f"{label}: all {len(pairs)} distinct pairs used; enlarge the pool")


def cold_topk(corpus: Corpus, seed: int, client: int) -> Iterator[Op]:
    """Distinct co-author pairs, top-10, every one a streamed cache miss."""
    return _never_repeating(
        corpus.coauthor_pairs,
        set(corpus.pool),
        seed,
        client,
        "cold_topk",
        lambda pair: search_op(pair, COLD_K, COLD_MAX_SIZE, stream=True),
    )


def deep_topk(corpus: Corpus, seed: int, client: int) -> Iterator[Op]:
    """Distinct random last-name pairs, top-100 over small networks."""
    return _never_repeating(
        corpus.name_pairs,
        set(corpus.deep_verify),
        seed,
        client,
        "deep_topk",
        lambda pair: search_op(pair, DEEP_K, DEEP_MAX_SIZE),
    )


def _zipf_ranks(size: int, client: int) -> Iterator[int]:
    """Zipf-distributed ranks in ``[0, size)`` from a seed-independent stream."""
    rng = random.Random(f"zipf-ranks:{size}:{client}")
    ranks = range(size)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in ranks]
    while True:
        yield from rng.choices(ranks, weights=weights, k=256)


def _ranked_pool(corpus: Corpus, size: int, seed: int) -> list[tuple[str, str]]:
    """The first ``size`` pool pairs, popularity rank assigned by ``seed``."""
    pairs = list(corpus.pool[:size])
    random.Random(f"zipf-popularity:{seed}").shuffle(pairs)
    return pairs


def hot_zipf(corpus: Corpus, seed: int, client: int) -> Iterator[Op]:
    """Zipf draws over the pre-filled pool: every request a cache hit."""
    pairs = _ranked_pool(corpus, HOT_POOL, seed)
    for rank in _zipf_ranks(HOT_POOL, client):
        yield search_op(pairs[rank], COLD_K, COLD_MAX_SIZE)


def mixed_rw(corpus: Corpus, seed: int, client: int) -> Iterator[Op]:
    """Zipf reads over a cold pool with every sixth operation a write.

    Writes are 50 % inserts of a ``<paper>`` under ``c0y1`` citing two
    existing authors and one paper, 30 % replacements and 20 % deletes
    of a paper this client inserted earlier (an insert when none is
    live).  Which kind comes when is fixed; the seed picks the cited
    authors and paper.
    """
    pairs = _ranked_pool(corpus, MIXED_POOL, seed)
    ranks = _zipf_ranks(MIXED_POOL, client)
    kinds = random.Random(f"write-kinds:{client}")
    cited = random.Random(f"mixed_rw:{seed}:{client}")
    live: list[str] = []
    serial = 0

    def paper(doc: str) -> tuple[str, str, str]:
        nonlocal serial
        token = f"benchprobe{client}x{serial}"
        serial += 1
        (first, name), (second, _) = cited.sample(corpus.authors, 2)
        xml = (
            f'<paper id="{doc}" ref="{first} {second} {cited.choice(corpus.papers)}">'
            f'<title id="{doc}t">{token} live update probe</title>'
            f'<pages id="{doc}g">1-9</pages></paper>'
        )
        return xml, token, name

    for position in itertools.count():
        if position % WRITE_EVERY != WRITE_EVERY - 1:
            yield search_op(pairs[next(ranks)], COLD_K, COLD_MAX_SIZE)
            continue
        draw = kinds.random()
        if draw < 0.5 or not live:
            doc = f"bp{client}x{serial}"
            xml, token, name = paper(doc)
            live.append(doc)
            yield Op(
                "insert", "POST", "/documents",
                {"xml": xml, "parent": INSERT_PARENT}, doc, token, name,
            )
        elif draw < 0.8:
            doc = live[kinds.randrange(len(live))]
            xml, token, name = paper(doc)
            yield Op("replace", "PUT", f"/documents/{doc}", {"xml": xml}, doc, token, name)
        else:
            doc = live.pop(kinds.randrange(len(live)))
            yield Op("delete", "DELETE", f"/documents/{doc}", None, doc)


GENERATORS = {
    "cold_topk": cold_topk,
    "deep_topk": deep_topk,
    "hot_zipf": hot_zipf,
    "mixed_rw": mixed_rw,
}


def operations(corpus: Corpus, workload: str, seed: int, client: int) -> Iterator[Op]:
    """The (endless) operation sequence of one client."""
    return GENERATORS[workload](corpus, seed, client)


def warmup(corpus: Corpus, workload: str) -> list[Op]:
    """The fixed, untimed, seed-independent requests that precede a window.

    On the read-only workloads these are the golden-checked verify set
    (``hot_zipf``: the whole pool, which also fills the cache);
    ``mixed_rw`` starts cold — its cache state is what it measures.
    """
    if workload == "cold_topk":
        return [
            search_op(pair, COLD_K, COLD_MAX_SIZE, stream=True)
            for pair in corpus.pool[:VERIFY_QUERIES]
        ]
    if workload == "deep_topk":
        return [search_op(pair, DEEP_K, DEEP_MAX_SIZE) for pair in corpus.deep_verify]
    if workload == "hot_zipf":
        return [search_op(pair, COLD_K, COLD_MAX_SIZE) for pair in corpus.pool[:HOT_POOL]]
    return []


def golden_queries(corpus: Corpus) -> list[Op]:
    """Every query the golden file holds an oracle answer for."""
    return warmup(corpus, "hot_zipf") + warmup(corpus, "deep_topk")


def final_state(sent: list[Op]) -> tuple[dict[str, Op], dict[str, Op]]:
    """Fold the mutations a client sent into ``(live, gone)``.

    ``live`` maps each still-present benchmark paper to the insert or
    replace that wrote its current title; ``gone`` maps every probe
    token that must no longer be found (deleted papers, replaced
    titles) to the operation that introduced it.
    """
    live: dict[str, Op] = {}
    gone: dict[str, Op] = {}
    for op in sent:
        if op.kind in ("replace", "delete") and op.doc in live:
            old = live.pop(op.doc)
            gone[old.token] = old
        if op.kind in ("insert", "replace"):
            live[op.doc] = op
    return live, gone


def self_test(corpus: Corpus | None = None, count: int = 500) -> None:
    """Same seed → byte-identical first ``count`` operations; another
    seed → a different sequence."""
    corpus = corpus or build_corpus()
    for workload in WORKLOADS:

        def head(seed: int) -> list[bytes]:
            return [
                op.wire()
                for client in range(CLIENTS[workload])
                for op in itertools.islice(
                    operations(corpus, workload, seed, client), count // CLIENTS[workload]
                )
            ]

        if head(1) != head(1):
            raise AssertionError(f"{workload}: seed 1 is not reproducible")
        if head(1) == head(2):
            raise AssertionError(f"{workload}: seeds 1 and 2 give the same sequence")


if __name__ == "__main__":
    self_test()
    print("workloads self-test ok")
