"""The traced pass: load the corpus in this process and replay a
workload's first searches one layer at a time.

Spans are recorded here, around each call into a layer's public
function — nothing under ``src/`` is instrumented.  Per request the
engine runs once whole (``core.engine.search``, the parent) and once in
stages (matching → CN generation → CTSSN reduction → planning →
execution); the stages' sum is checked against the parent and the
remainder reported, not hidden.  Then the same request goes through
``QueryService.search`` as a miss and as a hit, and the payload through
``json.dumps``.  Single-threaded throughout, so a layer's time is its
own and not its neighbour's wait for the interpreter lock.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from measure import (
    Span,
    mean,
    mean_ms_per_request,
    metric,
    ratio,
    self_times,
    staged_account,
)
from repro.core import (
    CTSSNExecutor,
    ExecutionMetrics,
    ExecutorConfig,
    KeywordQuery,
    ResultCache,
    SharedPrefixTable,
    TopKBound,
    XKeyword,
    assign_shared_prefixes,
    materialize,
    reduce_to_ctssn,
)
from repro.decomposition import xkeyword_decomposition
from repro.schema import get_catalog
from repro.service import QueryService, ServiceConfig
from repro.storage import LoadedDatabase, load_database
from repro.updates import UpdateManager
from repro.workloads import generate_dblp
from repro.xmlgraph import ParseOptions, parse_xml
from workloads import CLIENTS, CORPUS_CONFIG, Corpus, Op, operations

STAGES = (
    "core.matching",
    "core.cn_generator",
    "core.ctssn",
    "core.optimizer",
    "core.execution",
)
STAGED_SHARE_TOLERANCE = 0.15
MIN_REQUESTS = 3
MAX_REQUESTS = 40
PROBE_MUTATIONS = 10
PROBE_CLIENT = CLIENTS["mixed_rw"]
"""The mutation probe takes the ``mixed_rw`` sequence of a client index
no load client uses, so its paper ids never collide with theirs."""


@dataclass
class Recorder:
    """In-memory spans: name, start, end, parent, request id."""

    spans: list[Span] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, request: int, parent: Span | None = None) -> Iterator[Span]:
        span = Span(
            len(self.spans), name, request,
            None if parent is None else parent.ident, time.perf_counter(),
        )
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()

    def dump(self) -> list[dict]:
        """Every span with its self time, for ``--out``."""
        own = self_times(self.spans)
        return [dict(vars(span), self_time=own[span.ident]) for span in self.spans]


def timed(function, *args, **kwargs):
    started = time.perf_counter()
    value = function(*args, **kwargs)
    return value, time.perf_counter() - started


def load_in_process(corpus: Corpus) -> tuple[LoadedDatabase, dict]:
    """The server's load stage, step by step, with each step's seconds."""
    catalog = get_catalog("dblp")
    _, generate_s = timed(generate_dblp, CORPUS_CONFIG)
    graph, parse_s = timed(parse_xml, corpus.xml, ParseOptions(drop_root=True))
    decomposition, decomposition_s = timed(xkeyword_decomposition, catalog.tss, 4, 1)
    loaded, load_s = timed(load_database, graph, catalog, [decomposition])
    report = loaded.report
    return loaded, {
        "workloads.generate_s": metric(generate_s, "s"),
        "xmlgraph.parser.parse_s": metric(parse_s, "s"),
        "decomposition.xkeyword_s": metric(decomposition_s, "s"),
        "storage.decomposer.load_s": metric(load_s, "s"),
        "storage.target_objects.build_s": metric(report.seconds["target_objects"], "s"),
        "storage.master_index.load_s": metric(report.seconds["master_index"], "s"),
        "storage.blobs.load_s": metric(report.seconds["blobs"], "s"),
        "storage.relations.load_s": metric(
            report.seconds[f"relations:{decomposition.name}"], "s"
        ),
        "storage.relations.rows": metric(
            report.total_relation_rows(decomposition.name), "count"
        ),
        "storage.master_index.entries": metric(report.index_entries, "count"),
    }


def execute_plans(engine: XKeyword, containing, plans, k: int) -> int:
    """Run planned CTSSNs in score order under ``shared-prefix+pruning``.

    A copy of ``benchmarks/common.py::execute_prepared`` (python
    backend), kept here so the benchmark's ``paths`` stay one directory;
    it also materializes each row, as the engine's execution stage does.
    """
    config = ExecutorConfig(backend="python", strategy="shared-prefix+pruning")
    lookup_cache = ResultCache()
    prefixes = assign_shared_prefixes([plan for _, plan in plans])
    prefix_table = SharedPrefixTable() if prefixes else None
    bound = TopKBound(k)
    produced = 0
    for index, (ctssn, plan) in enumerate(plans):
        if not bound.admits(ctssn.score):
            continue
        executor = CTSSNExecutor(
            plan, engine.stores, containing,
            config=config, lookup_cache=lookup_cache,
            prefix=prefixes.get(index), prefix_table=prefix_table,
        )
        for row in executor.run(limit=k):
            materialize(ctssn, row, engine.loaded.to_graph)
            produced += 1
            bound.add(ctssn.score)
    return produced


def distinct_searches(corpus: Corpus, workload: str, seed: int) -> Iterator[Op]:
    """The workload's searches, clients interleaved, repeats skipped: a
    repeat would be a cache hit where the replay times a miss."""
    seen = set()
    sequences = [
        operations(corpus, workload, seed, client) for client in range(CLIENTS[workload])
    ]
    while True:
        for sequence in sequences:
            op = next(sequence)
            if op.query_key is not None and op.query_key not in seen:
                seen.add(op.query_key)
                yield op


def replay(
    loaded: LoadedDatabase, corpus: Corpus, workload: str, seed: int, seconds: float
) -> tuple[dict, Recorder]:
    """Replay distinct searches for ``seconds`` (3 to 40 requests)."""
    recorder = Recorder()
    engine = XKeyword(loaded, executor_config=ExecutorConfig(backend="python"))
    service = QueryService(loaded, ServiceConfig(tracing=False))
    traced_service = QueryService(loaded, ServiceConfig(tracing=True))
    tss = loaded.catalog.tss
    totals = ExecutionMetrics()
    counts = {"target_objects": 0, "networks": 0, "plans": 0, "results": 0, "bytes": 0}
    first_results: list[float] = []
    deadline = time.perf_counter() + seconds
    requests = 0
    try:
        for request, op in enumerate(distinct_searches(corpus, workload, seed)):
            if request >= MAX_REQUESTS or (
                request >= MIN_REQUESTS and time.perf_counter() >= deadline
            ):
                break
            requests += 1
            keywords, k = op.body["keywords"], op.body["k"]
            query = KeywordQuery(tuple(keywords), max_size=op.body["max_size"])

            with recorder.span("core.engine.search", request):
                result = engine.search(query, k=k, parallel=False)
            totals.merge(result.metrics)
            counts["results"] += len(result.mttons)

            with recorder.span("staged", request) as staged:
                with recorder.span("core.matching", request, staged):
                    containing = engine.containing_lists(query)
                with recorder.span("core.cn_generator", request, staged):
                    networks = engine.candidate_networks(query, containing)
                with recorder.span("core.ctssn", request, staged):
                    ctssns = [reduce_to_ctssn(network, tss) for network in networks]
                ctssns.sort(key=lambda c: (c.score, c.canonical_key))
                with recorder.span("core.optimizer", request, staged):
                    plans = [(ctssn, engine.plan(ctssn, containing)) for ctssn in ctssns]
                with recorder.span("core.execution", request, staged):
                    execute_plans(engine, containing, plans, k)
            counts["target_objects"] += sum(
                len(tos) for tos in containing.keyword_tos.values()
            )
            counts["networks"] += len(networks)
            counts["plans"] += len(plans)

            stream = engine.search_streaming(query, k=k, parallel=False)
            stream.result(timeout=60.0)
            if stream.first_result_seconds is not None:
                first_results.append(stream.first_result_seconds * 1000.0)

            search = dict(keywords=keywords, k=k, max_size=op.body["max_size"])
            # Whichever service runs second finds warmer caches below it,
            # so the order alternates and the bias cancels in the means.
            order = [
                ("service.search_miss", service),
                ("service.search_miss.traced", traced_service),
            ]
            if request % 2:
                order.reverse()
            answers = {}
            for name, target in order:
                with recorder.span(name, request):
                    answers[name] = target.search(**search)
            payload = answers["service.search_miss"]
            with recorder.span("service.cache.hit", request):
                replayed = service.search(**search)
            if payload["cached"] or not replayed["cached"]:
                raise AssertionError(f"{keywords}: expected a miss then a hit")
            with recorder.span("service.serialize", request):
                body = json.dumps(payload)
            counts["bytes"] += len(body)
    finally:
        service.close()
        traced_service.close()

    spans = recorder.spans
    account = staged_account(spans, "core.engine.search", STAGES)
    # Reported, not fatal: a few requests with a collector pause on one
    # side move the share, and an engine change may legitimately make
    # the whole search cheaper than its separately callable stages.
    if abs(account["share"] - 1.0) > STAGED_SHARE_TOLERANCE:
        print(
            f"warning: staged stages sum to {account['share']:.2f} of "
            f"core.engine.search ({account['staged_ms']:.1f} of "
            f"{account['parent_ms']:.1f} ms); the remainder is reported as "
            "core.engine.unattributed_ms",
            file=sys.stderr,
        )
    miss_ms = mean_ms_per_request(spans, "service.search_miss")
    lookups = totals.cache_hits + totals.cache_misses

    def per_request(total: float, unit: str) -> dict:
        return metric(total / requests, unit, requests)

    def span_ms(name: str) -> dict:
        return metric(mean_ms_per_request(spans, name), "ms", requests)

    metrics = {f"{stage}.ms": span_ms(stage) for stage in STAGES}
    metrics.update({
        "core.matching.target_objects": per_request(counts["target_objects"], "count"),
        "core.cn_generator.networks": per_request(counts["networks"], "count"),
        "core.optimizer.plans": per_request(counts["plans"], "count"),
        "core.execution.queries_sent": per_request(totals.queries_sent, "count"),
        "core.execution.rows_fetched": per_request(totals.rows_fetched, "count"),
        "core.execution.rows_per_result": metric(
            ratio(totals.rows_fetched, counts["results"]), "ratio", requests
        ),
        "core.execution.lookup_hit_rate": metric(
            ratio(totals.cache_hits, lookups), "ratio", requests
        ),
        "core.execution.cns_pruned_share": metric(
            ratio(totals.cns_pruned, counts["plans"]), "ratio", requests
        ),
        "core.engine.search_ms": metric(account["parent_ms"], "ms", requests),
        "core.engine.unattributed_ms": metric(account["unattributed_ms"], "ms", requests),
        "core.engine.staged_share": metric(account["share"], "ratio", requests),
        "core.streaming.first_result_ms": metric(
            mean(first_results) or 0.0, "ms", len(first_results)
        ),
        "service.search_miss_ms": metric(miss_ms, "ms", requests),
        "service.overhead_ms": metric(miss_ms - account["parent_ms"], "ms", requests),
        "service.cache.hit_ms": span_ms("service.cache.hit"),
        "service.serialize.ms": span_ms("service.serialize"),
        "service.serialize.bytes": per_request(counts["bytes"], "count"),
        "trace.overhead_pct": metric(
            100.0 * (mean_ms_per_request(spans, "service.search_miss.traced") / miss_ms - 1.0),
            "%", requests,
        ),
    })
    return metrics, recorder


def probe_mutations(corpus: Corpus, seed: int) -> list[Op]:
    """The first mutations of a spare client's ``mixed_rw`` sequence."""
    writes = (
        op for op in operations(corpus, "mixed_rw", seed, PROBE_CLIENT)
        if op.query_key is None
    )
    return [next(writes) for _ in range(PROBE_MUTATIONS)]


def replay_mutations(loaded: LoadedDatabase, corpus: Corpus, seed: int) -> dict:
    """``UpdateManager`` insert / replace / delete, in process, one at a time."""
    manager = UpdateManager(loaded)
    seconds: dict[str, list[float]] = {"insert": [], "replace": [], "delete": []}
    index_entries = 0
    for op in probe_mutations(corpus, seed):
        if op.kind == "insert":
            call = (manager.insert_document, op.body["xml"], op.body["parent"])
        elif op.kind == "replace":
            call = (manager.update_document, op.doc, op.body["xml"])
        else:
            call = (manager.delete_document, op.doc)
        report, elapsed = timed(*call)
        seconds[op.kind].append(elapsed * 1000.0)
        index_entries += report.index_entries_added + report.index_entries_removed
    return {
        **{
            f"updates.manager.{kind}_ms": metric(mean(times), "ms", len(times))
            for kind, times in seconds.items()
        },
        "updates.manager.index_entries_per_op": metric(
            index_entries / PROBE_MUTATIONS, "count", PROBE_MUTATIONS
        ),
    }
