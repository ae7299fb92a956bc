"""The XKeyword query service: one loaded database behind one request path.

The paper frames XKeyword as a web-search-style system (Section 3.2
outputs MTTONs "as they come", "page by page as in web search engine
interfaces"), so the streamed answer is the primitive here and the
buffered top-k reply is that stream drained.  Every search —
:meth:`QueryService.search` and :meth:`QueryService.search_stream`
alike — opens one :class:`_SearchSession` through
:meth:`QueryService._open`: cache probe, single-flight join, and the
one admission submit.  A cache hit is a session over an
already-completed :class:`~repro.core.ResultStream`; the buffered reply
is :meth:`_SearchSession.result` and the incremental one
:meth:`_SearchSession.events`.  The HTTP/SSE transport lives in
:mod:`repro.service.server` and only calls the public methods here.

Mutations go through the :class:`~repro.updates.UpdateManager`:
incremental maintenance of every storage artifact under single-writer /
multi-reader discipline (searches hold the read side, so they never see
a torn index).  Each mutation advances the database's epoch, and a cached
answer is served only under the epoch it was computed at, so the cache
is emptied after every write.  The served database is built in memory
when the service starts, so mutations last for the process's lifetime.

Every computed (non-cached) search answer carries the trace id of the
span tree that produced it; cached answers return the id of the trace
that originally computed the entry.  Searches slower than
``ServiceConfig.slow_query_seconds`` are logged to stderr with their
trace id, so "why was that slow?" is one ``GET /debug/trace/<id>`` away.

Four service concerns wrap the engine (each in its own module):
:class:`~repro.service.cache.QueryCache` serves repeated queries without
touching the pipeline, :class:`~repro.service.admission.AdmissionController`
bounds concurrency and sheds overload with 503 + ``Retry-After``,
:class:`~repro.service.singleflight.SingleFlight` coalesces concurrent
identical requests onto one execution whose
:class:`~repro.core.ResultStream` feeds every waiter, and
:class:`~repro.service.metrics.MetricsRegistry` meters everything: each
finished search from the :class:`~repro.core.ExecutionMetrics` its result
carries, and the cache and admission counts at scrape time from their
own ``stats()``.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from ..analysis.plans import DebugVerifier
from ..core import (
    ExecutionMetrics,
    KeywordQuery,
    ResultStream,
    SearchResult,
    XKeyword,
    open_navigator,
)
from ..storage import LoadedDatabase
from ..trace import NULL_TRACER, TraceStore, Tracer
from ..updates import UpdateManager
from .admission import AdmissionController, DeadlineExceededError, RejectedError
from .cache import QueryCache, query_cache_key
from .metrics import STAGE_BUCKETS, MetricsRegistry
from .singleflight import Flight, SingleFlight


DEFAULT_K = 10
"""Answers per top-k search whose request names no ``k``."""

TRACE_BUFFER = 128
"""Traces retained in the in-memory ring buffer (oldest evicted)."""


@dataclass
class ServiceConfig:
    """Service-level knobs (transport, pooling, caching).

    There is no execution-backend knob: the served engine runs
    :class:`~repro.core.ExecutorConfig`'s default (``sql``, the paper's
    one statement per candidate network), which won every served cell
    measured in OPERATIONS.md section 2.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 4
    queue_size: int = 16
    deadline: float | None = 30.0
    cache_capacity: int = 256
    cache_ttl: float | None = 300.0
    debug_verify: bool = False
    """Verify CN/CTSSN/plan invariants on every query (RV301-RV311).

    Diagnostic mode: it adds per-query overhead (see
    ``benchmarks/bench_analysis_overhead.py``), so serving defaults off.
    """

    tracing: bool = True
    """Record a span tree per search and serve it via ``/debug/trace``.

    Cheap enough to default on for a serving process (see e2e's
    ``trace.overhead_pct``); set ``False`` to run the null tracer.
    """

    slow_query_seconds: float | None = 1.0
    """Log searches slower than this to stderr, with their trace id;
    ``None`` disables the slow-query log."""


class _EngineInstrumentation:
    """Meters each finished search from the metrics its result carries."""

    def __init__(self, registry: MetricsRegistry) -> None:
        """
        Args:
            registry: The service's metrics registry; every instrument
                this instrumentation feeds is created here.
        """
        self._searches = registry.counter(
            "repro_engine_searches_total", "Keyword searches executed by the engine"
        )
        self._latency = registry.histogram(
            "repro_engine_search_seconds", "Engine-side search latency"
        )
        self._results = registry.counter(
            "repro_engine_results_total", "MTTONs returned by the engine"
        )
        self._lookups = {
            cached: registry.counter(
                "repro_engine_lookups_total",
                "Focused relation lookups, by partial-result cache outcome",
                cached="true" if cached else "false",
            )
            for cached in (True, False)
        }
        self._stage_seconds = lambda stage: registry.histogram(
            "repro_stage_seconds",
            "Engine wall-clock per pipeline stage",
            buckets=STAGE_BUCKETS,
            stage=stage,
        )
        self._cns_pruned = registry.counter(
            "repro_cns_pruned_total",
            "Candidate networks skipped by the global top-k bound",
        )

    def record(self, result: SearchResult, seconds: float) -> None:
        """Record one finished search: its lookups (the counts the reply's
        ``engine_metrics`` reports), results, pruning and stage timings."""
        metrics = result.metrics
        self._searches.inc()
        self._latency.observe(seconds)
        self._results.inc(len(result.mttons))
        self._lookups[False].inc(metrics.queries_sent)
        self._lookups[True].inc(metrics.cache_hits)
        self._cns_pruned.inc(metrics.cns_pruned)
        for stage, stage_seconds in metrics.stage_seconds.items():
            self._stage_seconds(stage).observe(stage_seconds)


@dataclass(frozen=True)
class _Answer:
    """What a ``/search`` reply reads of a finished search.

    The cache retains these, not the :class:`~repro.core.SearchResult`:
    a result's ``candidate_networks``, ``ctssns`` and span tree pin the
    query's whole front-half working set (~0.8 MB for a cold ``Z=8``
    query) to be read back as one count and one id.
    """

    query: KeywordQuery
    mttons: list
    metrics: ExecutionMetrics
    page_count: int
    candidate_networks: int
    trace_id: str | None
    epoch: int

    @classmethod
    def of(cls, result: "SearchResult | _Answer") -> "_Answer":
        """``result`` itself when it is a cached answer, else its summary."""
        if isinstance(result, cls):
            return result
        return cls(
            result.query,
            result.mttons,
            result.metrics,
            result.page_count(),
            len(result.candidate_networks),
            result.trace.trace_id if result.trace is not None else None,
            result.epoch,
        )


@dataclass(frozen=True)
class _PreparedSearch:
    """A validated search request.

    Shared by the buffered and streaming entry points so both coalesce
    on the same single-flight key.
    """

    query: KeywordQuery
    k: int | None
    """Ranked-result cutoff; ``None`` means every result."""
    key: tuple
    epoch: int
    """The database's mutation epoch at admission.  The cache serves
    only an answer computed under it, and the request joins only a
    flight admitted under it."""


class QueryService:
    """One loaded database behind caching, admission control and metrics.

    The service owns the engine for the life of the process.  The served
    data changes one way — through the :class:`~repro.updates.UpdateManager`
    — and the only state that outlives a query is the cross-query cache,
    whose entries are valid only under the mutation epoch they were
    computed at.
    """

    def __init__(
        self,
        loaded: LoadedDatabase,
        config: ServiceConfig | None = None,
        registry: MetricsRegistry | None = None,
        engine=None,
    ) -> None:
        """
        Args:
            loaded: The database to serve.
            config: Service knobs; defaults are laptop-friendly.
            registry: Metrics registry; a private one by default.
            engine: The engine to serve instead of an :class:`XKeyword`
                over ``loaded``; tests pass slow or fake engines.  It
                needs ``search(query, k=..., stream=...)``, which may
                publish to ``stream`` but must not terminate it.
        """
        self.config = config or ServiceConfig()
        self.registry = registry or MetricsRegistry()
        self._instrumentation = _EngineInstrumentation(self.registry)
        self.tracer = (
            Tracer(TraceStore(TRACE_BUFFER))
            if self.config.tracing
            else NULL_TRACER
        )
        self.loaded = loaded
        self.fingerprint = loaded.fingerprint()
        """Load-time identity of the served database (``/healthz``, the
        ``serve`` banner); live mutations do not change it."""
        self.updates = UpdateManager(loaded, tracer=self.tracer)
        """Live-update manager: the one way the served data changes."""
        self.engine = engine or XKeyword(
            loaded,
            verifier=DebugVerifier() if self.config.debug_verify else None,
            tracer=self.tracer,
        )
        self.cache = QueryCache(
            capacity=self.config.cache_capacity,
            ttl=self.config.cache_ttl,
        )
        self.admission = AdmissionController(
            workers=self.config.workers,
            queue_size=self.config.queue_size,
            default_deadline=self.config.deadline,
        )
        self.started_at = time.time()
        self._requests = lambda endpoint, status: self.registry.counter(
            "repro_requests_total",
            "HTTP requests by endpoint and outcome",
            endpoint=endpoint,
            status=str(status),
        )
        self._request_seconds = lambda endpoint: self.registry.histogram(
            "repro_request_seconds", "End-to-end request latency", endpoint=endpoint
        )
        self._deadline_exceeded = self.registry.counter(
            "repro_deadline_exceeded_total", "Requests that missed their deadline"
        )
        self._slow_queries = self.registry.counter(
            "repro_slow_queries_total",
            "Searches slower than the slow-query threshold",
        )
        self.singleflight = SingleFlight()
        self._singleflight_hits = self.registry.counter(
            "repro_singleflight_hits_total",
            "Requests coalesced onto an in-flight identical execution",
        )
        self._singleflight_flights = self.registry.counter(
            "repro_singleflight_flights_total",
            "Executions started as single-flight leaders",
        )
        self._stream_requests = self.registry.counter(
            "repro_stream_requests_total",
            "Searches delivered incrementally (SSE / chunked JSON)",
        )
        self._mutations = lambda op: self.registry.counter(
            "repro_mutations_total", "Live document mutations by operation", op=op
        )
        self._mutation_seconds = lambda op: self.registry.histogram(
            "repro_mutation_seconds", "Mutation latency by operation", op=op
        )

    def _read(self):
        """The read side of the update lock: a concurrent mutation waits
        for in-flight readers, and readers queued behind a waiting writer
        see the fully published next epoch."""
        return self.updates.read()

    # ------------------------------------------------------------------
    def search(
        self,
        keywords: list[str],
        k: int | None = None,
        max_size: int = 8,
        all_results: bool = False,
        deadline: float | None = None,
    ) -> dict:
        """Run (or replay) one keyword search; returns the JSON payload.

        Cache hits are answered inline — they cost a dictionary probe, so
        they bypass admission control entirely and stay fast even when
        the worker pool is saturated.
        """
        prep = self._prepare_search(keywords, k, max_size, all_results)
        return self._open(prep, deadline).result()

    def _prepare_search(
        self,
        keywords: list[str],
        k: int | None,
        max_size: int,
        all_results: bool,
    ) -> "_PreparedSearch":
        """Validate a request, compute its cache key and read the epoch
        it is admitted at."""
        query = KeywordQuery(tuple(keywords), max_size=max_size)
        k = None if all_results else (k if k is not None else DEFAULT_K)
        return _PreparedSearch(
            query=query,
            k=k,
            key=query_cache_key(query, k),
            epoch=self.loaded.epoch,
        )

    def _open(self, prep: "_PreparedSearch", deadline: float | None) -> "_SearchSession":
        """Open the one session every search is served through.

        Cache probe, then single-flight join, then — for a leader only —
        the single admission submit.  A cache hit is a session over an
        already-completed stream: no admission, no thread hand-off.  Both
        the probe and the join are by admission epoch: a request admitted
        after a write finished never gets an answer, cached or in flight,
        that was computed or admitted before the write.

        Raises:
            RejectedError: Admission shed the execution (queue full or
                shutting down) — raised here, before the caller has a
                session, so HTTP can still answer 503.
        """
        started = time.perf_counter()
        cached = self.cache.get(prep.key, prep.epoch)
        if cached is not None:
            stream = ResultStream()
            stream.complete(cached)
            return _SearchSession(self, prep, stream, None, started, deadline)
        flight, joined = self.singleflight.join((prep.key, prep.epoch))
        session = _SearchSession(
            self, prep, flight.stream, flight, started, deadline, shared=joined
        )
        if joined:
            self._singleflight_hits.inc()
            return session
        self._singleflight_flights.inc()

        def abort(error: BaseException) -> None:
            # The execution will never run (shed, shutting down, or
            # expired while queued): nobody else terminates the stream
            # or retires the flight, so waiters must fail here.
            flight.stream.fail(error)
            self.singleflight.finish(flight)

        try:
            self.admission.submit(
                self._flight_runner(flight, prep), deadline=deadline, on_expired=abort
            )
        except RejectedError as exc:
            abort(exc)
            session.close()
            raise
        return session

    def _flight_runner(self, flight: Flight, prep: "_PreparedSearch"):
        """The worker-side execution of one flight.

        Returns a zero-argument callable that runs the engine, which
        publishes to the flight's stream as results become final.  The
        runner owns the stream: it meters the result, caches it under the
        epoch it was computed at, and only then completes the stream — so
        no waiter wakes before the cache and ``/metrics`` hold the
        answer.  Every exit terminates the stream and retires the flight.
        """
        engine, query = self.engine, prep.query

        def runner() -> SearchResult:
            try:
                with self._read():
                    started = time.perf_counter()
                    result = engine.search(query, k=prep.k, stream=flight.stream)
                    seconds = time.perf_counter() - started
                self._instrumentation.record(result, seconds)
                if not flight.stream.cancelled:
                    self.cache.put(prep.key, _Answer.of(result), result.epoch)
                flight.stream.complete(result)
                return result
            except BaseException as exc:
                flight.stream.fail(exc)
                raise
            finally:
                self.singleflight.finish(flight)

        return runner

    def search_stream(
        self,
        keywords: list[str],
        k: int | None = None,
        max_size: int = 8,
        all_results: bool = False,
        deadline: float | None = None,
    ) -> "_SearchSession":
        """Start (or join, or replay) a search for incremental delivery.

        Returns a :class:`_SearchSession` whose :meth:`~_SearchSession.events`
        generator yields ``("result", payload)`` per ranked result the
        moment the scheduler finalizes it, then one ``("done", summary)``.
        Cache hits replay instantly; concurrent identical requests share
        one execution (single-flight) and each receive the full stream.
        The caller must exhaust the generator or call
        :meth:`~_SearchSession.close` — a departing consumer must not
        strand the shared flight's waiter count.

        Raises:
            RejectedError: Admission shed the execution (queue full) —
                raised here, before any response bytes, so HTTP can
                still answer 503.
        """
        prep = self._prepare_search(keywords, k, max_size, all_results)
        self._stream_requests.inc()
        return self._open(prep, deadline)

    def _log_if_slow(self, result: SearchResult, seconds: float) -> None:
        """Count and stderr-log a search that crossed the slow threshold."""
        threshold = self.config.slow_query_seconds
        if threshold is None or seconds < threshold:
            return
        self._slow_queries.inc()
        trace = result.trace
        print(
            f"[slow-query] {seconds * 1000.0:.1f} ms "
            f"keywords={' '.join(result.query.keywords)!r} "
            f"trace={trace.trace_id if trace is not None else '-'}",
            file=sys.stderr,
        )

    @staticmethod
    def _mtton_payload(rank: int, mtton) -> dict:
        labels = mtton.ctssn.network.labels
        return {
            "rank": rank,
            "score": mtton.score,
            "network": mtton.ctssn.canonical_key,
            "nodes": [
                {
                    "role": role,
                    "label": labels[role],
                    "target_object": to,
                    "keywords": sorted(mtton.ctssn.keywords_of_role(role)),
                }
                for role, to in mtton.assignment
            ],
            "edges": [
                {
                    "source": edge.source_to,
                    "target": edge.target_to,
                    "label": edge.forward_label or edge.edge_id,
                }
                for edge in mtton.edges
            ],
        }

    # ------------------------------------------------------------------
    def expand(
        self,
        keywords: list[str],
        cn: int = -1,
        role: int | None = None,
        max_size: int = 8,
        deadline: float | None = None,
    ) -> dict:
        """Initialize (and optionally expand) a presentation graph.

        Args:
            keywords: The keyword query.
            cn: Candidate-network index in score order; -1 picks the
                first network that has results.
            role: CTSSN role to expand after initialization, if any.
            deadline: Per-request deadline override.
        """

        def execute() -> dict:
            with self._read():
                return navigate()

        def navigate() -> dict:
            query = KeywordQuery(tuple(keywords), max_size=max_size)
            engine = self.engine
            containing = engine.containing_lists(query)
            ctssns = engine.candidate_tss_networks(query, containing)
            if not ctssns:
                raise LookupError("no candidate networks for this query")
            if cn >= len(ctssns):
                raise LookupError(
                    f"candidate network {cn} out of range "
                    f"({len(ctssns)} networks)"
                )
            navigator = open_navigator(
                ctssns, engine.optimizer, engine.stores, containing, cn
            )
            if navigator is None:
                raise LookupError("no candidate network has results")
            newly = []
            if role is not None:
                newly = sorted(navigator.expand(role))
            labels = navigator.ctssn.network.labels
            return {
                "query": {"keywords": list(query.keywords), "max_size": query.max_size},
                "network": navigator.ctssn.canonical_key,
                "score": navigator.ctssn.score,
                "roles": [
                    {"role": index, "label": label}
                    for index, label in enumerate(labels)
                ],
                "displayed": [
                    {"role": r, "label": labels[r], "target_object": to}
                    for r, to in sorted(navigator.graph.displayed)
                ],
                "newly_displayed": [
                    {"role": r, "label": labels[r], "target_object": to}
                    for r, to in newly
                ],
                "metrics": {
                    "queries_sent": navigator.metrics.queries_sent,
                    "rows_fetched": navigator.metrics.rows_fetched,
                },
            }

        return self.admission.run(execute, deadline=deadline)

    # ------------------------------------------------------------------
    # Live mutations
    # ------------------------------------------------------------------
    def insert_document(self, xml_text: str, parent_id: str | None = None) -> dict:
        """``POST /documents``: insert a document (under ``parent_id``)."""
        return self._mutate(
            "insert",
            lambda updates: updates.insert_document(xml_text, parent_id=parent_id),
        )

    def delete_document(self, document_id: str) -> dict:
        """``DELETE /documents/<id>``: remove a document's subtree."""
        return self._mutate(
            "delete", lambda updates: updates.delete_document(document_id)
        )

    def update_document(self, document_id: str, xml_text: str) -> dict:
        """``PUT /documents/<id>``: replace a document in place."""
        return self._mutate(
            "update", lambda updates: updates.update_document(document_id, xml_text)
        )

    def _mutate(self, op: str, action) -> dict:
        """Run one mutation, meter it, and empty the cache its new epoch
        made unservable.

        Mutations bypass the admission pool: the update manager's
        writer-preferring lock already serializes them against each
        other and against in-flight searches.
        """
        started = time.perf_counter()
        report = action(self.updates)
        self._mutations(op).inc()
        self._mutation_seconds(op).observe(time.perf_counter() - started)
        payload = report.to_dict()
        payload["cache_entries_dropped"] = self.cache.clear()
        return payload

    # ------------------------------------------------------------------
    def trace_payload(self, trace_id: str) -> dict:
        """One stored span tree as JSON (``GET /debug/trace/<id>``).

        Raises:
            LookupError: Tracing is disabled, or the id is unknown /
                already evicted from the ring buffer.
        """
        store = self.tracer.store
        if store is None:
            raise LookupError("tracing is disabled on this service")
        trace = store.get(trace_id)
        if trace is None:
            raise LookupError(f"no trace {trace_id!r} (unknown or evicted)")
        return trace.to_dict()

    def traces_payload(self, limit: int = 20) -> dict:
        """Summaries of the most recent traces (``GET /debug/traces``)."""
        store = self.tracer.store
        if store is None:
            raise LookupError("tracing is disabled on this service")
        return {"traces": [trace.summary() for trace in store.recent(limit)]}

    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """Liveness payload: database identity, index epoch, queue stats."""
        snapshot = self.updates.snapshot()
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "database_fingerprint": self.fingerprint,
            "catalog": self.loaded.catalog.name,
            "stores": sorted(self.loaded.stores),
            "queue_depth": self.admission.queue_depth(),
            "in_flight": self.admission.in_flight,
            "cache_entries": len(self.cache),
            "index_epoch": snapshot.epoch,
            "document_count": snapshot.document_count,
            "last_mutation_at": snapshot.last_mutation_at,
        }

    def metrics_text(self) -> str:
        """Render the registry, first refreshing what the cache and the
        admission controller count themselves."""
        admission = self.admission.stats()
        cache = self.cache.stats()
        self.registry.counter(
            "repro_query_cache_hits_total", "Cross-query cache hits"
        ).advance_to(cache.hits)
        self.registry.counter(
            "repro_query_cache_misses_total", "Cross-query cache misses"
        ).advance_to(cache.misses)
        self.registry.counter(
            "repro_query_cache_expirations_total",
            "Cross-query cache entries dropped on a get past their TTL",
        ).advance_to(cache.expirations)
        self.registry.counter(
            "repro_query_cache_evictions_total",
            "Cross-query cache entries evicted past capacity",
        ).advance_to(cache.evictions)
        self.registry.counter(
            "repro_cache_invalidations_total",
            "Cross-query cache entries dropped because a write moved the epoch",
        ).advance_to(cache.invalidations)
        self.registry.counter(
            "repro_shed_total", "Requests shed because the queue was full"
        ).advance_to(admission.shed)
        self.registry.counter(
            "repro_admission_expired_total", "Requests expired while queued"
        ).advance_to(admission.expired)
        self.registry.gauge(
            "repro_queue_depth", "Admitted requests waiting or executing"
        ).set(self.admission.queue_depth())
        self.registry.gauge(
            "repro_in_flight", "Requests currently executing"
        ).set(self.admission.in_flight)
        self.registry.gauge(
            "repro_query_cache_entries", "Live cross-query cache entries"
        ).set(cache.entries)
        self.registry.gauge(
            "repro_query_cache_hit_rate", "Cross-query cache hit rate"
        ).set(round(cache.hit_rate, 6))
        self.registry.gauge(
            "repro_index_epoch", "Mutation epoch of the served index"
        ).set(self.updates.snapshot().epoch)
        return self.registry.render()

    def close(self) -> None:
        """Shut down the admission pool and release the engine state."""
        self.admission.shutdown()

    # Metrics helpers used by the HTTP layer ----------------------------
    def observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one finished HTTP request into the metrics registry."""
        self._requests(endpoint, status).inc()
        self._request_seconds(endpoint).observe(seconds)

    def count_deadline_exceeded(self) -> None:
        """Count one request that exceeded its deadline (504)."""
        self._deadline_exceeded.inc()


class _SearchSession:
    """One consumer's view of a (possibly shared, possibly cached) search.

    Produced by :meth:`QueryService._open`.  Owns one single-flight
    attachment (none for a cache hit, whose stream is already complete);
    :meth:`close` is idempotent and must run exactly once per session,
    which :meth:`result` and :meth:`events` guarantee via their
    ``finally`` — callers that stop iterating early (client disconnect)
    rely on generator closure, callers that never start iterating call
    :meth:`close` themselves.
    """

    def __init__(
        self,
        service: QueryService,
        prep: _PreparedSearch,
        stream: ResultStream,
        flight: Flight | None,
        started: float,
        deadline: float | None,
        shared: bool = False,
    ) -> None:
        """Bind a session to a live flight, or to a cached replay
        (``flight=None``, ``stream`` already completed)."""
        self._service = service
        self._prep = prep
        self._stream = stream
        self._flight = flight
        self._started = started
        self._timeout = deadline if deadline is not None else service.config.deadline
        self._deadline_at = (
            None if self._timeout is None else time.monotonic() + self._timeout
        )
        self._shared = shared
        self._closed = False

    def close(self) -> None:
        """Detach from the shared flight (last consumer cancels it)."""
        if self._closed:
            return
        self._closed = True
        if self._flight is not None:
            self._service.singleflight.leave(self._flight)

    def _await(self, wait):
        """Run one blocking stream wait under the session's deadline.

        A deadline hit leaves a running execution alive — other waiters
        (and the cache) still get the result; only the last consumer's
        :meth:`close` cancels it.
        """
        remaining = None
        if self._deadline_at is not None:
            remaining = max(0.0, self._deadline_at - time.monotonic())
        try:
            return wait(timeout=remaining)
        except DeadlineExceededError:
            raise  # the execution itself expired while queued
        except TimeoutError:
            raise DeadlineExceededError(
                f"deadline of {self._timeout:.3f}s exceeded before completion"
            ) from None

    def _ranked(self, result: "SearchResult | _Answer") -> list:
        k = self._prep.k
        return result.mttons if k is None else result.mttons[:k]

    def _finish(self, result: "SearchResult | _Answer") -> dict:
        """Slow-query log, then the ``/search`` JSON body minus ``results``.

        A cached replay reports the trace id of the search that computed
        the entry — the spans describe the work actually done, not the
        dictionary probe that served it.  ``shared`` marks answers that
        attached to another request's in-flight execution
        (single-flight); ``stale`` marks answers computed under a later
        epoch than the request was admitted at (a write landed before
        the flight took the read lock).
        """
        seconds = time.perf_counter() - self._started
        if self._flight is not None:
            self._service._log_if_slow(result, seconds)
        answer = _Answer.of(result)
        return {
            "query": {
                "keywords": list(answer.query.keywords),
                "max_size": answer.query.max_size,
            },
            "k": self._prep.k,
            "cached": self._flight is None,
            "shared": self._shared,
            "stale": answer.epoch != self._prep.epoch,
            "trace_id": answer.trace_id,
            "elapsed_ms": round(seconds * 1000.0, 3),
            "count": len(self._ranked(answer)),
            "page_count": answer.page_count,
            "candidate_networks": answer.candidate_networks,
            "engine_metrics": {
                "queries_sent": answer.metrics.queries_sent,
                "rows_fetched": answer.metrics.rows_fetched,
                "cache_hits": answer.metrics.cache_hits,
                "cache_misses": answer.metrics.cache_misses,
            },
        }

    def result(self) -> dict:
        """The buffered reply: the stream drained into one payload.

        Leader and joiner alike wait on the flight's stream — the runner
        completes or fails it on every exit.  Raises
        :class:`DeadlineExceededError` when the session's deadline
        elapses first, and re-raises the execution's failure.
        """
        try:
            result = self._await(self._stream.result)
        finally:
            self.close()
        payload = self._finish(result)
        payload["results"] = [
            self._service._mtton_payload(rank, mtton)
            for rank, mtton in enumerate(self._ranked(result), 1)
        ]
        return payload

    def events(self):
        """Yield ``("result", payload)`` per result, then ``("done", summary)``.

        Blocks between events while the engine works (a cached replay
        never blocks).  Raises :class:`DeadlineExceededError` when the
        session's deadline elapses mid-stream, and re-raises the
        execution's failure if the flight errors out.  Always closes
        the session, even when the consumer abandons the generator.
        """
        try:
            cursor = self._stream.subscribe()
            rank = 0
            first_ms: float | None = None
            while True:
                try:
                    mtton = self._await(cursor.next)
                except StopIteration:
                    break
                rank += 1
                if first_ms is None:
                    first_ms = (time.perf_counter() - self._started) * 1000.0
                yield "result", self._service._mtton_payload(rank, mtton)
            summary = self._finish(self._stream.result(timeout=0))  # already done
            summary["stream"] = True
            summary["first_result_ms"] = (
                round(first_ms, 3) if first_ms is not None else None
            )
            yield "done", summary
        finally:
            self.close()
