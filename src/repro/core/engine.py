"""The XKeyword engine: the paper's query-processing pipeline (Figure 7).

``XKeyword.search`` runs the five stages end to end: keyword discoverer
(containing lists), CN generator, CTSSN reduction, optimizer, execution —
and materializes MTTONs.  Generation and reduction are eager; then the
candidate networks are planned per size class and executed, smallest
class first (smaller CNs are cheaper *and* rank higher), against a
global result budget of K, in rank order on the calling thread.
Excluded classes are never planned: once K results score at most b, no
class above b is costed or planned.  The paper ran a thread per candidate network to overlap
JDBC round trips; an in-process store has no round trip to overlap, so
there is no pool (EXPERIMENTS.md "Shard scaling").
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterator, Mapping, Protocol, Sequence

from ..schema.tss import TSSGraph
from ..storage.decomposer import LoadedDatabase
from ..storage.relations import RelationStore
from ..trace import NULL_SPAN, NULL_TRACER, QueryTrace, Span
from .cn_generator import CandidateNetwork, CNGenerator
from .ctssn import CTSSN, reduce_to_ctssn
from .execution import (
    BACKEND_SQL,
    PIPELINE_STAGES,
    CTSSNExecutor,
    ExecutionMetrics,
    ExecutorConfig,
    PlannedCN,
    PrefixSpec,
    QueryExecution,
    TopKBound,
    assign_shared_prefixes,
)
from .matching import ContainingLists
from .optimizer import Optimizer
from .plans import ExecutionPlan
from .query import KeywordQuery
from .results import MTTON, materialize
from .sqlcompile import SQLCTSSNExecutor
from .streaming import ResultStream, _StreamEmitter


@dataclass
class SearchResult:
    """Ranked results plus the metrics the experiments report."""

    query: KeywordQuery
    mttons: list[MTTON]
    metrics: ExecutionMetrics
    candidate_networks: list[CandidateNetwork] = field(default_factory=list)
    ctssns: list[CTSSN] = field(default_factory=list)
    trace: QueryTrace | None = None
    """The span tree recorded for this search, when a tracer was
    installed on the engine (see :mod:`repro.trace`); ``None`` otherwise."""
    epoch: int = 0
    """The loaded database's mutation epoch when this search ran — the
    one number the service's cross-query cache validates against."""

    def top(self, count: int) -> list[MTTON]:
        """First ``count`` ranked results."""
        return self.mttons[:count]

    def scores(self) -> list[int]:
        """MTNN sizes of the ranked results, best first."""
        return [mtton.score for mtton in self.mttons]

    def page(self, number: int, per_page: int = 10) -> list[MTTON]:
        """One page of results, web-search-engine style (Section 3.2:
        "output to the user page by page as in web search engine
        interfaces").  Pages are numbered from 1."""
        if number < 1:
            raise ValueError("pages are numbered from 1")
        start = (number - 1) * per_page
        return self.mttons[start:start + per_page]

    def page_count(self, per_page: int = 10) -> int:
        """Number of pages at the given page size (matches ``page``'s
        ``per_page`` argument, which a previous revision ignored)."""
        if per_page < 1:
            raise ValueError("per_page must be positive")
        return -(-len(self.mttons) // per_page)

    def grouped_by_candidate_network(self) -> dict[str, list[MTTON]]:
        """Results grouped per CN, the unit the presentation graphs use."""
        groups: dict[str, list[MTTON]] = {}
        for mtton in self.mttons:
            groups.setdefault(mtton.ctssn.canonical_key, []).append(mtton)
        return groups


def _no_pool(parallel: bool) -> None:
    """Reject ``parallel=True``: every search runs its candidate
    networks in rank order on the calling thread.

    The keyword survives only because ``benchmarks/e2e`` (``replay.py``,
    ``run.py``) passes ``parallel=False``; ROADMAP item 3c deletes it
    together with those call sites.
    """
    if parallel is not False:
        raise ValueError(
            "parallel=True is not supported: candidate networks run in "
            "rank order on the calling thread"
        )


class NetworkVerifier(Protocol):
    """Checks pipeline objects before execution (the ``debug_verify`` seam).

    The engine calls these on every generated CN, every reduced CTSSN and
    every plan when a verifier is installed; implementations raise on
    violation.  The concrete checker lives in
    :class:`repro.analysis.plans.DebugVerifier` — the protocol keeps the
    dependency pointing analysis -> core, never the reverse.
    """

    def check_cn(self, cn: CandidateNetwork, keywords: Sequence[str]) -> None:
        """Verify one candidate network against ``keywords``."""

    def check_ctssn(
        self, ctssn: CTSSN, keywords: Sequence[str], tss_graph: TSSGraph
    ) -> None:
        """Verify one candidate TSS network against its source CN."""

    def check_plan(
        self, plan: ExecutionPlan, stores: Mapping[str, RelationStore]
    ) -> None:
        """Verify one execution plan against its CTSSN."""

    def check_shared_prefix(self, plan: ExecutionPlan, prefix: PrefixSpec) -> None:
        """Verify a shared prefix is embeddable in the borrowing plan."""


@contextmanager
def _stage(name: str, metrics: ExecutionMetrics, span) -> Iterator:
    """The one span+timer wrapper every pipeline stage runs inside.

    Times the block into ``metrics.stage_seconds[name]`` and finishes
    ``span`` (opened by the caller, wherever the trace tree wants it).
    """
    if name not in PIPELINE_STAGES:
        raise ValueError(f"unknown pipeline stage {name!r}")
    started = time.perf_counter()
    try:
        yield span
    finally:
        metrics.record_stage(name, time.perf_counter() - started)
        span.finish()


class XKeyword:
    """Keyword proximity search over a loaded XML database.

    Every entry point funnels into :meth:`_run`: matching, generation
    and reduction (:meth:`_generate`), then per size class the planning
    (:meth:`_plan_networks`) and execution, each stage behind the one
    :func:`_stage` wrapper.  A work unit is one candidate network and
    :meth:`_evaluate` is the only code that runs one.  Units run in rank
    order on the calling thread.
    """

    def __init__(
        self,
        loaded: LoadedDatabase,
        store_priority: list[str] | None = None,
        executor_config: ExecutorConfig | None = None,
        verifier: NetworkVerifier | None = None,
        tracer=None,
    ) -> None:
        """
        Args:
            loaded: The load-stage output (database + indexes + stores).
            store_priority: Decomposition names, highest priority first;
                defaults to the load order.  The optimizer prefers
                relations from earlier stores.
            executor_config: Default execution switches.
            verifier: Optional invariant checker run on every CN, CTSSN
                and plan before execution (``debug_verify`` mode); adds
                per-query overhead, so serving defaults to ``None``.
            tracer: Optional :class:`repro.trace.Tracer`; when set, every
                search records a span tree onto ``SearchResult.trace``
                (the EXPLAIN/``/debug/trace`` substrate).  ``None`` uses
                the null tracer — the identical code path at no-op cost.
        """
        self.loaded = loaded
        names = store_priority or list(loaded.stores)
        self.stores = {name: loaded.store(name) for name in names}
        self.executor_config = executor_config or ExecutorConfig()
        self.verifier = verifier
        self.tracer = tracer or NULL_TRACER
        self.optimizer = Optimizer(
            self.stores, loaded.statistics, epoch=lambda: loaded.epoch
        )

    # ------------------------------------------------------------------
    # Pipeline stages, individually exposed for tests and examples
    # ------------------------------------------------------------------
    def containing_lists(self, query: KeywordQuery) -> ContainingLists:
        """Stage 1 (Fig 7): keyword matching against the master index."""
        return ContainingLists.fetch(self.loaded.master_index, query)

    def candidate_networks(
        self,
        query: KeywordQuery,
        containing: ContainingLists | None = None,
        span: Span | None = None,
    ) -> list[CandidateNetwork]:
        """Stage 2 (Fig 7): generate candidate networks on the schema graph.

        ``span`` (when tracing) receives the generator's ``pruned`` and
        ``expanded`` counts.
        """
        containing = containing or self.containing_lists(query)
        generator = CNGenerator(self.loaded.catalog.schema, containing.schema_nodes())
        networks = generator.generate(query, span=span)
        if self.verifier is not None:
            for cn in networks:
                self.verifier.check_cn(cn, query.keywords)
        return networks

    def candidate_tss_networks(
        self, query: KeywordQuery, containing: ContainingLists | None = None
    ) -> list[CTSSN]:
        """Stage 3 (Fig 7): reduce CNs to candidate TSS networks."""
        containing = containing or self.containing_lists(query)
        return self._reduce(self.candidate_networks(query, containing), query)

    def plan(
        self,
        ctssn: CTSSN,
        containing: ContainingLists,
        span: Span | None = None,
    ) -> ExecutionPlan:
        """Optimize one CTSSN into an execution plan.

        Args:
            ctssn: The candidate TSS network to plan.
            containing: Containing lists (supply per-role costs).
            span: Optional trace span the optimizer annotates with the
                chosen relations, join count and anchor.
        """
        role_costs = self._role_costs(ctssn, containing)
        return self._verified_plan(self.optimizer.plan(ctssn, role_costs, span=span))

    def _role_costs(self, ctssn: CTSSN, containing: ContainingLists) -> dict[int, int]:
        """Admitted target objects per keyword role (the optimizer's costs)."""
        return {
            role: len(containing.allowed_tos(constraints))
            for role, constraints in ctssn.keyword_roles()
        }

    def _reduce(
        self, networks: list[CandidateNetwork], query: KeywordQuery
    ) -> list[CTSSN]:
        tss = self.loaded.catalog.tss
        ctssns = [reduce_to_ctssn(cn, tss) for cn in networks]
        if self.verifier is not None:
            for ctssn in ctssns:
                self.verifier.check_ctssn(ctssn, query.keywords, tss)
        return ctssns

    def _verified_plan(self, plan: ExecutionPlan) -> ExecutionPlan:
        if self.verifier is not None:
            self.verifier.check_plan(plan, self.stores)
        return plan

    def _make_executor(
        self, plan: ExecutionPlan, containing: ContainingLists,
        config: ExecutorConfig, **kwargs
    ) -> CTSSNExecutor:
        """Build the executor the configured backend selects."""
        if config.backend == BACKEND_SQL:
            return SQLCTSSNExecutor(
                plan, self.stores, containing, config=config, **kwargs
            )
        return CTSSNExecutor(plan, self.stores, containing, config=config, **kwargs)

    # ------------------------------------------------------------------
    # Search entry points
    # ------------------------------------------------------------------
    def search(
        self,
        query: KeywordQuery | str,
        k: int | None = 10,
        config: ExecutorConfig | None = None,
        *,
        stream: ResultStream | None = None,
        parallel: bool = False,
    ) -> SearchResult:
        """Top-k search: the web-search-engine-like presentation mode.

        Args:
            query: Keywords (a :class:`KeywordQuery` or a plain string).
            k: Ranked-result cutoff; ``None`` produces every result.
            config: Per-call execution switches (defaults to the
                engine's).
            stream: Optional :class:`~repro.core.streaming.ResultStream`
                the scheduler publishes each ranked result to the moment
                its score band is final (the streamed sequence is
                byte-identical to the returned ``result.mttons``).  The
                search only publishes: the caller owns the stream and
                terminates it (``complete(result)`` publishes any tail
                left unstreamed).
            parallel: Accepts only ``False`` (see :func:`_no_pool`).
        """
        _no_pool(parallel)
        return self._run(query, k, config, stream=stream)

    def search_streaming(
        self,
        query: KeywordQuery | str,
        k: int | None = 10,
        config: ExecutorConfig | None = None,
        *,
        parallel: bool = False,
    ) -> ResultStream:
        """Run :meth:`search` on a background thread, returning its stream.

        The returned :class:`~repro.core.streaming.ResultStream` yields
        ranked results incrementally (iterate it, or
        :meth:`~repro.core.streaming.ResultStream.subscribe` several
        cursors) and exposes the buffered
        :class:`SearchResult` via
        :meth:`~repro.core.streaming.ResultStream.result` once the
        execution finishes.  Call
        :meth:`~repro.core.streaming.ResultStream.cancel` to wind the
        execution down early.  ``k=None`` streams every result;
        ``parallel`` accepts only ``False`` (see :func:`_no_pool`).
        """
        _no_pool(parallel)
        stream = ResultStream()

        def run() -> None:
            try:
                result = self._run(query, k, config, stream=stream)
            except BaseException as exc:  # noqa: BLE001 - delivered to consumers
                stream.fail(exc)
            else:
                stream.complete(result)

        threading.Thread(target=run, name="xkeyword-stream", daemon=True).start()
        return stream

    def stream(
        self,
        query: KeywordQuery | str,
        config: ExecutorConfig | None = None,
    ) -> Iterator[MTTON]:
        """Stream MTTONs as they are produced (Section 3.2: XKeyword
        "outputs MTTONs as they come", filling result pages on the fly).

        A generator over :meth:`search_streaming` with ``k=None``:
        results arrive in ranking order, one finished score band at a
        time; stop consuming whenever enough arrived — closing the
        generator cancels the background execution.
        """
        results = self.search_streaming(query, k=None, config=config)
        try:
            yield from results
        finally:
            results.cancel()

    # ------------------------------------------------------------------
    def _run(
        self,
        query: KeywordQuery | str,
        limit: int | None,
        config: ExecutorConfig | None,
        stream: ResultStream | None = None,
    ) -> SearchResult:
        if isinstance(query, str):
            query = KeywordQuery(tuple(query.split()))
        config = config or self.executor_config
        trace = self.tracer.begin(
            " ".join(query.keywords), k=limit, max_size=query.max_size
        )
        metrics = ExecutionMetrics()
        result = SearchResult(query, [], metrics)
        result.epoch = self.loaded.epoch
        if trace.enabled:
            result.trace = trace  # type: ignore[assignment]

        with _stage("matching", metrics, trace.span("matching")) as span:
            containing = self.containing_lists(query)
            span.annotate(
                target_objects={
                    keyword: len(containing.keyword_tos[keyword])
                    for keyword in query.keywords
                }
            )
        if all(containing.keyword_tos[keyword] for keyword in query.keywords):
            self._generate(query, containing, result, trace)
            run = QueryExecution(query, containing, config, limit, trace)
            if config.prune_by_bound and limit is not None:
                run.bound = TopKBound(limit)
            if stream is not None:
                run.emitter = self._open_emitter(stream, run, result.ctssns, metrics)
            for size_class in self._size_classes(result.ctssns):
                for cn in self._plan_networks(run, size_class, metrics):
                    self._evaluate(run, cn)
            metrics.merge(run.metrics)
            run.collected.sort(
                key=lambda m: (m.score, m.ctssn.canonical_key, m.assignment)
            )
            result.mttons = run.collected if limit is None else run.collected[:limit]
        return self._finish(result, trace)

    def _generate(
        self,
        query: KeywordQuery,
        containing: ContainingLists,
        result: SearchResult,
        trace,
    ) -> None:
        """CN generation and CTSSN reduction, eager: every CN's score is
        known before the first one is costed (the stream emitter needs
        them all upfront)."""
        metrics = result.metrics
        with _stage("cn_generation", metrics, trace.span("cn_generation")) as span:
            result.candidate_networks = self.candidate_networks(query, containing, span)
            span.annotate(networks=len(result.candidate_networks))
        with _stage("ctssn_reduction", metrics, trace.span("ctssn_reduction")) as span:
            result.ctssns = self._reduce(result.candidate_networks, query)
            span.annotate(ctssns=len(result.ctssns))

    def _size_classes(self, ctssns: list[CTSSN]) -> Iterator[list[CTSSN]]:
        """CTSSNs grouped by :meth:`Optimizer.score_lower_bound` (the
        source CN's size), smallest class first, each in canonical-key
        order."""
        ordered = sorted(
            ctssns, key=lambda c: (self.optimizer.score_lower_bound(c), c.canonical_key)
        )
        for _, size_class in groupby(ordered, key=self.optimizer.score_lower_bound):
            yield list(size_class)

    def _plan_networks(
        self,
        run: QueryExecution,
        size_class: list[CTSSN],
        metrics: ExecutionMetrics,
    ) -> list[PlannedCN]:
        """The front half of one size class: costing → ordering →
        planning → shared-prefix assignment (Python backend only:
        ``config.share_prefixes`` is off on ``sql``).

        A class the top-k bound excludes, or reached after the consumer
        cancelled, is never costed or planned: each of its CNs reports
        to the run at once.  Within one class the bound cannot drop below
        the class's score (every earlier result scores lower, every
        result of the class scores the same), so an admitted class runs
        whole.  Each ``cn`` span stays open until its execution
        finishes, so the ``plan``/``execute`` children pair up.
        """
        skipped = self._class_skipped(run, size_class[0])
        if skipped is not None:
            for ctssn in size_class:
                span = run.trace.span("cn", network=ctssn.canonical_key, score=ctssn.score)
                run.unit_done(
                    ctssn, span, [], skipped,
                    ExecutionMetrics(cns_pruned=int("pruned" in skipped)),
                )
            return []
        # Within a class, ties are broken by the statistics-estimated
        # result count.  The estimates are kept so EXPLAIN can show
        # estimated vs. actual cardinality per candidate network.
        with _stage("planning", metrics, NULL_SPAN):
            costed = []
            for ctssn in size_class:
                role_costs = self._role_costs(ctssn, run.containing)
                estimate = self.optimizer.estimate_results(ctssn, role_costs)
                costed.append((ctssn, role_costs, estimate))
            costed.sort(key=lambda c: (c[2], c[0].canonical_key))
        planned: list[PlannedCN] = []
        for ctssn, role_costs, estimate in costed:
            cn_span = run.trace.span(
                "cn",
                network=ctssn.canonical_key,
                score=ctssn.score,
                estimated_results=round(estimate, 2),
            )
            if run.cancelled:
                run.unit_done(ctssn, cn_span, [], {"cancelled": True}, ExecutionMetrics())
                continue
            with _stage("planning", metrics, cn_span.child("plan")) as plan_span:
                plan = self._verified_plan(
                    self.optimizer.plan(ctssn, role_costs, span=plan_span)
                )
            planned.append(PlannedCN(ctssn, plan, cn_span))
        if run.config.share_prefixes:
            prefixes = assign_shared_prefixes([cn.plan for cn in planned])
            for index, spec in prefixes.items():
                if self.verifier is not None:
                    self.verifier.check_shared_prefix(planned[index].plan, spec)
                planned[index].prefix = spec
        return planned

    def _class_skipped(self, run: QueryExecution, first: CTSSN) -> dict | None:
        """The ``cn``-span attributes of a class that must not be planned
        (the consumer cancelled, or the bound excludes its score), else
        ``None``."""
        if run.cancelled:
            return {"cancelled": True}
        bound = run.bound
        if bound is None or bound.admits(self.optimizer.score_lower_bound(first)):
            return None
        return {
            "pruned": True,
            "prune_bound": bound.bound(),
            "detail": f"pruned at bound {bound.bound()}, not planned",
        }

    def _open_emitter(
        self,
        stream: ResultStream,
        run: QueryExecution,
        ctssns: list[CTSSN],
        metrics: ExecutionMetrics,
    ) -> _StreamEmitter:
        """The score-band frontier of a streamed run (it expects one
        completion signal per CN, planned or not)."""
        trace = run.trace  # not ``run``: the emitter must not cycle back to it

        def on_emit(rank: int, mtton: MTTON) -> None:
            trace.span(
                "emit",
                rank=rank,
                score=mtton.score,
                network=mtton.ctssn.canonical_key,
            ).finish()

        return _StreamEmitter(
            stream,
            [ctssn.score for ctssn in ctssns],
            run.limit,
            on_first=lambda seconds: metrics.record_stage("first_result", seconds),
            on_emit=on_emit,
        )

    # ------------------------------------------------------------------
    # Execution: the one work-unit evaluator
    # ------------------------------------------------------------------
    def _evaluate(self, run: QueryExecution, cn: PlannedCN) -> None:
        """Evaluate one planned CN — the only place a plan is executed.

        Owns the unit's whole life: the cancel check, the executor and
        its row loop, MTTON materialization, stream offers, the
        ``execute`` span and metrics.  *Every* exit — ran, cancelled,
        raised — reports to the run, or the score-band frontier would
        stall.
        """
        ctssn, bound, emitter = cn.ctssn, run.bound, run.emitter
        metrics = ExecutionMetrics()
        mttons: list[MTTON] = []
        skipped: dict | None = None
        try:
            if run.cancelled:
                skipped = {"cancelled": True}
                return
            span = cn.span.child("execute", backend=run.config.backend)
            executor = self._make_executor(
                cn.plan,
                run.containing,
                run.config,
                metrics=metrics,
                lookup_cache=run.lookup_cache,
                span=span if run.trace.enabled else None,
                prefix=cn.prefix,
                prefix_table=run.prefix_table,
            )
            abandoned = False
            with _stage("execution", metrics, span):
                for row in executor.run(limit=run.limit):
                    mtton = materialize(ctssn, row, self.loaded.to_graph)
                    mttons.append(mtton)
                    if emitter is not None:
                        emitter.offer(mtton)
                    if bound is not None:
                        bound.add(mtton.score)
                    # Units run smallest score first, so only the
                    # consumer leaving can stop one mid-run: every score
                    # the bound holds is at most this unit's own.
                    abandoned = run.cancelled
                    if abandoned:
                        break
                span.annotate(
                    results=len(mttons),
                    queries_sent=metrics.queries_sent,
                    cache_hits=metrics.cache_hits,
                    cache_misses=metrics.cache_misses,
                )
                if abandoned:
                    span.annotate(pruned="abandoned")
        finally:
            run.unit_done(ctssn, cn.span, mttons, skipped, metrics)

    def _finish(self, result: SearchResult, trace) -> SearchResult:
        trace.root.annotate(
            results=len(result.mttons),
            candidate_networks=len(result.candidate_networks),
            epoch=result.epoch,
        )
        self.tracer.finish(trace)
        return result
