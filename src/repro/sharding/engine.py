"""The process-parallel engine: XKeyword over a shard worker pool.

:class:`ShardedXKeyword` keeps the whole front half of the pipeline —
matching, CN generation, CTSSN reduction, planning, tracing — in the
coordinator process (over the gather views, which see every shard) and
overrides only how a scattered query's lanes are run
(:meth:`~repro.core.engine.XKeyword._gather`): instead of one thread per
logical shard it ships the query to the
:class:`~repro.sharding.worker.ShardWorkerPool` and gathers
``(canonical_key, assignment, score)`` triples back, rematerializing
MTTONs locally.  The final sort-and-truncate in ``XKeyword._run`` is
unchanged, so the ranked top-k stays byte-identical to the unsharded
oracle.
"""

from __future__ import annotations

from pathlib import Path

from ..core.engine import XKeyword
from ..core.execution import ExecutionMetrics, QueryExecution
from ..core.results import materialize
from ..storage.decomposer import LoadedDatabase
from ..storage.persistence import reopen_database
from .database import ShardedDatabase
from .worker import ShardWorkerPool


def open_sharded(
    directory: str | Path,
    catalog,
    decompositions,
    simulated_latency: float = 0.0,
) -> LoadedDatabase:
    """Reopen a shard directory as one queryable :class:`LoadedDatabase`.

    The returned object reads through :class:`ShardedDatabase` gather
    views, so every store, the master index and the statistics see the
    union of all shards.  ``graph`` is ``None`` (as for any reopen); a
    caller that needs live updates re-attaches the XML graph.
    """
    database = ShardedDatabase(directory, simulated_latency=simulated_latency)
    return reopen_database(database, catalog, decompositions)


class ShardedXKeyword(XKeyword):
    """XKeyword whose execution stage runs on per-shard worker processes.

    Construct over a gather :class:`LoadedDatabase` (see
    :func:`open_sharded`) and a running
    :class:`~repro.sharding.worker.ShardWorkerPool` for the same shard
    directory.  Scattered runs always execute with the *pool's*
    :class:`~repro.core.execution.ExecutorConfig` (workers were started
    with it); per-call config overrides only affect the coordinator-side
    stages.

    Attributes:
        pool: The worker pool queries are scattered to.
    """

    def __init__(self, loaded: LoadedDatabase, pool: ShardWorkerPool, **kwargs) -> None:
        """
        Args:
            loaded: Gather view of the pool's shard directory.
            pool: Started worker pool (one process per shard).
            **kwargs: Forwarded to :class:`~repro.core.engine.XKeyword`
                (``executor_config`` defaults to the pool's config;
                ``shards`` is forced to the pool's shard count).
        """
        kwargs.setdefault("executor_config", pool.config)
        kwargs["shards"] = pool.num_shards
        super().__init__(loaded, **kwargs)
        self.pool = pool

    def refresh_workers(self) -> None:
        """Propagate coordinator-side mutations to every worker.

        Workers snapshot storage (statistics, rotation bindings, epoch)
        when they open it; after writing through the gather database —
        live updates route each row to its owning shard — call this so
        workers reopen and observe the committed state.
        """
        self.pool.refresh()

    def _gather(self, run: QueryExecution) -> None:
        """Ship the query to the pool instead of running thread lanes.

        Each worker's reply is reported as that shard's lane: the triples
        are rematerialized and folded per CN through ``run.unit_done``
        (so ``cn`` spans close with summed actuals — of each worker's
        ranked top-k, which is all it returns), under the same ``shard``
        spans as thread scatter with ``worker="process"`` marking the
        dispatch mode.  ``run.emitter`` is left alone: workers only
        report at gather time, so streamed runs publish in bulk when the
        search completes.
        """
        for cn in run.planned:
            cn.span.annotate(worker="process")
        triples_by_shard, metrics_by_shard = self.pool.search(run.query, run.limit)
        for index in sorted(triples_by_shard):
            lane = run.shard_lane(index, worker="process")
            by_network: dict[str, list[dict]] = {}
            for canonical_key, assignment, _ in triples_by_shard[index]:
                by_network.setdefault(canonical_key, []).append(dict(assignment))
            for cn in run.planned:
                rows = by_network.get(cn.ctssn.canonical_key, ())
                run.unit_done(
                    cn,
                    lane,
                    [materialize(cn.ctssn, row, self.loaded.to_graph) for row in rows],
                )
            # The worker re-ran the front half too, but the coordinator
            # already accounted its own matching/planning stages: keep
            # only the execution side of what the worker measured.
            worker_metrics = metrics_by_shard.get(index) or ExecutionMetrics()
            seconds = worker_metrics.stage_seconds.get("execution", 0.0)
            worker_metrics.stage_seconds = {"execution": seconds}
            lane.metrics.merge(worker_metrics)
            lane.close(seconds)
