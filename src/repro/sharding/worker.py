"""Per-shard worker processes and the pool that coordinates them.

Each worker is a separate OS process — escaping the GIL, the reason
this module exists — owning its own gather
:class:`~repro.sharding.database.ShardedDatabase` and a full
:class:`~repro.core.engine.XKeyword` engine.  A search is scattered by
sending the query to every worker with that worker's
:class:`~repro.core.execution.ShardPartition`; each worker runs the
whole pipeline over *its slice of the anchor space* (joins may probe any
shard through the gather views — parallelism comes from partitioning the
anchor seeds, not the probes) and streams result scores back as they are
produced.

Cross-shard pruning stays exact through two channels:

* every produced score is streamed to the coordinator, which feeds the
  **global** :class:`~repro.core.execution.TopKBound` and publishes its
  current k-th-best into a shared ``multiprocessing.Value``;
* each worker's bound (:class:`_WorkerBound`) admits a score only if
  both its local bound and the published global bound do.

A worker seeing a *stale* global bound merely prunes less — the gathered
multiset still covers the true top-k, so the coordinator's final
sort-and-truncate is byte-identical to the single-shard oracle.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import traceback
from pathlib import Path
from typing import Any

from ..core.engine import XKeyword
from ..core.execution import (
    ExecutionMetrics,
    ExecutorConfig,
    ShardPartition,
    TopKBound,
)
from ..core.query import KeywordQuery
from ..storage.persistence import reopen_database
from .database import ShardedDatabase
from .partition import PartitionBook

_NO_BOUND = 2**62
"""Sentinel stored in the shared bound value while no global bound exists
(scores are MTNN sizes — small non-negative ints — so this never admits
a false prune)."""

_JOIN_TIMEOUT = 5.0
"""Seconds to wait for a worker to exit before terminating it."""


class _WorkerBound:
    """The bound a worker hands its engine: local results ∧ global bound.

    Duck-types :class:`~repro.core.execution.TopKBound` (``add`` /
    ``admits`` / ``bound``).  ``add`` also streams the score to the
    coordinator so the *global* bound tightens across processes.
    """

    def __init__(self, k: int, shared_value, emit) -> None:
        self._local = TopKBound(k)
        self._shared = shared_value
        self._emit = emit

    def add(self, score: int) -> None:
        """Record a produced result locally and stream it upward."""
        self._local.add(score)
        self._emit(score)

    def admits(self, score: int) -> bool:
        """Whether a CN with this lower bound could still place top-k."""
        published = self._shared.value
        if published != _NO_BOUND and score > published:
            return False
        return self._local.admits(score)

    def bound(self) -> int | None:
        """Tightest known k-th-best score, or ``None`` when unbounded."""
        published = self._shared.value
        local = self._local.bound()
        known = [
            value
            for value in (local, published if published != _NO_BOUND else None)
            if value is not None
        ]
        return min(known) if known else None


def _worker_main(
    index: int,
    count: int,
    directory: str,
    catalog,
    decompositions,
    config: ExecutorConfig,
    simulated_latency: float,
    tasks,
    results,
    bound_value,
) -> None:
    """Entry point of one shard worker process.

    Opens the shard directory, reopens a full engine over the gather
    views, then serves ops from the task pipe until ``stop``/EOF:
    ``ping`` → ``pong`` ack, ``refresh`` → reopen storage (after
    coordinator-side mutations), ``search`` → run the partitioned search
    and return ``(canonical_key, assignment, score)`` triples plus the
    run's :class:`~repro.core.execution.ExecutionMetrics`.
    """

    def build_engine() -> tuple[ShardedDatabase, XKeyword]:
        database = ShardedDatabase(directory, simulated_latency=simulated_latency)
        loaded = reopen_database(database, catalog, decompositions)
        return database, XKeyword(loaded, executor_config=config, shards=1)

    database, engine = build_engine()
    partition = ShardPartition(index, count)
    while True:
        try:
            op, payload = tasks.recv()
        except (EOFError, OSError):
            break
        if op == "stop":
            break
        try:
            if op == "ping":
                results.put(("pong", index, None, None))
            elif op == "refresh":
                database.close()
                database, engine = build_engine()
                results.put(("refreshed", index, None, None))
            elif op == "search":
                query, k = payload
                bound = None
                if k is not None and engine.executor_config.prune_by_bound:
                    bound = _WorkerBound(
                        k,
                        bound_value,
                        lambda score: results.put(("score", index, score, None)),
                    )
                result = engine.search(
                    query, k=k, partition=partition, shared_bound=bound
                )
                triples = [
                    (m.ctssn.canonical_key, m.assignment, m.score)
                    for m in result.mttons
                ]
                results.put(("done", index, triples, result.metrics))
            else:
                results.put(("error", index, f"unknown op {op!r}", None))
        except Exception:  # pragma: no cover - surfaced coordinator-side
            results.put(("error", index, traceback.format_exc(), None))


class ShardWorkerPool:
    """One worker process per shard plus the scatter-gather coordinator.

    Attributes:
        num_shards: Worker/shard count (from the partition book).

    The pool serializes searches (one scatter in flight at a time); the
    service's request pool provides concurrency above it.  Use as a
    context manager or call :meth:`close`.
    """

    def __init__(
        self,
        directory: str | Path,
        catalog,
        decompositions,
        config: ExecutorConfig | None = None,
        simulated_latency: float = 0.0,
    ) -> None:
        """Start one worker per shard of ``directory``.

        Args:
            directory: A shard directory created by
                :func:`~repro.sharding.shardset.create_shards`.
            catalog: The schema catalog (as for ``reopen_database``).
            decompositions: The decompositions the shards were loaded with.
            config: Execution switches for every worker engine.
            simulated_latency: Per-read-query delay inside workers (the
                benchmark's DBMS round-trip model).
        """
        book = PartitionBook.load(directory)
        self.num_shards = book.num_shards
        self.config = config or ExecutorConfig()
        try:
            # fork inherits the catalog/decompositions without pickling.
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context()
        self._results = context.Queue()
        self._bound_value = context.Value("q", _NO_BOUND)
        self._lock = threading.Lock()
        self._pipes = []
        self._processes = []
        for index in range(self.num_shards):
            parent, child = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(
                    index,
                    self.num_shards,
                    str(directory),
                    catalog,
                    decompositions,
                    self.config,
                    simulated_latency,
                    child,
                    self._results,
                    self._bound_value,
                ),
                daemon=True,
                name=f"repro-shard-{index}",
            )
            process.start()
            child.close()
            self._pipes.append(parent)
            self._processes.append(process)

    # ------------------------------------------------------------------
    def search(
        self, query: KeywordQuery, k: int | None
    ) -> tuple[dict[int, list[tuple]], dict[int, ExecutionMetrics]]:
        """Scatter one query to every worker and gather the results.

        Args:
            query: The keyword query.
            k: Ranked-result cutoff (``None`` for all results).

        Returns:
            ``(triples_by_shard, metrics_by_shard)`` where each triple is
            ``(canonical_key, assignment, score)`` in the shard's ranked
            order.  The caller merges, re-sorts and truncates.
        """
        with self._lock:
            coordinator = TopKBound(k) if k is not None else None
            with self._bound_value.get_lock():
                self._bound_value.value = _NO_BOUND
            for pipe in self._pipes:
                pipe.send(("search", (query, k)))
            triples_by_shard: dict[int, list[tuple]] = {}
            metrics_by_shard: dict[int, ExecutionMetrics] = {}
            pending = self.num_shards
            while pending:
                kind, index, payload, metrics = self._results.get()
                if kind == "score":
                    if coordinator is not None:
                        coordinator.add(payload)
                        bound = coordinator.bound()
                        if bound is not None:
                            with self._bound_value.get_lock():
                                if bound < self._bound_value.value:
                                    self._bound_value.value = bound
                elif kind == "done":
                    triples_by_shard[index] = payload
                    metrics_by_shard[index] = metrics
                    pending -= 1
                elif kind == "error":
                    raise RuntimeError(
                        f"shard {index} worker failed:\n{payload}"
                    )
            return triples_by_shard, metrics_by_shard

    def refresh(self) -> None:
        """Make every worker reopen its storage (after mutations)."""
        self._roundtrip("refresh", "refreshed")

    def ping(self, timeout: float = 2.0) -> dict[int, bool]:
        """Liveness probe: which workers answered within ``timeout``."""
        try:
            self._roundtrip("ping", "pong", timeout=timeout)
        except TimeoutError:
            pass
        return self._last_acks

    def alive(self) -> dict[int, bool]:
        """Process liveness by OS state (no round trip)."""
        return {
            index: process.is_alive()
            for index, process in enumerate(self._processes)
        }

    def _roundtrip(
        self, op: str, ack: str, timeout: float | None = None
    ) -> None:
        with self._lock:
            self._last_acks = {index: False for index in range(self.num_shards)}
            for pipe in self._pipes:
                pipe.send((op, None))
            pending = self.num_shards
            while pending:
                try:
                    kind, index, payload, _ = self._results.get(timeout=timeout)
                except queue_module.Empty:
                    raise TimeoutError(f"{op}: {pending} workers silent")
                if kind == "error":
                    raise RuntimeError(f"shard {index} worker failed:\n{payload}")
                if kind == ack:
                    self._last_acks[index] = True
                    pending -= 1

    def close(self) -> None:
        """Stop every worker (terminate stragglers) and release the queue."""
        for pipe in self._pipes:
            try:
                pipe.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=_JOIN_TIMEOUT)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT)
        for pipe in self._pipes:
            pipe.close()
        self._results.close()
        self._results.cancel_join_thread()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
