"""Cross-query result caching for the query service.

One level above the paper's per-query partial-result cache: where
``ResultCache`` (core/execution.py) memoizes *suffix* results inside one
keyword query — the Figure 16(a) lever — this cache stores finished
answers (the service puts what a reply reads of a
:class:`~repro.core.SearchResult`: ranked results, metrics, counts)
across queries, so a repeated query (the common case behind a web search box) skips the
entire pipeline: no containing-list retrieval, no CN generation, no
planning, no execution.

Keys are ``(frozen keyword bag, k, max_size)``, where ``k=None`` means
every result — one service serves one database for the life of the
process, so the database is not part of the key.  The keyword *bag* is order-insensitive (keyword order
is irrelevant to query semantics), so ``"smith chen"`` and
``"chen smith"`` share an entry.

The served data changes one way, through live mutations
(:mod:`repro.updates`), and each one advances the database's mutation
epoch (``LoadedDatabase.epoch``) under the write lock.  That epoch is the
one validity rule: an entry records the
:attr:`~repro.core.SearchResult.epoch` its answer was computed under, and
:meth:`QueryCache.get` serves it only while the caller's current epoch
still equals it.  An answer computed before a write finished is never
served after it, however late its :meth:`~QueryCache.put` lands.  The
service also empties the cache (:meth:`~QueryCache.clear`) after every
write, so memory is freed at once.

Entries expire after a TTL and are evicted LRU beyond a capacity, both
tunable.  All operations are thread-safe.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from ..core.query import KeywordQuery

CacheKey = tuple[tuple[str, ...], int | None, int]


def query_cache_key(query: KeywordQuery, k: int | None) -> CacheKey:
    """The canonical cache key for one search (``k=None``: all results)."""
    return (tuple(sorted(query.keywords)), k, query.max_size)


@dataclass
class CacheStats:
    """Point-in-time counters (mirrored into the metrics registry)."""

    hits: int = 0
    misses: int = 0
    expirations: int = 0
    evictions: int = 0
    invalidations: int = 0
    entries: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _Entry:
    result: object
    expires_at: float
    epoch: int


class QueryCache:
    """A thread-safe LRU + TTL cache of finished search answers.

    Args:
        capacity: Maximum entries; least-recently-used beyond it are
            evicted on insert.
        ttl: Seconds an entry stays fresh; ``None`` disables expiry.
        clock: Monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl: float | None = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None to disable)")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, _Entry] = OrderedDict()  # guarded by: self._lock
        self._hits = 0  # guarded by: self._lock
        self._misses = 0  # guarded by: self._lock
        self._expirations = 0  # guarded by: self._lock
        self._evictions = 0  # guarded by: self._lock
        self._invalidations = 0  # guarded by: self._lock

    # ------------------------------------------------------------------
    def get(self, key: CacheKey, epoch: int = 0) -> object | None:
        """Return the entry for ``key`` if present, unexpired, and
        computed under ``epoch`` (the database's current mutation epoch)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            if self._clock() >= entry.expires_at:
                del self._entries[key]
                self._expirations += 1
                self._misses += 1
                return None
            if entry.epoch != epoch:
                del self._entries[key]
                self._invalidations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry.result

    def put(self, key: CacheKey, result: object, epoch: int = 0) -> None:
        """Store ``result``, computed under ``epoch``, under ``key``;
        evicts LRU entries past capacity."""
        expires = self._clock() + self.ttl if self.ttl is not None else float("inf")
        with self._lock:
            self._entries[key] = _Entry(result, expires, epoch)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> int:
        """Drop every entry (the service's sweep after a write); returns
        the count dropped, which ``invalidations`` also counts."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._invalidations += dropped
            return dropped

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        """Snapshot of hit/miss/eviction counters and current size."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                expirations=self._expirations,
                evictions=self._evictions,
                invalidations=self._invalidations,
                entries=len(self._entries),
            )
