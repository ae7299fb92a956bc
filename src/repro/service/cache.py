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
(:mod:`repro.updates`), and one rule decides staleness: the cache is
constructed over the service's
:class:`~repro.storage.fingerprint.VersionVector`, and each entry records a
version snapshot of its query's keywords and the connection relations
its plans scanned.  An entry is stale exactly when a later mutation
bumped one of those counters — i.e. the delta's keyword set intersects
the query's keyword bag, or a relation the plan read was rewritten.
Everything else survives, which is the whole point of fine-grained
invalidation: a steady query mix keeps its hit rate across unrelated
updates.  Staleness is checked lazily on :meth:`get` and swept eagerly
by :meth:`invalidate_stale` after each mutation.

Entries expire after a TTL and are evicted LRU beyond a capacity, both
tunable.  All operations are thread-safe.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from ..core.query import KeywordQuery
from ..storage.fingerprint import VersionVector

CacheKey = tuple[tuple[str, ...], int | None, int]

_FRESH = ((), ())
"""Version snapshot used when no version vector is installed."""


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
    invalidation_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _Entry:
    result: object
    expires_at: float
    snapshot: tuple = _FRESH
    stored_at: float = field(default_factory=time.monotonic)


class QueryCache:
    """A thread-safe LRU + TTL cache of finished search answers.

    Args:
        capacity: Maximum entries; least-recently-used beyond it are
            evicted on insert.
        ttl: Seconds an entry stays fresh; ``None`` disables expiry.
        clock: Monotonic time source, injectable for tests.
        versions: The mutation version vector entries validate against;
            ``None`` (no live updates) keeps every entry valid until
            TTL/eviction.
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl: float | None = 300.0,
        clock: Callable[[], float] = time.monotonic,
        versions: VersionVector | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None to disable)")
        self.capacity = capacity
        self.ttl = ttl
        self.versions = versions
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, _Entry] = OrderedDict()  # guarded by: self._lock
        self._hits = 0  # guarded by: self._lock
        self._misses = 0  # guarded by: self._lock
        self._expirations = 0  # guarded by: self._lock
        self._evictions = 0  # guarded by: self._lock
        self._invalidations = 0  # guarded by: self._lock
        self._invalidation_reasons: dict[str, int] = {}  # guarded by: self._lock

    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> object | None:
        """Return the cached entry for ``key`` if present, fresh, and
        untouched by any mutation since it was stored."""
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
            if self.versions is not None:
                reason = self.versions.stale_reason(entry.snapshot)
                if reason is not None:
                    del self._entries[key]
                    self._invalidations += 1
                    self._invalidation_reasons[reason] = (
                        self._invalidation_reasons.get(reason, 0) + 1
                    )
                    self._misses += 1
                    return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry.result

    def put(
        self,
        key: CacheKey,
        result: object,
        keywords=(),
        relations=(),
    ) -> None:
        """Store ``result`` under ``key``, evicting LRU entries past capacity.

        ``keywords``/``relations`` name what the result depends on; the
        entry snapshots their current mutation versions so later deltas
        touching them (and only them) invalidate it.
        """
        now = self._clock()
        expires = now + self.ttl if self.ttl is not None else float("inf")
        snapshot = (
            self.versions.snapshot(keywords, relations)
            if self.versions is not None
            else _FRESH
        )
        with self._lock:
            self._entries[key] = _Entry(result, expires, snapshot, now)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def invalidate(self) -> int:
        """Drop every entry; returns the count dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._invalidations += dropped
            return dropped

    def invalidate_stale(self) -> dict[str, int]:
        """Eagerly sweep entries a mutation made stale.

        Returns dropped counts per reason (``keyword``/``relation``).
        The service calls this after every mutation so memory is freed
        immediately instead of waiting for a lazy ``get``.
        """
        if self.versions is None:
            return {}
        dropped: dict[str, int] = {}
        with self._lock:
            stale = [
                (key, reason)
                for key, entry in self._entries.items()
                if (reason := self.versions.stale_reason(entry.snapshot)) is not None
            ]
            for key, reason in stale:
                del self._entries[key]
                self._invalidations += 1
                self._invalidation_reasons[reason] = (
                    self._invalidation_reasons.get(reason, 0) + 1
                )
                dropped[reason] = dropped.get(reason, 0) + 1
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
                invalidation_reasons=dict(self._invalidation_reasons),
            )
