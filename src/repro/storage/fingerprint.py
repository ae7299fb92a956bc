"""Stable content fingerprints and version vectors for loaded databases.

The fingerprint is the database's load-time identity: what ``/healthz``
and the ``serve`` banner print so an operator can tell which data a
process is serving.  It plays no part in cache validity — incremental
mutations advance a :class:`VersionVector` — per-keyword and
per-relation counters — so the service's cross-query cache can tell
exactly which entries a delta made stale instead of dropping everything.

The fingerprint digests what the load stage materialized — catalog
identity, the loaded decompositions, and the row population of every
table — rather than object identity, so a database reopened from disk
fingerprints the same as the load that produced it, while loading a
different XML graph (or the same graph re-generated with a new seed)
changes the digest.
"""

from __future__ import annotations

import hashlib
import threading

from .decomposer import LoadedDatabase


class VersionVector:
    """Per-keyword / per-relation mutation counters for cache staleness.

    Every mutation calls :meth:`bump` with the delta's keyword set and the
    connection relations it rewrote.  Cache entries record a
    :meth:`snapshot` over their query's keywords and executed relations at
    insertion time; an entry is stale exactly when one of those counters
    has advanced since — i.e. a later delta touched a keyword the query
    asked for or a relation its plan scanned.  Entries disjoint from every
    delta stay valid across mutations.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = 0  # guarded by: self._lock
        self._keywords: dict[str, int] = {}  # guarded by: self._lock
        self._relations: dict[str, int] = {}  # guarded by: self._lock

    @property
    def epoch(self) -> int:
        """Total number of mutations recorded."""
        with self._lock:
            return self._epoch

    def bump(self, keywords=(), relations=()) -> int:
        """Record one mutation touching the given keywords and relations.

        Returns the new epoch.  Keywords are lowercased so they compare
        against query keywords the same way the master index tokenizes.
        """
        with self._lock:
            self._epoch += 1
            for keyword in keywords:
                keyword = keyword.lower()
                self._keywords[keyword] = self._keywords.get(keyword, 0) + 1
            for relation in relations:
                self._relations[relation] = self._relations.get(relation, 0) + 1
            return self._epoch

    def snapshot(
        self, keywords=(), relations=()
    ) -> tuple[tuple[tuple[str, int], ...], tuple[tuple[str, int], ...]]:
        """Freeze the current versions of the given keys.

        Keys never bumped snapshot at version 0, so a later first bump
        still invalidates entries that depended on them.
        """
        with self._lock:
            return (
                tuple(
                    (kw, self._keywords.get(kw, 0))
                    for kw in sorted({k.lower() for k in keywords})
                ),
                tuple(
                    (rel, self._relations.get(rel, 0))
                    for rel in sorted(set(relations))
                ),
            )

    def stale_reason(self, snapshot) -> str | None:
        """``"keyword"``/``"relation"`` if the snapshot aged out, else None."""
        keyword_versions, relation_versions = snapshot
        with self._lock:
            for keyword, version in keyword_versions:
                if self._keywords.get(keyword, 0) != version:
                    return "keyword"
            for relation, version in relation_versions:
                if self._relations.get(relation, 0) != version:
                    return "relation"
        return None


def database_fingerprint(loaded: LoadedDatabase) -> str:
    """A hex digest identifying this database's loaded content.

    Digests, in order: the catalog name, the target-object graph's
    population (TO count + edge-instance count), and every table's name
    and row count.  Table row counts cover the master index, BLOBs and
    each decomposition's connection relations, so re-loading different
    data — even with identical schema — yields a different digest.
    """
    hasher = hashlib.sha256()
    hasher.update(loaded.catalog.name.encode())
    hasher.update(str(loaded.to_graph.target_object_count).encode())
    hasher.update(str(loaded.to_graph.instance_count).encode())
    for name in sorted(loaded.stores):
        hasher.update(name.encode())
    for table in sorted(loaded.database.table_names()):
        hasher.update(table.encode())
        hasher.update(str(loaded.database.row_count(table)).encode())
    return hasher.hexdigest()
