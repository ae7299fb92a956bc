"""Target-object BLOB store (paper Section 4, load-stage structure 3).

Given a target-object id, the store instantly returns the whole target
object as serialized XML, so the presentation layer never has to walk the
graph again.
"""

from __future__ import annotations

from ..xmlgraph.model import XMLGraph
from ..xmlgraph.serializer import serialize_subtree
from .database import Database, in_chunks
from .target_objects import TargetObjectGraph


class BlobStore:
    """``to_id -> serialized target object`` lookup table."""

    TABLE = "target_object_blobs"

    def __init__(self, database: Database) -> None:
        self.database = database

    def create(self) -> None:
        """Create the BLOB table."""
        self.database.execute(
            f"""CREATE TABLE IF NOT EXISTS {self.TABLE} (
                to_id TEXT PRIMARY KEY,
                tss TEXT NOT NULL,
                xml TEXT NOT NULL
            ) WITHOUT ROWID"""
        )

    def load(self, graph: XMLGraph, to_graph: TargetObjectGraph) -> int:
        """Serialize every target object; returns how many were stored."""
        stored = self.store_for(graph, to_graph, to_graph.tss_of_to)
        self.database.commit()
        return stored

    # ------------------------------------------------------------------
    # Incremental maintenance (the update subsystem's delta surface)
    # ------------------------------------------------------------------
    def store_for(self, graph, to_graph, to_ids) -> int:
        """(Re-)serialize the given target objects; the caller commits.

        ``graph`` may be any object exposing ``node``/``out_edges``/
        ``containment_children`` (a mutation passes its post-mutation
        merged view); ``to_graph`` is a :class:`TargetObjectGraph` or
        the tables' view, anything with ``tss_of`` and ``members``.
        """
        rows = []
        for to_id in sorted(set(to_ids)):
            members = set(to_graph.members(to_id))
            rows.append(
                (to_id, to_graph.tss_of(to_id), serialize_subtree(graph, to_id, include=members))
            )
        self.database.executemany(
            f"INSERT OR REPLACE INTO {self.TABLE} VALUES (?, ?, ?)", rows
        )
        return len(rows)

    def remove(self, to_ids) -> int:
        """Drop the BLOBs of deleted target objects; the caller commits."""
        removed = 0
        for placeholders, chunk in in_chunks(to_ids):
            cursor = self.database.execute(
                f"DELETE FROM {self.TABLE} WHERE to_id IN ({placeholders})", chunk
            )
            removed += max(0, cursor.rowcount)
        return removed

    def fetch(self, to_id: str) -> tuple[str, str]:
        """Return ``(tss name, xml)`` for one target object."""
        row = self.database.query_one(
            f"SELECT tss, xml FROM {self.TABLE} WHERE to_id = ?", (to_id,)
        )
        if row is None:
            raise KeyError(f"unknown target object {to_id!r}")
        return row[0], row[1]
