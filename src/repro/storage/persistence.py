"""The target-object graph in SQL.

``load_database`` writes the target-object (TO) graph into three tables
of the database it loads: ``meta_target_objects`` (each TO and its TSS),
``meta_to_members`` (XML node -> TO) and ``meta_to_edges`` (each
TSS-edge instance and its realizing node path).  They are the only live
copy of the TO graph: :class:`TargetObjectTables` reads it, the
connection-relation builder (:mod:`.relations`) joins ``meta_to_edges``
once per fragment edge, and the update subsystem writes each mutation's
delta there ahead of the relation delta.
"""

from __future__ import annotations

from ..schema.tss import TSSGraph
from .database import Database, in_chunks
from .target_objects import EdgeInstance, TargetObjectGraph

TO_TABLE = "meta_target_objects"
MEMBER_TABLE = "meta_to_members"
EDGE_TABLE = "meta_to_edges"
_PATH_SEPARATOR = "\x1f"

_METADATA_DDL = (
    f"""CREATE TABLE IF NOT EXISTS {TO_TABLE} (
        to_id TEXT PRIMARY KEY, tss TEXT NOT NULL) WITHOUT ROWID""",
    f"""CREATE TABLE IF NOT EXISTS {MEMBER_TABLE} (
        node_id TEXT PRIMARY KEY, to_id TEXT NOT NULL) WITHOUT ROWID""",
    f"""CREATE TABLE IF NOT EXISTS {EDGE_TABLE} (
        edge_id TEXT NOT NULL, source_to TEXT NOT NULL,
        target_to TEXT NOT NULL, node_path TEXT NOT NULL,
        PRIMARY KEY (edge_id, source_to, target_to)) WITHOUT ROWID""",
    # The builder walks fragment edges in both directions.
    f"""CREATE INDEX IF NOT EXISTS {EDGE_TABLE}_reverse
        ON {EDGE_TABLE} (edge_id, target_to, source_to)""",
)


def store_metadata(database: Database, to_graph: TargetObjectGraph) -> None:
    """Create the TO-graph tables and write the whole graph into them."""
    for statement in _METADATA_DDL:
        database.execute(statement)
    apply_metadata_delta(
        database,
        new_target_objects=to_graph.tss_of_to.items(),
        new_members=to_graph.to_of_node.items(),
        new_instances=[EdgeInstance(*key, path) for key, path in to_graph.paths.items()],
    )
    database.commit()


def apply_metadata_delta(
    database: Database,
    removed_node_ids=(),
    removed_to_ids=(),
    removed_edge_keys=(),
    new_target_objects=(),
    new_members=(),
    new_instances=(),
) -> None:
    """Mirror a change of the TO graph into its tables; the caller commits.

    Removals run before additions, so an instance removed and re-added
    in one call (a re-pathed edge) ends up present.

    Args:
        removed_node_ids: XML node ids whose member rows vanish.
        removed_to_ids: Target-object ids whose TO rows vanish.
        removed_edge_keys: ``(edge_id, source_to, target_to)`` triples.
        new_target_objects: ``(to_id, tss_name)`` pairs.
        new_members: ``(node_id, to_id)`` pairs.
        new_instances: :class:`EdgeInstance` objects (added or re-pathed).
    """
    for table, key_column, ids in (
        (MEMBER_TABLE, "node_id", removed_node_ids),
        (TO_TABLE, "to_id", removed_to_ids),
    ):
        for placeholders, chunk in in_chunks(ids):
            database.execute(
                f"DELETE FROM {table} WHERE {key_column} IN ({placeholders})", chunk
            )
    database.executemany(
        f"DELETE FROM {EDGE_TABLE} "
        "WHERE edge_id = ? AND source_to = ? AND target_to = ?",
        sorted(set(removed_edge_keys)),
    )
    database.executemany(
        f"INSERT OR REPLACE INTO {TO_TABLE} VALUES (?, ?)",
        sorted(set(new_target_objects)),
    )
    database.executemany(
        f"INSERT OR REPLACE INTO {MEMBER_TABLE} VALUES (?, ?)",
        sorted(set(new_members)),
    )
    database.executemany(
        f"INSERT OR REPLACE INTO {EDGE_TABLE} VALUES (?, ?, ?, ?)",
        sorted(
            {
                (
                    instance.edge_id,
                    instance.source_to,
                    instance.target_to,
                    _PATH_SEPARATOR.join(instance.node_path),
                )
                for instance in new_instances
            }
        ),
    )


class TargetObjectTables:
    """Read-only view of the TO graph's tables: the lookups callers need.

    Every read runs on the calling thread's connection, so inside a
    mutation's transaction it sees that mutation's uncommitted delta.
    """

    def __init__(self, database: Database, tss_graph: TSSGraph) -> None:
        self.database = database
        self.tss_graph = tss_graph

    def to_of(self, node_id: str) -> str | None:
        """The target object an XML node belongs to (``None``: unmapped)."""
        return self._scalar(f"SELECT to_id FROM {MEMBER_TABLE} WHERE node_id = ?", node_id)

    def tss_of(self, to_id: str) -> str | None:
        """The TSS of one target object (``None``: no such TO)."""
        return self._scalar(f"SELECT tss FROM {TO_TABLE} WHERE to_id = ?", to_id)

    def members(self, to_id: str) -> list[str]:
        """The XML nodes of one target object."""
        return [
            row[0]
            for row in self.database.query(
                f"SELECT node_id FROM {MEMBER_TABLE} WHERE to_id = ?", (to_id,)
            )
        ]

    def path_of(
        self, edge_id: str, source_to: str, target_to: str
    ) -> tuple[str, ...] | None:
        """The stored XML node path of one TO-level edge (``None``: absent)."""
        packed = self._scalar(
            f"SELECT node_path FROM {EDGE_TABLE} "
            "WHERE edge_id = ? AND source_to = ? AND target_to = ?",
            edge_id, source_to, target_to,
        )
        return None if packed is None else tuple(packed.split(_PATH_SEPARATOR))

    def tss_counts(self) -> dict[str, int]:
        """Target objects per TSS (TSSs without any are absent)."""
        return dict(self.database.query(f"SELECT tss, COUNT(*) FROM {TO_TABLE} GROUP BY tss"))

    def edge_counts(self) -> dict[str, int]:
        """Instances per TSS edge (edges without any are absent)."""
        return dict(
            self.database.query(f"SELECT edge_id, COUNT(*) FROM {EDGE_TABLE} GROUP BY edge_id")
        )

    @property
    def target_object_count(self) -> int:
        return self.database.row_count(TO_TABLE)

    @property
    def instance_count(self) -> int:
        return self.database.row_count(EDGE_TABLE)

    def _scalar(self, sql: str, *params: str):
        row = self.database.query_one(sql, params)
        return None if row is None else row[0]
