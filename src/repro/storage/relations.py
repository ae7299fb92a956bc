"""Connection relations: DDL, loading, and physical variants (Section 5).

Each fragment of a decomposition materializes as one connection relation
whose columns are target-object id columns, one per fragment role.  The
physical organization follows the decomposition's
:class:`~repro.decomposition.strategies.IndexPolicy`:

* ``ALL_ROTATIONS`` — clustered (index-organized) copies, one per leading
  column, emulating Oracle index-organized tables with SQLite
  ``WITHOUT ROWID`` tables.  The executor picks the copy clustered on the
  direction it traverses (paper Section 5.1: "the performance is
  dramatically improved when a connection relation is clustered on the
  direction that it is used").
* ``SINGLE_COLUMN_INDEXES`` — one heap table plus a secondary index per
  column (the paper's fallback when clustering is too expensive).
* ``NONE`` — one heap table, no indexes (full scans only).

Tables are shared across decompositions: two decompositions containing
the same fragment under the same policy reuse the same tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..decomposition.fragments import Fragment
from ..decomposition.strategies import Decomposition, IndexPolicy
from .database import Database, quote_identifier
from .target_objects import TargetObjectGraph

_POLICY_CODES = {
    IndexPolicy.ALL_ROTATIONS: "cl",
    IndexPolicy.SINGLE_COLUMN_INDEXES: "ix",
    IndexPolicy.NONE: "hp",
}


def fragment_instances(
    fragment: Fragment,
    to_graph: TargetObjectGraph,
    anchor: tuple[int, str] | None = None,
) -> Iterator[tuple[str, ...]]:
    """All embeddings of a fragment into the target-object graph.

    Rows are tuples of target-object ids in role order; roles must bind
    distinct target objects (a fragment instance is a *subgraph* of the
    target-object graph).

    Args:
        anchor: Optional ``(role, to_id)`` pair pinning one role to one
            target object.  Enumeration then walks outward from the
            anchor, yielding exactly the embeddings containing that
            target object in that role — the update subsystem's way to
            recompute only rows touched by a delta.
    """
    start = anchor[0] if anchor is not None else 0
    order: list[tuple[int, object]] = [(start, None)]
    seen = {start}
    frontier = [start]
    while frontier:
        role = frontier.pop()
        for edge in fragment.incident(role):
            nxt = edge.other(role)
            if nxt not in seen:
                seen.add(nxt)
                order.append((nxt, edge))
                frontier.append(nxt)

    assignment: dict[int, str] = {}

    def extend(index: int) -> Iterator[tuple[str, ...]]:
        if index == len(order):
            yield tuple(assignment[role] for role in range(fragment.role_count))
            return
        role, via = order[index]
        if via is None:
            if anchor is not None:
                candidates = [anchor[1]]
            else:
                candidates = to_graph.target_objects(fragment.labels[role])
        else:
            bound = assignment[via.other(role)]  # type: ignore[union-attr]
            if via.oriented_from(via.other(role)):  # type: ignore[union-attr]
                candidates = to_graph.targets(via.edge_id, bound)  # type: ignore[union-attr]
            else:
                candidates = to_graph.sources(via.edge_id, bound)  # type: ignore[union-attr]
        taken = set(assignment.values())
        for candidate in candidates:
            if candidate in taken:
                continue
            assignment[role] = candidate
            yield from extend(index + 1)
            del assignment[role]

    yield from extend(0)


@dataclass(frozen=True)
class PhysicalTable:
    """One physical SQLite table materializing a connection relation."""

    name: str
    columns: tuple[str, ...]
    clustered: bool


class RelationStore:
    """Creates, loads, and queries a decomposition's connection relations."""

    def __init__(self, database: Database, decomposition: Decomposition) -> None:
        self.database = database
        self.decomposition = decomposition
        self.policy = decomposition.index_policy
        self._code = _POLICY_CODES[self.policy]

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    def base_table(self, fragment: Fragment) -> str:
        return quote_identifier(f"{fragment.relation_name}_{self._code}")

    def _rotation_table(self, fragment: Fragment, leading: int) -> str:
        base = self.base_table(fragment)
        return base if leading == 0 else quote_identifier(f"{base}_r{leading}")

    def physical_tables(self, fragment: Fragment) -> list[PhysicalTable]:
        columns = fragment.columns
        if self.policy is IndexPolicy.ALL_ROTATIONS:
            tables = []
            for leading in range(len(columns)):
                rotated = (columns[leading],) + tuple(
                    column for position, column in enumerate(columns) if position != leading
                )
                tables.append(
                    PhysicalTable(self._rotation_table(fragment, leading), rotated, True)
                )
            return tables
        return [PhysicalTable(self.base_table(fragment), columns, False)]

    # ------------------------------------------------------------------
    # DDL + loading
    # ------------------------------------------------------------------
    def create(self) -> None:
        for fragment in self.decomposition.fragments:
            for table in self.physical_tables(fragment):
                column_sql = ", ".join(f"{quote_identifier(c)} TEXT NOT NULL" for c in table.columns)
                if table.clustered:
                    pk = ", ".join(quote_identifier(c) for c in table.columns)
                    self.database.execute(
                        f"CREATE TABLE IF NOT EXISTS {table.name} "
                        f"({column_sql}, PRIMARY KEY ({pk})) WITHOUT ROWID"
                    )
                else:
                    self.database.execute(
                        f"CREATE TABLE IF NOT EXISTS {table.name} ({column_sql})"
                    )
            if self.policy is IndexPolicy.SINGLE_COLUMN_INDEXES:
                base = self.base_table(fragment)
                for column in fragment.columns:
                    self.database.execute(
                        f"CREATE INDEX IF NOT EXISTS {base}_{quote_identifier(column)} "
                        f"ON {base} ({quote_identifier(column)})"
                    )
        self.database.commit()

    def load(self, to_graph: TargetObjectGraph) -> dict[str, int]:
        """Populate every relation; returns row counts per relation name.

        Already-populated tables (shared with a previously loaded
        decomposition under the same policy) are left untouched.
        """
        counts: dict[str, int] = {}
        for fragment in self.decomposition.fragments:
            base = self.base_table(fragment)
            existing = self.database.row_count(base)
            if existing:
                counts[fragment.relation_name] = existing
                continue
            rows = sorted(set(fragment_instances(fragment, to_graph)))
            for table in self.physical_tables(fragment):
                projection = [fragment.columns.index(c) for c in table.columns]
                placeholders = ", ".join("?" for _ in table.columns)
                self.database.executemany(
                    f"INSERT OR IGNORE INTO {table.name} VALUES ({placeholders})",
                    [tuple(row[p] for p in projection) for row in rows],
                )
            counts[fragment.relation_name] = len(rows)
        self.database.commit()
        return counts

    # ------------------------------------------------------------------
    # Query surface
    # ------------------------------------------------------------------
    def lookup(
        self, fragment: Fragment, bindings: dict[str, str]
    ) -> list[tuple[str, ...]]:
        """Rows matching equality bindings, in the fragment's column order.

        With ``ALL_ROTATIONS`` the clustered copy led by a bound column is
        chosen, turning the lookup into an index-organized range scan —
        the paper's clustered access path.
        """
        table, table_columns = self._pick_table(fragment, bindings)
        select = ", ".join(quote_identifier(c) for c in fragment.columns)
        if bindings:
            where = " AND ".join(f"{quote_identifier(c)} = ?" for c in sorted(bindings))
            params = [bindings[c] for c in sorted(bindings)]
            sql = f"SELECT {select} FROM {table} WHERE {where}"
        else:
            params = []
            sql = f"SELECT {select} FROM {table}"
        return self.database.query(sql, params)

    def scan(self, fragment: Fragment) -> list[tuple[str, ...]]:
        """Full scan in fragment column order (exhaustive expansion)."""
        return self.lookup(fragment, {})

    # ------------------------------------------------------------------
    # Incremental maintenance (the update subsystem's delta surface)
    # ------------------------------------------------------------------
    def rows_containing(
        self, fragment: Fragment, to_ids
    ) -> set[tuple[str, ...]]:
        """Existing rows binding any of the given target objects."""
        ids = sorted(set(to_ids))
        if not ids:
            return set()
        base = self.base_table(fragment)
        select = ", ".join(quote_identifier(c) for c in fragment.columns)
        rows: set[tuple[str, ...]] = set()
        for column in fragment.columns:
            for start in range(0, len(ids), 400):
                chunk = ids[start:start + 400]
                placeholders = ", ".join("?" for _ in chunk)
                rows.update(
                    self.database.query(
                        f"SELECT {select} FROM {base} "
                        f"WHERE {quote_identifier(column)} IN ({placeholders})",
                        chunk,
                    )
                )
        return rows

    def apply_row_delta(self, fragment: Fragment, remove_rows, add_rows) -> None:
        """Delete/insert exact rows in every physical table; caller commits.

        Rows are matched on *all* columns, which on clustered
        (``WITHOUT ROWID``) rotation copies is a primary-key point
        delete — the delta stays proportional to its own size, not to
        the relation.  Heap tables pay one scan per removed row, but
        deltas are small by construction.
        """
        for table in self.physical_tables(fragment):
            projection = [fragment.columns.index(c) for c in table.columns]
            if remove_rows:
                predicate = " AND ".join(
                    f"{quote_identifier(c)} = ?" for c in table.columns
                )
                self.database.executemany(
                    f"DELETE FROM {table.name} WHERE {predicate}",
                    [tuple(row[p] for p in projection) for row in remove_rows],
                )
            if add_rows:
                placeholders = ", ".join("?" for _ in table.columns)
                self.database.executemany(
                    f"INSERT OR IGNORE INTO {table.name} VALUES ({placeholders})",
                    [tuple(row[p] for p in projection) for row in add_rows],
                )

    def row_count(self, fragment: Fragment) -> int:
        return self.database.row_count(self.base_table(fragment))

    def clustered_table(self, fragment: Fragment, column: str | None) -> str:
        """The physical table to read when access is keyed on ``column``.

        Under ``ALL_ROTATIONS`` this is the clustered (``WITHOUT
        ROWID``) rotation copy led by ``column``, whose primary key
        turns equality on that column into an index range scan — the
        same access path :meth:`lookup` picks per probe, exposed so the
        plan→SQL compiler can reference it in join clauses.  Falls back
        to the base table when ``column`` is ``None`` or no rotation
        leads with it (other policies index, or don't, the base table
        itself).
        """
        if self.policy is IndexPolicy.ALL_ROTATIONS and column is not None:
            for leading, candidate in enumerate(fragment.columns):
                if candidate == column:
                    return self._rotation_table(fragment, leading)
        return self.base_table(fragment)

    def _pick_table(
        self, fragment: Fragment, bindings: dict[str, str]
    ) -> tuple[str, tuple[str, ...]]:
        if self.policy is IndexPolicy.ALL_ROTATIONS and bindings:
            for leading, column in enumerate(fragment.columns):
                if column in bindings:
                    table = self._rotation_table(fragment, leading)
                    return table, fragment.columns
        return self.base_table(fragment), fragment.columns

    def storage_bytes(self) -> int:
        """Rough footprint: total rows across all physical tables."""
        total = 0
        for fragment in self.decomposition.fragments:
            for table in self.physical_tables(fragment):
                total += self.database.row_count(table.name) * len(table.columns)
        return total
