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

SQLite builds every relation itself from the SQL copy of the
target-object graph (:mod:`.persistence`): one ``INSERT … SELECT`` per
physical table, compiled by :func:`fragment_select`.  The update
subsystem runs the same query with one role pinned
(:meth:`RelationStore.embeddings`) to recompute the rows a delta
touched.

Tables are shared across decompositions: two decompositions containing
the same fragment under the same policy reuse the same tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..decomposition.fragments import Fragment
from ..decomposition.strategies import Decomposition, IndexPolicy
from .database import Database, in_chunks, quote_identifier
from .persistence import EDGE_TABLE, TO_TABLE

_POLICY_CODES = {
    IndexPolicy.ALL_ROTATIONS: "cl",
    IndexPolicy.SINGLE_COLUMN_INDEXES: "ix",
    IndexPolicy.NONE: "hp",
}


def fragment_select(fragment: Fragment) -> tuple[tuple[str, ...], str, list[str]]:
    """One SQL query enumerating every embedding of a fragment.

    Returns ``(roles, body, params)``: ``roles`` are the SQL expressions
    binding each role in role order, and ``SELECT <roles> <body>`` with
    ``params`` yields one row per embedding of the fragment into the
    target-object graph's tables (:mod:`.persistence`).  ``body`` always
    ends in a ``WHERE`` clause, so callers may append ``AND …``.

    Each fragment edge reads one ``meta_to_edges`` alias, joined to its
    neighbours on the roles they share.  Roles must bind distinct target
    objects (a fragment instance is a *subgraph*), but each target object
    has exactly one TSS, so only roles with the same label need ``<>``.
    A single-role fragment reads ``meta_target_objects``.
    """
    if not fragment.edges:
        return ("t.to_id",), f"FROM {TO_TABLE} AS t WHERE t.tss = ?", [fragment.labels[0]]
    binding: dict[int, str] = {}
    tables: list[str] = []
    conditions: list[str] = []
    params: list[str] = []
    for index, edge in enumerate(fragment.edges):
        alias = f"e{index}"
        tables.append(f"{EDGE_TABLE} AS {alias}")
        conditions.append(f"{alias}.edge_id = ?")
        params.append(edge.edge_id)
        for role, column in ((edge.source, "source_to"), (edge.target, "target_to")):
            expression = f"{alias}.{column}"
            if role in binding:
                conditions.append(f"{expression} = {binding[role]}")
            else:
                binding[role] = expression
    roles = tuple(binding[role] for role in range(fragment.role_count))
    for first in range(fragment.role_count):
        for second in range(first + 1, fragment.role_count):
            if fragment.labels[first] == fragment.labels[second]:
                conditions.append(f"{roles[first]} <> {roles[second]}")
    return roles, f"FROM {', '.join(tables)} WHERE {' AND '.join(conditions)}", params


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
        """The relation's base table: role-ordered columns, rotation 0."""
        return quote_identifier(f"{fragment.relation_name}_{self._code}")

    def _rotation_table(self, fragment: Fragment, leading: int) -> str:
        base = self.base_table(fragment)
        return base if leading == 0 else quote_identifier(f"{base}_r{leading}")

    def physical_tables(self, fragment: Fragment) -> list[PhysicalTable]:
        """Every table materializing the relation, the base table first."""
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
        """Create every physical table (and index) the policy calls for."""
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

    def load(self) -> dict[str, int]:
        """Populate every relation; returns row counts per relation name.

        SQLite builds each relation from the target-object graph's tables
        (:func:`fragment_select`): the base table with one
        ``INSERT … SELECT`` sorted on every column in role order, then
        each rotation copy from the base table, sorted on its own column
        order.  Heap tables thus receive their rows in sorted order.
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
            roles, body, params = fragment_select(fragment)
            selected = ", ".join(roles)
            # No DISTINCT: the edge keys an embedding joins are fixed by
            # its roles, so the join yields each embedding once.
            counts[fragment.relation_name] = self.database.execute(
                f"INSERT INTO {base} SELECT {selected} {body} ORDER BY {selected}",
                params,
            ).rowcount
            for table in self.physical_tables(fragment)[1:]:
                columns = ", ".join(quote_identifier(c) for c in table.columns)
                self.database.execute(
                    f"INSERT INTO {table.name} ({columns}) "
                    f"SELECT {columns} FROM {base} ORDER BY {columns}"
                )
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
        leading = next((c for c in fragment.columns if c in bindings), None)
        table = self.clustered_table(fragment, leading)
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
        """Existing rows binding any of the given target objects.

        Probes each column on the table keyed by it
        (:meth:`clustered_table`), so under ``ALL_ROTATIONS`` and
        ``SINGLE_COLUMN_INDEXES`` every probe is an index search.
        """
        select = ", ".join(quote_identifier(c) for c in fragment.columns)
        rows: set[tuple[str, ...]] = set()
        for column in fragment.columns:
            table = self.clustered_table(fragment, column)
            for placeholders, chunk in in_chunks(to_ids):
                rows.update(
                    self.database.query(
                        f"SELECT {select} FROM {table} "
                        f"WHERE {quote_identifier(column)} IN ({placeholders})",
                        chunk,
                    )
                )
        return rows

    def embeddings(
        self, fragment: Fragment, role: int, to_ids
    ) -> set[tuple[str, ...]]:
        """Embeddings binding ``role`` to one of ``to_ids``, recomputed.

        The same query :meth:`load` materializes, with the role pinned:
        the update subsystem's way to rebuild only the rows a delta
        touched.  Rows are in the fragment's column order.
        """
        roles, body, params = fragment_select(fragment)
        rows: set[tuple[str, ...]] = set()
        for placeholders, chunk in in_chunks(to_ids):
            rows.update(
                self.database.query(
                    f"SELECT {', '.join(roles)} {body} "
                    f"AND {roles[role]} IN ({placeholders})",
                    [*params, *chunk],
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
        """Number of rows in the relation."""
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

    def storage_bytes(self) -> int:
        """Rough footprint: total rows across all physical tables."""
        total = 0
        for fragment in self.decomposition.fragments:
            for table in self.physical_tables(fragment):
                total += self.database.row_count(table.name) * len(table.columns)
        return total
