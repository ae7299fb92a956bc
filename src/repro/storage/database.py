"""SQLite-backed relational substrate (the paper used Oracle 9i + JDBC).

One :class:`Database` owns a private in-memory SQLite database and hands
out **per-thread connections**, mirroring the paper's thread pool of
JDBC connections.  It uses SQLite's shared-cache URI so every thread sees
the same data; the data lasts as long as the :class:`Database`.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
from typing import Any, Iterable, Iterator, Sequence

_MEMORY_COUNTER = itertools.count(1)


class Database:
    """Thread-aware wrapper over one SQLite database."""

    def __init__(self) -> None:
        """Create a private in-memory database, shared across this
        object's per-thread connections."""
        name = f"xkeyword_mem_{next(_MEMORY_COUNTER)}"
        self._uri = f"file:{name}?mode=memory&cache=shared"
        self._local = threading.local()
        # Keep one anchor connection alive so the database survives even
        # when worker threads close theirs.
        self._anchor = self._open()

    def _open(self) -> sqlite3.Connection:
        return sqlite3.connect(self._uri, uri=True, check_same_thread=False)

    @property
    def connection(self) -> sqlite3.Connection:
        """This thread's connection (created lazily)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._open()
            self._local.connection = connection
        return connection

    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Sequence[Any] = ()) -> sqlite3.Cursor:
        """Run one statement on this thread's connection."""
        return self.connection.execute(sql, params)

    def executemany(self, sql: str, rows: Iterable[Sequence[Any]]) -> None:
        """Run one statement once per parameter row."""
        self.connection.executemany(sql, rows)

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[tuple]:
        """All rows of one query."""
        return self.connection.execute(sql, params).fetchall()

    def query_one(self, sql: str, params: Sequence[Any] = ()) -> tuple | None:
        """The first row of one query, ``None`` when it has none."""
        return self.connection.execute(sql, params).fetchone()

    def commit(self) -> None:
        """Commit this thread's open transaction."""
        self.connection.commit()

    def rollback(self) -> None:
        """Discard this thread's open transaction."""
        self.connection.rollback()

    def table_names(self) -> list[str]:
        """Names of every table, in catalog order."""
        return [
            row[0]
            for row in self.query("SELECT name FROM sqlite_master WHERE type = 'table'")
        ]

    def row_count(self, table: str) -> int:
        """Number of rows in one table."""
        _validate_identifier(table)
        row = self.query_one(f"SELECT COUNT(*) FROM {table}")
        return int(row[0]) if row else 0

    def total_bytes(self) -> int:
        """Approximate storage footprint (page_count * page_size)."""
        pages = self.query_one("PRAGMA page_count")
        size = self.query_one("PRAGMA page_size")
        return int(pages[0]) * int(size[0]) if pages and size else 0

    def close(self) -> None:
        """Close this thread's connection and the anchor connection."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None
        self._anchor.close()


def in_chunks(values, size: int = 400) -> Iterator[tuple[str, list]]:
    """Sorted distinct ``values`` as ``(placeholders, chunk)`` pairs.

    Splits a long ``IN (…)`` list into statements that stay well under
    SQLite's bound-parameter limit.
    """
    ordered = sorted(set(values))
    for start in range(0, len(ordered), size):
        chunk = ordered[start:start + size]
        yield ", ".join("?" for _ in chunk), chunk


def _validate_identifier(name: str) -> None:
    """Guard dynamically assembled SQL identifiers."""
    if not name.replace("_", "").isalnum() or name[0].isdigit():
        raise ValueError(f"invalid SQL identifier {name!r}")


def quote_identifier(name: str) -> str:
    """Validate and return an identifier safe to splice into SQL."""
    _validate_identifier(name)
    return name
