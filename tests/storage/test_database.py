"""Tests for the SQLite substrate wrapper."""

import threading

import pytest

from repro.storage import Database, quote_identifier


class TestBasics:
    def test_memory_databases_are_isolated(self):
        a = Database()
        b = Database()
        a.execute("CREATE TABLE t (x INTEGER)")
        assert "t" in a.table_names()
        assert "t" not in b.table_names()

    def test_query_roundtrip(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER, y TEXT)")
        db.executemany("INSERT INTO t VALUES (?, ?)", [(1, "a"), (2, "b")])
        db.commit()
        assert db.query("SELECT x, y FROM t ORDER BY x") == [(1, "a"), (2, "b")]
        assert db.query_one("SELECT COUNT(*) FROM t") == (2,)

    def test_row_count(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(5)])
        assert db.row_count("t") == 5

    def test_row_count_validates_identifier(self):
        db = Database()
        with pytest.raises(ValueError, match="invalid SQL identifier"):
            db.row_count("t; DROP TABLE x")

    def test_table_names(self):
        db = Database()
        db.execute("CREATE TABLE alpha (x INTEGER)")
        db.execute("CREATE TABLE beta (x INTEGER)")
        assert {"alpha", "beta"} <= set(db.table_names())

    def test_total_bytes_positive(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        assert db.total_bytes() > 0


class TestThreads:
    def test_threads_share_memory_database(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (42)")
        db.commit()
        seen = []

        def worker():
            seen.append(db.query_one("SELECT x FROM t"))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == [(42,)] * 4

    def test_per_thread_connections_distinct(self):
        db = Database()
        main_conn = db.connection
        other = []

        def worker():
            other.append(db.connection)

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert other[0] is not main_conn


class TestIdentifiers:
    def test_valid(self):
        assert quote_identifier("cr_pape_12ab") == "cr_pape_12ab"

    @pytest.mark.parametrize("bad", ["1abc", "a b", "x;y", "a-b", ""])
    def test_invalid(self, bad):
        with pytest.raises((ValueError, IndexError)):
            quote_identifier(bad)
