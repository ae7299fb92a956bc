"""A mutation that fails during apply or commit leaves nothing behind.

Each DBMS call site of apply and commit is made to raise in turn, for
every verb.  The failed mutation must roll its transaction back and
change nothing in memory, the same mutation retried must then succeed,
and one more mutation must leave the store equal to a full reload.
"""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.storage import Database
from repro.storage.blobs import BlobStore
from repro.storage.master_index import MasterIndex
from repro.storage.relations import RelationStore
from repro.updates import manager as manager_module

from .conftest import assert_equivalent, frozen_state

NEW_PAPER = (
    '<paper ref="a1 a2 p5"><title>atomic proximity maintenance</title>'
    "<pages>1-9</pages></paper>"
)
"""No ids: the parser names the nodes ``u<epoch>n…``, so a retry after a
failure that left nodes behind would collide on them."""
REPLACEMENT = (
    '<paper id="p5" ref="a1 a3"><title id="p5t">atomic replacement</title></paper>'
)

SITES = {
    "apply_metadata_delta": (manager_module, "apply_metadata_delta"),
    "master_index.add_entries": (MasterIndex, "add_entries"),
    "master_index.remove_entries": (MasterIndex, "remove_entries"),
    "apply_row_delta": (RelationStore, "apply_row_delta"),
    "blobs.remove": (BlobStore, "remove"),
    "blobs.store_for": (BlobStore, "store_for"),
    "commit": (Database, "commit"),
}

VERBS = {
    "insert": lambda manager: manager.insert_document(NEW_PAPER, parent_id="c0y1"),
    "delete": lambda manager: manager.delete_document("p5"),
    "replace": lambda manager: manager.update_document("p5", REPLACEMENT),
}

CALLED = {
    "insert": set(SITES) - {"master_index.remove_entries"},
    "delete": set(SITES) - {"master_index.add_entries"},
    "replace": set(SITES),
}
"""The sites each verb reaches (an insert removes no index entries, a
delete adds none)."""


class InjectedFault(Exception):
    pass


def cases():
    return [
        pytest.param(verb, site, id=f"{verb}-{site}")
        for verb in VERBS
        for site in sorted(CALLED[verb])
    ]


@pytest.mark.parametrize(("verb", "site"), cases())
def test_fault_leaves_no_trace(dblp_setup, manager, monkeypatch, verb, site):
    catalog, decomps, loaded = dblp_setup
    before = frozen_state(manager)
    owner, name = SITES[site]

    def fail(*args, **kwargs):
        raise InjectedFault(site)

    monkeypatch.setattr(owner, name, fail)
    with pytest.raises(InjectedFault):
        VERBS[verb](manager)
    monkeypatch.undo()

    assert frozen_state(manager) == before
    VERBS[verb](manager)
    manager.insert_document(
        '<author id="after"><aname id="aftern">after the fault</aname></author>'
    )
    assert_equivalent(catalog, decomps, loaded)
    assert manager.snapshot().epoch == before["epoch"] + 2


def test_other_threads_never_read_uncommitted_rows(manager):
    """Per-thread connections share one cache: while a mutation's
    transaction is open, another thread reading a table it wrote is
    refused with ``SQLITE_LOCKED`` rather than shown the rows; after a
    rollback it reads the committed state.  (Queries hold the read lock,
    so in the service they never overlap a mutation at all.)"""
    database = manager.loaded.database
    table = MasterIndex.TABLE
    committed = database.row_count(table)
    database.execute(f"INSERT INTO {table} VALUES ('uncommitted', 'x', 'x', 'x')")
    seen: list = []

    def read() -> None:
        try:
            seen.append(database.row_count(table))
        except sqlite3.OperationalError as exc:
            seen.append(str(exc))

    try:
        reader = threading.Thread(target=read)
        reader.start()
        reader.join()
        assert seen == [f"database table is locked: {table}"]
    finally:
        database.rollback()
    reader = threading.Thread(target=read)
    reader.start()
    reader.join()
    assert seen[-1] == committed
