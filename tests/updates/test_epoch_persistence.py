"""Index-epoch durability: the mutation counter survives restarts.

Every committed mutation stores the epoch inside its own transaction
(``meta_index_state``); reconstructing an :class:`UpdateManager` — or
reopening the database file in a new process — resumes from the
persisted value instead of restarting at zero, so snapshot/version
monotonicity holds across process lifetimes.
"""

from __future__ import annotations

from repro.decomposition import minimal_decomposition
from repro.schema import dblp_catalog
from repro.storage import Database, load_database, reopen_database
from repro.storage.persistence import load_index_epoch
from repro.updates import UpdateManager
from repro.workloads import DBLPConfig, generate_dblp

from .test_manager import NEW_AUTHOR, NEW_PAPER


def build_file_dblp(tmp_path):
    catalog = dblp_catalog()
    graph = generate_dblp(
        DBLPConfig(papers=20, authors=10, avg_citations=1.5, seed=3)
    )
    decomps = [minimal_decomposition(catalog.tss)]
    path = str(tmp_path / "epoch.db")
    loaded = load_database(graph, catalog, decomps, database=Database(path))
    return catalog, decomps, path, loaded


class TestEpochPersistence:
    def test_fresh_database_has_epoch_zero(self, tmp_path):
        _, _, _, loaded = build_file_dblp(tmp_path)
        assert load_index_epoch(loaded.database) == 0
        assert loaded.epoch == 0

    def test_each_mutation_persists_its_epoch(self, tmp_path):
        _, _, _, loaded = build_file_dblp(tmp_path)
        manager = UpdateManager(loaded)
        manager.insert_document(NEW_PAPER, parent_id="c0y1")
        assert loaded.epoch == 1
        assert load_index_epoch(loaded.database) == 1
        manager.insert_document(NEW_AUTHOR)
        manager.delete_document("na0")
        assert loaded.epoch == 3
        assert load_index_epoch(loaded.database) == 3

    def test_new_manager_resumes_from_persisted_epoch(self, tmp_path):
        _, _, _, loaded = build_file_dblp(tmp_path)
        UpdateManager(loaded).insert_document(NEW_PAPER, parent_id="c0y1")
        assert loaded.epoch == 1
        # Simulate a restart: a fresh load of the same file starts its
        # in-memory epoch at zero; the manager must restore it.
        loaded.epoch = 0
        resumed = UpdateManager(loaded)
        assert loaded.epoch == 1
        assert resumed.snapshot().epoch == 1

    def test_epochs_stay_monotonic_across_restarts(self, tmp_path):
        _, _, _, loaded = build_file_dblp(tmp_path)
        first = UpdateManager(loaded)
        first.insert_document(NEW_PAPER, parent_id="c0y1")
        first.delete_document("np0")
        assert loaded.epoch == 2

        loaded.epoch = 0  # restart: in-memory counter is lost
        second = UpdateManager(loaded)
        report = second.insert_document(NEW_AUTHOR)
        # Continues from the persisted high-water mark — never reissues
        # an epoch an earlier process already handed to cache versioning.
        assert report.epoch == 3
        assert load_index_epoch(loaded.database) == 3

    def test_reopen_database_restores_epoch(self, tmp_path):
        catalog, decomps, path, loaded = build_file_dblp(tmp_path)
        UpdateManager(loaded).insert_document(NEW_PAPER, parent_id="c0y1")

        reopened = reopen_database(Database(path), catalog, decomps)
        assert reopened.epoch == 1

    def test_restore_never_moves_epoch_backwards(self, tmp_path):
        _, _, _, loaded = build_file_dblp(tmp_path)
        manager = UpdateManager(loaded)
        manager.insert_document(NEW_PAPER, parent_id="c0y1")
        # The in-memory epoch can legitimately be ahead of the persisted
        # one (e.g. a mutation in flight); max() keeps the larger side.
        loaded.epoch = 7
        UpdateManager(loaded)
        assert loaded.epoch == 7
