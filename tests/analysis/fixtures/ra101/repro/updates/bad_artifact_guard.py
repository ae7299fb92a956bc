"""Seeded RA101: [rw]-guarded artifact touched outside a lock region."""

from .rwlock import ReadWriteLock


class Catalog:
    def __init__(self) -> None:
        self._rwlock = ReadWriteLock()
        self._entries = {}  # guarded by: self._rwlock [rw]

    def lookup(self, key):
        with self._rwlock.read():
            return self._read_locked(key)

    def _read_locked(self, key):
        return self._entries[key]  # fine: every caller holds the read side

    def racy_read(self, key):
        return self._entries[key]  # RA101: no lock on this path

    def mislocked_write(self, key, value) -> None:
        with self._rwlock.read():
            self._entries[key] = value  # RA101: writes need the write side

    def locked_write(self, key, value) -> None:
        with self._rwlock.write():
            self._entries[key] = value  # fine

    def annotated_read(self, key):
        return self._entries[key]  # analysis: ignore[RA101]
