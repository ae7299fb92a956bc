"""A writer-preferring read/write lock for the update subsystem.

Queries take the read side; mutations take the write side.  Writers are
preferred: once a mutation is waiting, new readers queue behind it, so a
steady query stream cannot starve updates.  Readers never see a torn
index because every mutation publishes its changes while holding the
write side exclusively.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


class ReadWriteLock:
    """Many readers or one writer; waiting writers block new readers."""

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0  # guarded by: self._condition
        self._writer = False  # guarded by: self._condition
        self._writers_waiting = 0  # guarded by: self._condition

    def acquire_read(self) -> None:
        """Block until no writer holds or waits for the lock, then share it."""
        with self._condition:
            while self._writer or self._writers_waiting:
                self._condition.wait()
            self._readers += 1

    def release_read(self) -> None:
        """Drop one read hold; the last reader out wakes waiting writers."""
        with self._condition:
            self._readers -= 1
            if self._readers == 0:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        """Block until no reader or writer holds the lock, then own it.

        While waiting, the writer counts as queued, which holds back
        new readers (writer preference).
        """
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        """Give up the write hold and wake every waiter."""
        with self._condition:
            self._writer = False
            self._condition.notify_all()

    @contextmanager
    def read(self):
        """Context manager holding the read side for its body."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        """Context manager holding the write side for its body."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
