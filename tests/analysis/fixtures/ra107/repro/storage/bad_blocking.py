"""Seeded RA107: blocking operations reachable while a lock is held."""

import threading
import time


class Journal:
    def __init__(self, connection, done_event) -> None:
        self._lock = threading.Lock()
        self.connection = connection
        self.done = done_event

    def append(self, row) -> None:
        with self._lock:
            self.connection.commit()  # RA107: sqlite commit under the lock

    def wait_for_flush(self) -> None:
        with self._lock:
            self.done.wait()  # RA107: Event.wait under the lock

    def append_via_helper(self, row) -> None:
        with self._lock:
            self._persist(row)  # RA107: callee commits under our lock

    def _persist(self, row) -> None:
        self.connection.execute("INSERT ...", row)

    def debug(self) -> None:
        with self._lock:
            print("still holding the lock")  # RA107: blocking I/O

    def pause(self) -> None:
        with self._lock:
            time.sleep(0.5)  # RA107: every other thread stalls too

    def append_durable(self, row) -> None:
        with self._lock:
            # analysis: blocking-ok[journal appends must be durable before
            # the lock is released; writers are rare and commits are small]
            self.connection.commit()

    def commit_unlocked(self) -> None:
        self.connection.commit()  # fine: no lock held
