"""Single-flight batching: one execution feeds all identical waiters.

Under burst load the same query tends to arrive many times at once
(think a trending author name): without coalescing, every copy runs the
full Fig 7 pipeline and the cache only helps *after* the first one
finishes.  Single-flight closes that window.  The first request for a
cache key becomes the **leader** and starts the engine with a
:class:`~repro.core.streaming.ResultStream`; every concurrent identical
request **joins** as a waiter and consumes the same stream (cursors
replay from the start, so late joiners lose nothing).

Cancellation is reference-counted: a departing waiter merely detaches —
only when the *last* consumer leaves is the shared execution asked to
wind down (:meth:`~repro.core.streaming.ResultStream.cancel`).  The
service keys a flight on its cross-query cache key
(:func:`repro.service.cache.query_cache_key`) plus the mutation epoch
the request was admitted at, so a request admitted after a write
finished never joins a flight admitted before it.
"""

from __future__ import annotations

import threading
from typing import Hashable

from ..core.streaming import ResultStream


class Flight:
    """One in-flight execution shared by identical concurrent requests.

    Attributes:
        key: The key this flight coalesces on.
        stream: The shared :class:`~repro.core.streaming.ResultStream`
            every attached request consumes.
    """

    __slots__ = ("key", "stream", "_lock", "_waiters")

    def __init__(self, key: Hashable) -> None:
        """Create a flight for ``key`` with a fresh stream."""
        self.key = key
        self.stream = ResultStream()
        self._lock = threading.Lock()
        self._waiters = 0  # guarded by: self._lock

    @property
    def waiters(self) -> int:
        """Requests currently attached (leader included)."""
        with self._lock:
            return self._waiters

    def _attach(self) -> None:
        with self._lock:
            self._waiters += 1

    def _detach(self) -> bool:
        """Drop one waiter; True when it was the last."""
        with self._lock:
            self._waiters -= 1
            return self._waiters <= 0


class SingleFlight:
    """Registry of in-flight executions keyed by cache key.

    The protocol: every request calls :meth:`join`; exactly one gets
    ``joined=False`` and must run the execution (completing or failing
    ``flight.stream``) and call :meth:`finish` when done.  *Every*
    caller — leader included — balances its :meth:`join` with one
    :meth:`leave` once it stops consuming the stream.
    """

    def __init__(self) -> None:
        """Create an empty registry."""
        self._lock = threading.Lock()
        self._flights: dict[Hashable, Flight] = {}  # guarded by: self._lock

    def join(self, key: Hashable) -> tuple[Flight, bool]:
        """Attach to ``key``'s flight, creating it if absent.

        Returns ``(flight, joined)``: ``joined`` is True when an
        existing execution was reused (a single-flight hit) and False
        when the caller is the leader and must run it.  A flight whose
        stream was already cancelled (all previous waiters left) is
        replaced rather than joined — its abandoned execution is
        winding down and can no longer serve new consumers.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None and not flight.stream.cancelled:
                flight._attach()
                return flight, True
            flight = Flight(key)
            flight._attach()
            self._flights[key] = flight
            return flight, False

    def leave(self, flight: Flight) -> None:
        """Detach one consumer; the last one cancels the execution.

        Safe to call after the flight completed — cancelling a
        terminated stream is a no-op for its consumers.
        """
        if flight._detach():
            flight.stream.cancel()

    def finish(self, flight: Flight) -> None:
        """Remove a completed flight so future requests start fresh.

        Identity-checked: a newer flight that already replaced this key
        is left untouched.
        """
        with self._lock:
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]

    def in_flight(self) -> int:
        """Number of executions currently registered."""
        with self._lock:
            return len(self._flights)
