"""Single-flight batching: one execution feeds every identical request.

Three layers: :class:`~repro.service.SingleFlight` registry semantics in
isolation, deterministic service-level coalescing with a gated engine
(the gate holds the flight open until every request has attached), and
a stress run hammering one query from many threads.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import XKeyword
from repro.service import (
    DeadlineExceededError,
    QueryService,
    ServiceConfig,
    SingleFlight,
)


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestSingleFlightRegistry:
    def test_leader_then_waiters(self):
        registry = SingleFlight()
        leader, joined = registry.join("k")
        assert not joined
        waiter, rejoined = registry.join("k")
        assert rejoined and waiter is leader
        assert leader.waiters == 2

    def test_last_leaver_cancels(self):
        registry = SingleFlight()
        flight, _ = registry.join("k")
        registry.join("k")
        registry.leave(flight)
        assert not flight.stream.cancelled
        registry.leave(flight)
        assert flight.stream.cancelled

    def test_cancelled_flight_is_replaced_not_joined(self):
        registry = SingleFlight()
        flight, _ = registry.join("k")
        registry.leave(flight)  # last consumer -> cancelled
        fresh, joined = registry.join("k")
        assert fresh is not flight
        assert not joined  # the new caller leads a fresh execution

    def test_finish_is_identity_checked(self):
        registry = SingleFlight()
        old, _ = registry.join("k")
        registry.leave(old)
        new, _ = registry.join("k")
        registry.finish(old)  # stale removal must not evict the new one
        assert registry.in_flight() == 1
        registry.finish(new)
        assert registry.in_flight() == 0

    def test_distinct_keys_fly_separately(self):
        registry = SingleFlight()
        a, joined_a = registry.join("a")
        b, joined_b = registry.join("b")
        assert not joined_a and not joined_b
        assert a is not b
        assert registry.in_flight() == 2


# ----------------------------------------------------------------------
# Service-level coalescing (deterministic via a gated engine)
# ----------------------------------------------------------------------
class GatedXKeyword(XKeyword):
    """Engine whose searches block on a gate, counting entries.

    Still an :class:`XKeyword`, so it publishes to the flight's stream;
    the gate holds the flight in the registry until the test
    has attached every concurrent request.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.calls = 0
        self._calls_lock = threading.Lock()

    def search(self, query, k=10, stream=None):
        with self._calls_lock:
            self.calls += 1
        assert self.gate.wait(30.0), "test forgot to release the gate"
        return super().search(query, k=k, stream=stream)


@pytest.fixture
def gated_service(small_dblp_db):
    engine = GatedXKeyword(small_dblp_db)
    service = QueryService(
        small_dblp_db, ServiceConfig(workers=4, queue_size=32), engine=engine
    )
    try:
        yield service, engine
    finally:
        engine.gate.set()
        service.close()


def wait_for_waiters(service: QueryService, count: int, timeout: float = 10.0):
    """Block until ``count`` consumers are attached across all flights."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        attached = sum(
            flight.waiters for flight in service.singleflight._flights.values()
        )
        if attached >= count:
            return
        time.sleep(0.005)
    raise AssertionError(f"never saw {count} attached waiters")


class TestServiceCoalescing:
    N = 6

    def test_concurrent_identical_searches_run_once(self, gated_service):
        service, engine = gated_service
        payloads, errors = [None] * self.N, []

        def call(slot):
            try:
                payloads[slot] = service.search(["smith", "balmin"], k=5, max_size=6)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=call, args=(slot,)) for slot in range(self.N)
        ]
        for thread in threads:
            thread.start()
        wait_for_waiters(service, self.N)
        engine.gate.set()
        for thread in threads:
            thread.join(timeout=30.0)

        assert not errors
        assert engine.calls == 1  # one execution served all six
        assert service._singleflight_flights.value == 1
        assert service._singleflight_hits.value == self.N - 1
        shared = sorted(payload["shared"] for payload in payloads)
        assert shared == [False] + [True] * (self.N - 1)
        first = payloads[0]["results"]
        assert first  # non-empty, and identical across every waiter
        for payload in payloads[1:]:
            assert payload["results"] == first
            assert payload["count"] == payloads[0]["count"]
            assert not payload["cached"]

    def test_waiter_departure_leaves_flight_running(self, gated_service):
        service, engine = gated_service
        sessions = [
            service.search_stream(["smith", "balmin"], k=5, max_size=6)
            for _ in range(3)
        ]
        assert engine.calls <= 1
        assert service.singleflight.in_flight() == 1
        sessions[0].close()  # one consumer bails before any result
        flight = sessions[1]._flight
        assert not flight.stream.cancelled  # two consumers remain
        engine.gate.set()
        remaining = [list(session.events()) for session in sessions[1:]]

        def normalized(events):
            # Per-session wall-clock fields differ; everything else must
            # be identical between the surviving consumers.
            return [
                (
                    name,
                    {
                        key: value
                        for key, value in payload.items()
                        if key not in ("elapsed_ms", "first_result_ms")
                    },
                )
                for name, payload in events
            ]

        assert normalized(remaining[0]) == normalized(remaining[1])
        names = [name for name, _ in remaining[0]]
        assert names[-1] == "done"
        assert names[:-1] == ["result"] * (len(names) - 1)
        assert remaining[0][-1][1]["count"] == len(names) - 1 > 0

    def test_last_session_close_cancels_execution(self, gated_service):
        service, engine = gated_service
        session = service.search_stream(["smith", "balmin"], k=5, max_size=6)
        flight = session._flight
        session.close()
        assert flight.stream.cancelled
        engine.gate.set()

    def test_different_queries_do_not_coalesce(self, gated_service):
        service, engine = gated_service
        engine.gate.set()
        service.search(["smith", "balmin"], k=5, max_size=6)
        service.cache.clear()
        service.search(["smith", "balmin"], k=7, max_size=6)
        assert service._singleflight_flights.value == 2
        assert service._singleflight_hits.value == 0


def settle(service: QueryService, timeout: float = 10.0) -> None:
    """Block until no execution is registered, queued or running."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if (
            service.singleflight.in_flight() == 0
            and service.admission.queue_depth() == 0
            and service.admission.in_flight == 0
        ):
            return
        time.sleep(0.005)
    raise AssertionError("execution never wound down")


class TestBufferedDeadline:
    """A buffered waiter is a stream consumer like any other: when its
    deadline expires it detaches, and only the *last* detachment cancels
    the shared execution (ROADMAP item 3's "confirm with a test")."""

    QUERY = dict(keywords=["smith", "balmin"], k=5, max_size=6)

    def expire_buffered(self, service, attached: int):
        """Run one buffered search into its 50 ms deadline; returns the
        flight it was attached to."""
        errors = []

        def call():
            try:
                service.search(**self.QUERY, deadline=0.05)
            except Exception as exc:
                errors.append(exc)

        thread = threading.Thread(target=call)
        thread.start()
        wait_for_waiters(service, attached)
        (flight,) = service.singleflight._flights.values()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert [type(error) for error in errors] == [DeadlineExceededError]
        return flight

    def test_sole_waiter_expiry_cancels_the_execution(self, gated_service):
        service, engine = gated_service
        flight = self.expire_buffered(service, attached=1)
        assert flight.stream.cancelled
        engine.gate.set()
        settle(service)
        # The cancelled run wound down without publishing to the cache.
        assert len(service.cache) == 0
        assert service.search(**self.QUERY)["cached"] is False

    def test_expiry_with_second_waiter_leaves_execution_running(self, gated_service):
        service, engine = gated_service
        survivor = service.search_stream(**self.QUERY)
        flight = self.expire_buffered(service, attached=2)
        assert flight is survivor._flight
        assert not flight.stream.cancelled
        engine.gate.set()
        events = list(survivor.events())
        assert [name for name, _ in events][-1] == "done"
        assert events[-1][1]["count"] == len(events) - 1 > 0
        settle(service)
        assert service.search(**self.QUERY)["cached"] is True


class TestCachedReplay:
    def test_sse_replay_equals_the_live_stream_that_filled_it(self, gated_service):
        service, engine = gated_service
        engine.gate.set()
        query = dict(keywords=["smith", "balmin"], k=5, max_size=6)
        live = list(service.search_stream(**query).events())
        replay = list(service.search_stream(**query).events())
        assert engine.calls == 1
        assert live[-1][1]["cached"] is False
        assert replay[-1][1]["cached"] is True
        assert replay[-1][1]["first_result_ms"] is not None

        def frames(events):
            # Wall-clock fields and the cached flag are per-session.
            return [
                (
                    name,
                    {
                        key: value
                        for key, value in payload.items()
                        if key not in ("elapsed_ms", "first_result_ms", "cached")
                    },
                )
                for name, payload in events
            ]

        assert frames(replay) == frames(live)
        assert [name for name, _ in live] == ["result"] * (len(live) - 1) + ["done"]
        assert len(live) > 1


# ----------------------------------------------------------------------
# Stress
# ----------------------------------------------------------------------
@pytest.mark.stress
def test_singleflight_stress(small_dblp_db):
    """Many threads, few distinct queries, repeated rounds: every reply
    for one round of one query is identical, and executions never
    exceed the number of distinct (query, round) pairs."""
    service = QueryService(
        small_dblp_db,
        ServiceConfig(workers=4, queue_size=64, cache_capacity=1),
    )
    try:
        queries = (["smith", "balmin"], ["smith", "query"])
        rounds = 5
        per_round = 8
        for _ in range(rounds):
            service.cache.clear()
            replies: dict[int, list] = {0: [None] * per_round, 1: [None] * per_round}
            errors = []

            def call(which, slot):
                try:
                    replies[which][slot] = service.search(
                        queries[which], k=5, max_size=6
                    )
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=call, args=(which, slot))
                for which in (0, 1)
                for slot in range(per_round)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not errors
            for which in (0, 1):
                results = [payload["results"] for payload in replies[which]]
                assert all(entry == results[0] for entry in results)
                assert results[0]
        flights = service._singleflight_flights.value
        assert flights <= rounds * len(queries)
    finally:
        service.close()
