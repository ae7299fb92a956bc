"""Incremental result delivery: :class:`ResultStream` and its plumbing.

The Fig 7 pipeline is inherently incremental — every result of a CTSSN
scores exactly ``ctssn.score``, and the final ranking is a stable sort
by ``(score, canonical_key, assignment)`` truncated at ``k``.  The
scheduler therefore does not have to wait for the last candidate
network: the moment *every* CN of the cheapest unfinished score band
has completed, that band's results are final and can be published in
ranked order.  :class:`_StreamEmitter` tracks that frontier inside
:meth:`repro.core.engine.XKeyword._run`; :class:`ResultStream` is the
thread-safe channel consumers iterate.

The contract (pinned by ``tests/core/test_streaming.py``): the
concatenation of published results is byte-identical to the buffered
ranked top-k returned by :meth:`XKeyword.search` — streaming changes
*when* results arrive, never *which* or *in what order*.

Multiple consumers may subscribe to one stream (single-flight batching
in the service attaches every concurrent identical request to one
execution): each :class:`StreamCursor` replays the full sequence from
the start, so late joiners lose nothing.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import TYPE_CHECKING, Callable, Iterator

from .results import MTTON

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .engine import SearchResult


class StreamCancelledError(RuntimeError):
    """Raised by consumers of a stream whose execution was cancelled."""


class StreamCursor:
    """One consumer's position in a :class:`ResultStream`.

    Cursors iterate the published prefix from index 0 and block until
    either a new result is published or the stream terminates.  They
    are cheap: the stream holds the data, a cursor is an index.
    """

    def __init__(self, stream: "ResultStream") -> None:
        """Bind a cursor at position 0 of ``stream``."""
        self._stream = stream
        self._index = 0
        self._closed = False

    def next(self, timeout: float | None = None) -> MTTON:
        """Return the next result, blocking up to ``timeout`` seconds.

        Raises :class:`StopIteration` when the stream has terminated and
        every published result has been consumed, :class:`TimeoutError`
        when ``timeout`` elapses first, and re-raises the stream's
        failure (or :class:`StreamCancelledError`) on error/cancel.
        """
        if self._closed:
            raise StopIteration
        item = self._stream._next(self._index, timeout)
        if item is _DONE:
            raise StopIteration
        self._index += 1
        return item

    def close(self) -> None:
        """Detach from the stream; subsequent :meth:`next` calls stop."""
        self._closed = True

    def __iter__(self) -> Iterator[MTTON]:
        """Iterate remaining results, blocking between publications."""
        return self

    def __next__(self) -> MTTON:
        """Iterator protocol: :meth:`next` with no timeout."""
        return self.next()


_DONE = object()


class ResultStream:
    """Thread-safe ordered channel of ranked results for one execution.

    The engine (via :class:`_StreamEmitter`) calls :meth:`publish` for
    each admitted result in final ranked order; the stream's owner —
    whoever created it and ran the search — calls exactly one of
    :meth:`complete` / :meth:`fail` at the end.  :meth:`complete` also
    publishes any ranked tail that was never streamed incrementally
    (e.g. the service's cached replay, which completes a fresh stream
    from a stored result), so consumers always see the full buffered
    top-k regardless of how incremental the producer was.

    Consumers either iterate a :meth:`subscribe` cursor for incremental
    delivery or block on :meth:`result` for the buffered
    :class:`~repro.core.engine.SearchResult`.
    """

    def __init__(self) -> None:
        """Create an open stream with no published results."""
        self._cond = threading.Condition()
        self._items: list[MTTON] = []  # guarded by: self._cond
        self._done = False  # guarded by: self._cond [writes]
        self._error: BaseException | None = None  # guarded by: self._cond [writes]
        self._result: "SearchResult | None" = None  # guarded by: self._cond [writes]
        self._cancel = threading.Event()
        self._started = time.perf_counter()
        self._first_at: float | None = None  # guarded by: self._cond [writes]

    # -- producer side -------------------------------------------------

    def publish(self, mtton: MTTON) -> None:
        """Append one ranked result and wake blocked consumers."""
        with self._cond:
            if self._done:
                return
            if self._first_at is None:
                self._first_at = time.perf_counter() - self._started
            self._items.append(mtton)
            self._cond.notify_all()

    def complete(self, result: "SearchResult") -> None:
        """Terminate successfully, publishing any unstreamed tail.

        Idempotent; a no-op if the stream already terminated.  After
        this call ``list(subscribe())`` equals ``result.mttons``.
        """
        with self._cond:
            if self._done:
                return
            tail = result.mttons[len(self._items):]
            if tail and self._first_at is None:
                self._first_at = time.perf_counter() - self._started
            self._items.extend(tail)
            self._result = result
            self._done = True
            self._cond.notify_all()

    def fail(self, error: BaseException) -> None:
        """Terminate with ``error``; a no-op if already terminated."""
        with self._cond:
            if self._done:
                return
            self._error = error
            self._done = True
            self._cond.notify_all()

    def cancel(self) -> None:
        """Ask the producer to stop early.

        The engine checks :attr:`cancelled` between results, stops the
        running CN and skips the rest; the stream then terminates via
        :meth:`complete` (with whatever was already final) or
        :meth:`fail`.  Cancelling an already-terminated stream is a
        no-op signal-wise (the flag is still set for the producer).
        """
        self._cancel.set()

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` was called."""
        return self._cancel.is_set()

    # -- consumer side -------------------------------------------------

    @property
    def emitted(self) -> int:
        """Number of results published so far."""
        with self._cond:
            return len(self._items)

    @property
    def done(self) -> bool:
        """True once the stream terminated (success or failure)."""
        with self._cond:
            return self._done

    @property
    def first_result_seconds(self) -> float | None:
        """Seconds from stream creation to the first published result."""
        with self._cond:
            return self._first_at

    def subscribe(self) -> StreamCursor:
        """Return a new cursor replaying the stream from the start."""
        return StreamCursor(self)

    def __iter__(self) -> Iterator[MTTON]:
        """Iterate all results via a fresh cursor (blocks as needed)."""
        return iter(self.subscribe())

    def result(self, timeout: float | None = None) -> "SearchResult":
        """Block until completion and return the buffered result.

        Raises :class:`TimeoutError` if the stream does not terminate
        within ``timeout`` seconds, the producer's error if it failed,
        or :class:`StreamCancelledError` if cancelled without a result.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._done:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError("stream did not complete in time")
                self._cond.wait(remaining)
            if self._error is not None:
                raise self._error
            if self._result is None:
                raise StreamCancelledError("stream cancelled before completion")
            return self._result

    def _next(self, index: int, timeout: float | None) -> object:
        """Return item ``index``, ``_DONE`` past the end, or raise."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if index < len(self._items):
                    return self._items[index]
                if self._done:
                    if self._error is not None:
                        raise self._error
                    if self._result is None and self._cancel.is_set():
                        raise StreamCancelledError("stream cancelled")
                    return _DONE
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError("timed out waiting for next result")
                self._cond.wait(remaining)


class _StreamEmitter:
    """Score-band frontier that publishes results in final ranked order.

    Every result of a CTSSN scores exactly ``ctssn.score``.  The
    emitter groups results by score and releases a band only once *all*
    CNs of that score — and of every cheaper score — have finished
    (executed, bound-pruned, or abandoned), sorting the band by the
    engine's full ranking key first.  The released prefix is therefore
    identical to the buffered ``sort + [:limit]``; see the module
    docstring for the argument.
    """

    def __init__(
        self,
        stream: ResultStream,
        scores: list[int],
        limit: int | None,
        *,
        on_first: Callable[[float], None] | None = None,
        on_emit: Callable[[int, MTTON], None] | None = None,
    ) -> None:
        """Track one planned execution.

        ``scores`` is the score of every planned CN (duplicates
        expected — one entry, and one completion signal, per CN).
        ``on_first`` fires with elapsed seconds at the first
        publication; ``on_emit`` fires per published result with its
        1-based rank (used for per-event trace spans).
        """
        self._stream = stream
        self._remaining = Counter(scores)
        self._bands: dict[int, list[MTTON]] = {}
        self._order = sorted(self._remaining)  # ascending score bands
        self._next_band = 0
        self._budget = limit
        self._rank = 0
        self._started = time.perf_counter()
        self._on_first = on_first
        self._on_emit = on_emit

    @property
    def cancelled(self) -> bool:
        """True when the consumer side asked the engine to stop."""
        return self._stream.cancelled

    def offer(self, mtton: MTTON) -> None:
        """Buffer one produced result in its score band."""
        self._bands.setdefault(mtton.score, []).append(mtton)

    def cn_done(self, score: int) -> None:
        """Record one CN completion signal and flush finished bands."""
        ready: list[MTTON] = []
        self._remaining[score] -= 1
        while self._next_band < len(self._order):
            band = self._order[self._next_band]
            if self._remaining[band] > 0:
                break
            self._next_band += 1
            if self._budget is not None and self._budget <= 0:
                continue
            results = self._bands.pop(band, [])
            results.sort(key=lambda m: (m.score, m.ctssn.canonical_key, m.assignment))
            if self._budget is not None:
                results = results[: self._budget]
                self._budget -= len(results)
            ready.extend(results)
        if self._rank == 0 and ready and self._on_first is not None:
            self._on_first(time.perf_counter() - self._started)
        for mtton in ready:
            self._rank += 1
            self._stream.publish(mtton)
            if self._on_emit is not None:
                self._on_emit(self._rank, mtton)
