"""Arithmetic the benchmark reports with: percentiles, SSE framing,
``/metrics`` deltas and span self time.  No I/O and no ``repro`` import,
so each rule is unit-tested on canned input (``tests/``)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

TAIL_SAMPLES = 10
"""A percentile is reported only with at least this many samples
beyond it (choosing-metrics §1), so p90 needs 100 samples."""


def metric(value, unit: str, samples: int | None = None) -> dict:
    """One reported number: value (``None`` = no samples), unit, and the
    sample count where the number is a statistic."""
    entry = {"value": value, "unit": unit}
    if samples is not None:
        entry["samples"] = samples
    return entry


def median(values: list[float]) -> float | None:
    return percentile(values, 50)


def percentile(values: list[float], percent: float) -> float | None:
    """Linear-interpolated percentile, or ``None`` when it is not
    supported: no samples, or fewer than ``TAIL_SAMPLES`` beyond a
    percentile above the median."""
    if not values:
        return None
    if percent > 50 and len(values) * (100 - percent) / 100 < TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    position = (len(ordered) - 1) * percent / 100
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


# ----------------------------------------------------------------------
# Server-Sent Events
# ----------------------------------------------------------------------
@dataclass
class SSEParser:
    """Incremental parser of one ``/search`` event stream.

    Feed it each line with the time it was read; it keeps the time of
    the first ``event: result`` line, the result payloads in arrival
    order, and the ``done`` (or ``error``) payload.
    """

    first_result_at: float | None = None
    results: list[dict] = field(default_factory=list)
    done: dict | None = None
    error: dict | None = None
    _event: str | None = None

    def feed(self, line: bytes, now: float) -> None:
        text = line.decode().rstrip("\r\n")
        if text.startswith("event:"):
            self._event = text[len("event:"):].strip()
            if self._event == "result" and self.first_result_at is None:
                self.first_result_at = now
        elif text.startswith("data:") and self._event is not None:
            payload = json.loads(text[len("data:"):])
            if self._event == "result":
                self.results.append(payload)
            elif self._event == "done":
                self.done = payload
            elif self._event == "error":
                self.error = payload
        elif not text:
            self._event = None


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def parse_exposition(text: str) -> dict[str, float]:
    """``{"name{labels}": value}`` for every sample line of a scrape."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        samples[series] = float(value)
    return samples


def series_delta(before: dict[str, float], after: dict[str, float], name: str) -> float:
    """Growth of one counter between two scrapes, summed over its label
    sets (``name`` matches ``name`` and ``name{...}``)."""
    def total(samples: dict[str, float]) -> float:
        return sum(
            value
            for series, value in samples.items()
            if series == name or series.startswith(name + "{")
        )

    return total(after) - total(before)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    ident: int
    name: str
    request: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to the parent and overlapping children are
    counted once (interval union), so self time is never negative.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.ident, []), key=lambda c: c.start):
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.ident] = span.duration - covered
    return result


def mean_ms_per_request(spans: list[Span], name: str) -> float:
    """Total time under spans called ``name``, in ms per request that has one."""
    matching = [span for span in spans if span.name == name]
    requests = {span.request for span in matching}
    if not requests:
        return 0.0
    return 1000.0 * sum(span.duration for span in matching) / len(requests)


def staged_account(spans: list[Span], parent: str, stages: tuple[str, ...]) -> dict:
    """How much of the ``parent`` span the separately replayed ``stages``
    explain: their summed mean, its share of the parent, the remainder."""
    parent_ms = mean_ms_per_request(spans, parent)
    staged_ms = sum(mean_ms_per_request(spans, stage) for stage in stages)
    return {
        "parent_ms": parent_ms,
        "staged_ms": staged_ms,
        "share": ratio(staged_ms, parent_ms),
        "unattributed_ms": parent_ms - staged_ms,
    }
