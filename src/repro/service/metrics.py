"""A dependency-free metrics registry with Prometheus text exposition.

The service layer needs runtime visibility — request counts, latency
percentiles, cache hit rates, queue depth — without pulling in a client
library (the repo is stdlib-only by design).  This module provides the
three classic instrument kinds:

* :class:`Counter` — monotonically increasing (requests served, loads
  shed, cache hits);
* :class:`Gauge` — a value that goes up and down (queue depth, in-flight
  requests);
* :class:`Histogram` — bucketed observations plus sum/count, from which
  Prometheus computes quantiles (request latency, result counts).

All instruments are thread-safe; the registry renders the standard
`text/plain; version=0.0.4` exposition format so a real Prometheus can
scrape ``GET /metrics`` unchanged.  Instruments support a single static
label set fixed at registration time (enough for per-endpoint and
per-outcome breakdowns without the cardinality machinery of a full
client).
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field

# Latency-oriented default buckets, in seconds (Prometheus' classic set).
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

# Per-stage latency buckets: pipeline stages (matching, CN generation,
# CTSSN reduction, planning, execution) are often sub-millisecond on the
# paper-scale databases, so the classic set is extended downward.
STAGE_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def _format_value(value: float) -> str:
    """Render ints without a trailing ``.0`` (Prometheus accepts both)."""
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


@dataclass
class Counter:
    """A monotonically increasing counter."""

    name: str
    help: str
    labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._value = 0.0  # guarded by: self._lock
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the current value."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    def advance_to(self, total: float) -> None:
        """Raise the value to ``total``, a count kept elsewhere (the cache's
        hits, admission's sheds); a lower ``total`` leaves it unchanged."""
        with self._lock:
            self._value = max(self._value, total)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def render(self) -> list[str]:
        """Render this metric in Prometheus text exposition format."""
        return [f"{self.name}{_format_labels(self.labels)} {_format_value(self.value)}"]


@dataclass
class Gauge:
    """A value that can rise and fall (queue depth, in-flight count)."""

    name: str
    help: str
    labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._value = 0.0  # guarded by: self._lock
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the current value with ``value``."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the current value."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` (default 1) from the current value."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def render(self) -> list[str]:
        """Render this metric in Prometheus text exposition format."""
        return [f"{self.name}{_format_labels(self.labels)} {_format_value(self.value)}"]


@dataclass
class Histogram:
    """Bucketed observations with cumulative Prometheus semantics."""

    name: str
    help: str
    labels: dict[str, str] = field(default_factory=dict)
    buckets: tuple[float, ...] = DEFAULT_BUCKETS

    def __post_init__(self) -> None:
        self.buckets = tuple(sorted(self.buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # guarded by: self._lock
        self._sum = 0.0  # guarded by: self._lock
        self._total = 0  # guarded by: self._lock
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record ``value`` into its histogram bucket and the sum."""
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._total += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._total

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket upper bounds (test/debug aid).

        Returns the upper bound of the bucket containing the q-th
        observation — the same estimate Prometheus' ``histogram_quantile``
        would produce with step interpolation disabled.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            total = self._total
            counts = list(self._counts)
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for index, count in enumerate(counts):
            cumulative += count
            if cumulative >= target and count:
                if index < len(self.buckets):
                    return self.buckets[index]
                return float("inf")
        return float("inf")

    def render(self) -> list[str]:
        """Render this metric in Prometheus text exposition format."""
        with self._lock:
            counts = list(self._counts)
            total = self._total
            observed_sum = self._sum
        lines = []
        cumulative = 0
        for bound, count in zip(self.buckets, counts):
            cumulative += count
            labels = dict(self.labels, le=_format_value(bound))
            lines.append(f"{self.name}_bucket{_format_labels(labels)} {cumulative}")
        labels = dict(self.labels, le="+Inf")
        lines.append(f"{self.name}_bucket{_format_labels(labels)} {total}")
        lines.append(
            f"{self.name}_sum{_format_labels(self.labels)} {_format_value(observed_sum)}"
        )
        lines.append(f"{self.name}_count{_format_labels(self.labels)} {total}")
        return lines


class MetricsRegistry:
    """Owns every instrument and renders the exposition text.

    Instruments sharing a name must share a type and help string (they
    are then distinct label series of one metric family), matching the
    Prometheus data model.
    """

    _TYPES = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[  # guarded by: self._lock
            tuple[str, tuple], Counter | Gauge | Histogram
        ] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """Get or create the counter named ``name`` with ``labels``."""
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """Get or create the gauge named ``name`` with ``labels``."""
        return self._register(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        """Get or create the histogram named ``name`` with ``labels``."""
        instrument = self._register(Histogram, name, help, labels, buckets=buckets)
        return instrument

    def _register(self, kind, name: str, help: str, labels: dict[str, str], **extra):
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}"
                    )
                return existing
            instrument = kind(name=name, help=help, labels=dict(labels), **extra)
            self._instruments[key] = instrument
            return instrument

    # ------------------------------------------------------------------
    def get(self, name: str, **labels: str) -> Counter | Gauge | Histogram | None:
        """Return the already-registered metric ``name`` with ``labels``."""
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            return self._instruments.get(key)

    def render(self) -> str:
        """The Prometheus text exposition (``text/plain; version=0.0.4``)."""
        with self._lock:
            instruments = list(self._instruments.values())
        families: dict[str, list[Counter | Gauge | Histogram]] = {}
        for instrument in instruments:
            families.setdefault(instrument.name, []).append(instrument)
        lines: list[str] = []
        for name in sorted(families):
            members = families[name]
            first = members[0]
            if first.help:
                lines.append(f"# HELP {name} {first.help}")
            lines.append(f"# TYPE {name} {self._TYPES[type(first)]}")
            for member in members:
                lines.extend(member.render())
        return "\n".join(lines) + "\n"
