"""Span trees: the per-query record of *where time went*.

A :class:`QueryTrace` is a tree of :class:`Span` objects covering one
keyword search — matching, CN generation, CTSSN reduction, then one
subtree per candidate network holding its plan (with the optimizer's
``estimate_results`` prediction) and its execution (with actual result
counts and per-relation focused-lookup provenance).  The paper's entire
experimental section argues about exactly these stage splits (Figures
15–16); a trace answers the same question for a single production query.

Two render targets share one structure: :meth:`QueryTrace.render`
produces the ``--explain`` text tree, :meth:`QueryTrace.to_dict` the
JSON served by ``GET /debug/trace/<id>``.

Tracing follows the null-object pattern: when no tracer is installed the
engine talks to :data:`NULL_TRACE` / :data:`NULL_SPAN`, whose methods do
nothing and allocate nothing, so the disabled path costs a handful of
no-op calls per query (``benchmarks/e2e``'s ``trace.overhead_pct``
measures a traced over an untraced ``QueryService`` miss).

A trace has one writer, the thread running its search, and holds no
lock: readers (``--explain``, ``GET /debug/trace``) see it only after
:meth:`repro.trace.Tracer.finish` has closed it.
"""

from __future__ import annotations

import time
import uuid
from typing import Iterator


class Span:
    """One timed stage of a query, with attributes and child spans.

    Attributes:
        name: Stage name (``matching``, ``cn``, ``plan``, ``execute``...).
        attributes: Free-form key -> value annotations; the ``detail``
            key is rendered as an indented block instead of inline.
        lookups: Per-relation focused-lookup provenance, relation name ->
            ``{"dbms": n, "cached": n, "rows": n}`` (rows counts
            DBMS-fetched rows only; cached probes re-serve stored rows).
    """

    __slots__ = ("name", "attributes", "lookups", "start", "end", "children")

    enabled = True

    def __init__(self, name: str, **attributes) -> None:
        """
        Args:
            name: Stage name shown in renders.
            **attributes: Initial annotations.
        """
        self.name = name
        self.attributes: dict = dict(attributes)
        self.lookups: dict[str, dict[str, int]] = {}
        self.start = time.perf_counter()
        self.end: float | None = None
        self.children: list[Span] = []

    def annotate(self, **attributes) -> None:
        """Attach or overwrite attributes on this span."""
        self.attributes.update(attributes)

    def record_lookup(self, relation_name: str, rows: int, cached: bool) -> None:
        """Aggregate one focused lookup into this span's provenance.

        Args:
            relation_name: The connection relation probed.
            rows: Rows returned by this probe.
            cached: True if served from the shared lookup cache rather
                than the DBMS.
        """
        stats = self.lookups.get(relation_name)
        if stats is None:
            stats = {"dbms": 0, "cached": 0, "rows": 0}
            self.lookups[relation_name] = stats
        if cached:
            stats["cached"] += 1
        else:
            stats["dbms"] += 1
            stats["rows"] += rows

    def child(self, name: str, **attributes) -> "Span":
        """Open a child span (started immediately)."""
        span = Span(name, **attributes)
        self.children.append(span)
        return span

    def finish(self) -> None:
        """Close the span; the first call wins, later calls are no-ops."""
        if self.end is None:
            self.end = time.perf_counter()

    @property
    def duration_seconds(self) -> float:
        """Elapsed seconds; open spans read as elapsed-so-far."""
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    def to_dict(self, origin: float) -> dict:
        """JSON-ready form; ``origin`` is the trace's perf_counter zero."""
        payload: dict = {
            "name": self.name,
            "start_ms": round((self.start - origin) * 1000.0, 3),
            "duration_ms": round(self.duration_seconds * 1000.0, 3),
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.lookups:
            payload["lookups"] = {k: dict(v) for k, v in self.lookups.items()}
        if self.children:
            payload["children"] = [c.to_dict(origin) for c in self.children]
        return payload


class NullSpan:
    """The disabled span: every operation is a no-op.

    A single module-level instance (:data:`NULL_SPAN`) stands in for
    every span when tracing is off, so the instrumented code never
    branches on "is tracing enabled" — it just calls methods that do
    nothing.
    """

    __slots__ = ()

    enabled = False

    def annotate(self, **attributes) -> None:
        """Discard annotations."""

    def record_lookup(self, relation_name: str, rows: int, cached: bool) -> None:
        """Discard the lookup record."""

    def child(self, name: str, **attributes) -> "NullSpan":
        """Return the shared null span."""
        return self

    def finish(self) -> None:
        """Do nothing."""


NULL_SPAN = NullSpan()


class QueryTrace:
    """The span tree of one keyword search, addressable by trace id."""

    enabled = True

    def __init__(self, query_text: str, trace_id: str | None = None, **attributes) -> None:
        """
        Args:
            query_text: Human-readable query (shown in renders/listings).
            trace_id: Explicit id; a fresh UUID hex by default.
            **attributes: Root-span annotations (k, mode, ...).
        """
        self.trace_id = trace_id or uuid.uuid4().hex
        self.query_text = query_text
        self.started_at = time.time()
        self.root = Span("search", **attributes)

    def span(self, name: str, parent: Span | None = None, **attributes) -> Span:
        """Open a span under ``parent`` (the root by default)."""
        return (parent or self.root).child(name, **attributes)

    def finish(self) -> None:
        """Close the root span (idempotent)."""
        self.root.finish()

    @property
    def duration_seconds(self) -> float:
        """Wall-clock seconds covered by the root span."""
        return self.root.duration_seconds

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The JSON form served by ``GET /debug/trace/<id>``."""
        return {
            "trace_id": self.trace_id,
            "query": self.query_text,
            "started_at": round(self.started_at, 6),
            "duration_ms": round(self.duration_seconds * 1000.0, 3),
            "root": self.root.to_dict(self.root.start),
        }

    def summary(self) -> dict:
        """One listing row for ``GET /debug/traces``."""
        return {
            "trace_id": self.trace_id,
            "query": self.query_text,
            "started_at": round(self.started_at, 6),
            "duration_ms": round(self.duration_seconds * 1000.0, 3),
        }

    def render(self) -> str:
        """The ``--explain`` text tree."""
        lines = [
            f"trace {self.trace_id}  query={self.query_text!r}  "
            f"({self.duration_seconds * 1000.0:.1f} ms)"
        ]
        children = self.root.children
        for index, child in enumerate(children):
            lines.extend(_render_span(child, "", index == len(children) - 1))
        return "\n".join(lines)


def _format_attribute(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, dict):
        inner = ", ".join(f"{k}={_format_attribute(v)}" for k, v in value.items())
        return "{" + inner + "}"
    text = str(value)
    # Long free-text attributes (e.g. the sql backend's compiled
    # statement) would swallow the tree; elide mid-line instead.
    if len(text) > 200:
        text = text[:160] + " ... " + text[-32:]
    return text


def _render_span(span: Span, prefix: str, last: bool) -> Iterator[str]:
    connector = "`-" if last else "|-"
    attrs = " ".join(
        f"{key}={_format_attribute(value)}"
        for key, value in span.attributes.items()
        if key != "detail"
    )
    header = f"{prefix}{connector} {span.name} ({span.duration_seconds * 1000.0:.1f} ms)"
    yield header + (f"  {attrs}" if attrs else "")
    child_prefix = prefix + ("   " if last else "|  ")
    detail = span.attributes.get("detail")
    if detail:
        for line in str(detail).splitlines():
            yield f"{child_prefix}   {line}"
    for relation in sorted(span.lookups):
        stats = span.lookups[relation]
        yield (
            f"{child_prefix}   lookup {relation}: dbms={stats['dbms']} "
            f"cached={stats['cached']} rows={stats['rows']}"
        )
    children = span.children
    for index, child in enumerate(children):
        yield from _render_span(child, child_prefix, index == len(children) - 1)


class NullTrace:
    """The disabled trace: hands out :data:`NULL_SPAN` and records nothing."""

    __slots__ = ()

    enabled = False
    trace_id = ""
    root = NULL_SPAN

    def span(self, name: str, parent=None, **attributes) -> NullSpan:
        """Return the shared null span."""
        return NULL_SPAN

    def finish(self) -> None:
        """Do nothing."""


NULL_TRACE = NullTrace()
