"""Runtime lock sanitizer (RS401, RS402), enabled by ``REPRO_SANITIZE=1``.

The static half (:mod:`repro.analysis.lockgraph`) proves what *can*
happen; this module watches what *does*.  When enabled it wraps
``threading.Lock`` allocations made by project modules and instruments
:class:`repro.updates.rwlock.ReadWriteLock` at the class level, so every
acquisition

* pushes the lock onto the thread's held stack, and
* records one ``held -> acquired`` edge per lock already on that stack,
  keyed by the pair.  ``dict.setdefault`` is atomic under the GIL, so
  recording never takes a lock and cannot deadlock the code under
  test; an edge seen once is kept for the whole run.

:func:`report` merges the observed edges with the static lock graph and
emits findings through the same
:class:`~repro.analysis.findings.Finding` pipeline as the lint:

* **RS401** — the merged static+dynamic order graph has a cycle with at
  least one dynamically observed edge (pure-static cycles are RA105's).
* **RS402** — a thread was observed acquiring the write side of a
  ``ReadWriteLock`` while holding its read side.  Detected *online* and
  raised immediately: letting the acquisition proceed would deadlock
  the test run under writer preference.

Suppression mirrors the static side: a ``# analysis: ignore[RS401]``
comment on the source line of the recorded site silences that finding.

Usage::

    REPRO_SANITIZE=1 python -m pytest -m stress   # via tests/conftest.py

or programmatically::

    from repro.analysis import sanitizer
    sanitizer.enable()
    ...
    findings = sanitizer.report()

When never enabled the module is inert: ``threading.Lock`` and the
``ReadWriteLock`` methods are the pristine originals (asserted by
identity in ``tests/analysis/test_sanitizer.py``), so production pays
nothing.
"""

from __future__ import annotations

import atexit
import linecache
import os
import re
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

from ..updates.rwlock import ReadWriteLock
from .findings import Finding

_SUPPRESS = re.compile(r"#\s*analysis:\s*ignore\[([A-Z0-9, ]+)\]")

_original_lock = threading.Lock
_original_rwlock_methods: dict[str, object] = {}

_enabled = False
_prefixes: tuple[str, ...] = ("repro",)
_held = threading.local()
_online_findings: list[Finding] = []
_online_lock = _original_lock()  # protects _online_findings only


@dataclass(frozen=True, slots=True)
class ObservedEdge:
    """One dynamically observed 'held -> acquired' edge."""

    held: str
    acquired: str
    path: str
    line: int


_edges: dict[tuple[str, str], ObservedEdge] = {}


class SanitizerDeadlockError(RuntimeError):
    """Raised on an observed read->write upgrade (RS402): proceeding
    would genuinely deadlock under writer preference."""


# ---------------------------------------------------------------------------
# Recording primitives
# ---------------------------------------------------------------------------
def _held_stack() -> list:
    stack = getattr(_held, "stack", None)
    if stack is None:
        stack = []
        _held.stack = stack
    return stack


def _acquired(lock_id: int, name: str, mode: str) -> None:
    """Record ``held -> name`` for every lock this thread already holds,
    then push ``name`` onto its held stack."""
    stack = _held_stack()
    if stack:
        path, line = _caller_site()
        for _, held_name, _ in stack:
            if held_name != name and (held_name, name) not in _edges:
                # Lock-free: setdefault is one atomic dict operation.
                _edges.setdefault(
                    (held_name, name), ObservedEdge(held_name, name, path, line)
                )
    stack.append((lock_id, name, mode))


def _released(lock_id: int, mode: str | None = None) -> None:
    stack = _held_stack()
    for index in range(len(stack) - 1, -1, -1):
        if stack[index][0] == lock_id and mode in (None, stack[index][2]):
            del stack[index]
            return


def _caller_site() -> tuple[str, int]:
    """The first frame outside this module: who acquired or created."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame = frame.f_back
    if frame is None:
        return ("<unknown>", 0)
    return (frame.f_code.co_filename, frame.f_lineno)


def _suppressed_at(path: str, line: int, rule: str) -> bool:
    """Honour ``# analysis: ignore[RS...]`` lazily, from the live source."""
    text = linecache.getline(path, line)
    match = _SUPPRESS.search(text)
    if not match:
        return False
    rules = {part.strip() for part in match.group(1).split(",")}
    return rule in rules


def _emit_online(finding: Finding) -> None:
    if _suppressed_at(finding.path, finding.line, finding.rule):
        return
    with _online_lock:
        _online_findings.append(finding)


# ---------------------------------------------------------------------------
# Instrumented lock types
# ---------------------------------------------------------------------------
class TrackedLock:
    """Drop-in ``threading.Lock`` recording acquisitions per thread."""

    __slots__ = ("_lock", "name")

    def __init__(self, name: str) -> None:
        self._lock = _original_lock()
        self.name = name

    def acquire(self, *args, **kwargs) -> bool:
        acquired = self._lock.acquire(*args, **kwargs)
        if acquired:
            _acquired(id(self), self.name, "exclusive")
        return acquired

    def release(self) -> None:
        self._lock.release()
        _released(id(self))

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


def _lock_factory():
    """Replacement for ``threading.Lock``: wraps only project allocations."""
    frame = sys._getframe(1)
    module = frame.f_globals.get("__name__", "")
    if not module.startswith(_prefixes):
        return _original_lock()
    path, line = frame.f_code.co_filename, frame.f_lineno
    name = _static_name(path, line) or f"{Path(path).name}:{line}"
    return TrackedLock(name)


def _instrument_rwlock() -> None:
    """Class-level wrappers over the four ReadWriteLock primitives."""
    _original_rwlock_methods.update(
        {
            "__init__": ReadWriteLock.__init__,
            "acquire_read": ReadWriteLock.acquire_read,
            "release_read": ReadWriteLock.release_read,
            "acquire_write": ReadWriteLock.acquire_write,
            "release_write": ReadWriteLock.release_write,
        }
    )
    original = _original_rwlock_methods

    def __init__(self) -> None:
        original["__init__"](self)
        path, line = _caller_site()
        self._sanitizer_name = _static_name(path, line) or (
            f"{Path(path).name}:{line}"
        )

    def _name(self) -> str:
        return getattr(self, "_sanitizer_name", "ReadWriteLock")

    def acquire_read(self) -> None:
        original["acquire_read"](self)
        _acquired(id(self), _name(self), "read")

    def release_read(self) -> None:
        original["release_read"](self)
        _released(id(self), "read")

    def acquire_write(self) -> None:
        holds_read = any(
            entry[0] == id(self) and entry[2] == "read" for entry in _held_stack()
        )
        if holds_read:
            path, line = _caller_site()
            # RS402 — record, then refuse: blocking here would hang the
            # whole run (the writer waits for this very thread's read).
            finding = Finding(
                path,
                line,
                "RS402",
                f"read->write upgrade observed on {_name(self)} "
                f"(thread {threading.current_thread().name}); writer "
                "preference makes this a self-deadlock",
            )
            _emit_online(finding)
            raise SanitizerDeadlockError(finding.render())
        original["acquire_write"](self)
        _acquired(id(self), _name(self), "write")

    def release_write(self) -> None:
        original["release_write"](self)
        _released(id(self), "write")

    ReadWriteLock.__init__ = __init__
    ReadWriteLock.acquire_read = acquire_read
    ReadWriteLock.release_read = release_read
    ReadWriteLock.acquire_write = acquire_write
    ReadWriteLock.release_write = release_write


# ---------------------------------------------------------------------------
# Static correlation
# ---------------------------------------------------------------------------
_static_decls: dict[tuple[str, int], str] | None = None


def _static_graph():
    """A fresh static lock graph over the installed package (callers add
    observed edges to it)."""
    from .lockgraph import LockGraphChecker
    from .source import load_modules

    root = Path(__file__).resolve().parent.parent
    checker = LockGraphChecker()
    checker.check_project(load_modules(root))
    return checker.graph


def _static_name(path: str, line: int) -> str | None:
    """Map a creation site back to its static ``Class.attr`` identity."""
    global _static_decls
    if _static_decls is None:
        try:
            graph = _static_graph()
        except Exception:  # pragma: no cover - source tree unavailable
            _static_decls = {}
        else:
            _static_decls = {
                (decl.path, decl.line): key for key, decl in graph.locks.items()
            }
    return _static_decls.get((path, line))


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------
def enabled() -> bool:
    return _enabled


def enable(prefixes: tuple[str, ...] = ("repro",)) -> None:
    """Start instrumenting lock allocations made by ``prefixes`` modules."""
    global _enabled, _prefixes
    if _enabled:
        return
    _prefixes = prefixes
    threading.Lock = _lock_factory
    _instrument_rwlock()
    _enabled = True
    atexit.register(_exit_hook)


def disable() -> None:
    """Restore the pristine primitives (existing wrappers keep working)."""
    global _enabled
    if not _enabled:
        return
    threading.Lock = _original_lock
    for name, method in _original_rwlock_methods.items():
        setattr(ReadWriteLock, name, method)
    _original_rwlock_methods.clear()
    _enabled = False
    try:
        atexit.unregister(_exit_hook)
    except Exception:  # pragma: no cover
        pass


def reset() -> None:
    """Drop recorded edges and findings (tests call this between cases)."""
    with _online_lock:
        _online_findings.clear()
    _edges.clear()


def observed_edges() -> list[ObservedEdge]:
    """Every acquisition-order edge observed since the last reset."""
    edges = _edges.copy()  # one atomic copy: other threads may be adding
    return [edges[key] for key in sorted(edges)]


def report() -> list[Finding]:
    """All sanitizer findings so far: online RS402 plus RS401 from
    merging observed acquisition order into the static lock graph."""
    with _online_lock:
        findings = list(_online_findings)
    dynamic = observed_edges()
    if dynamic:
        from .lockgraph import LockDecl, OrderEdge

        graph = _static_graph()
        static_pairs = set(graph.edge_set())
        for edge in dynamic:
            for name in (edge.held, edge.acquired):
                if name not in graph.locks:
                    graph.locks[name] = LockDecl(name, "lock", edge.path, edge.line)
            graph.edges.append(
                OrderEdge(edge.held, edge.acquired, edge.path, edge.line, "observed")
            )
        for cycle in graph.cycles():
            dynamic_in_cycle = [
                edge for edge in cycle if (edge.held, edge.acquired) not in static_pairs
            ]
            if not dynamic_in_cycle:
                continue  # purely static: RA105 already covers it
            site = dynamic_in_cycle[0]
            if _suppressed_at(site.path, site.line, "RS401"):
                continue
            description = "; ".join(
                f"{edge.held} -> {edge.acquired}" for edge in cycle
            )
            findings.append(
                Finding(
                    site.path,
                    site.line,
                    "RS401",
                    f"dynamic lock-order inversion: {description} "
                    f"(observed edge at {Path(site.path).name}:{site.line})",
                )
            )
    findings.sort(key=Finding.sort_key)
    # One finding per (site, rule): an upgrade retried at one site
    # records RS402 once per attempt.
    unique: dict[tuple[str, int, str], Finding] = {}
    for finding in findings:
        unique.setdefault((finding.path, finding.line, finding.rule), finding)
    return list(unique.values())


def _exit_hook() -> None:  # pragma: no cover - exercised via subprocess test
    if not _enabled:
        return
    findings = report()
    if findings:
        print("\nrepro sanitizer: findings at exit:", file=sys.stderr)
        for finding in findings:
            print(f"  {finding.render()}", file=sys.stderr)
        # A nonzero exit from atexit: flush, then hard-exit so the
        # failure cannot be swallowed by later handlers.
        sys.stderr.flush()
        os._exit(1)
