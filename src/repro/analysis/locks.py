"""Lock discipline and concurrency hygiene (RA101-RA104).

A lightweight static race detector for the long-lived service process.
State shared across threads is *declared*, not guessed: the line that
initializes an attribute carries a guard annotation comment::

    class Counter:
        def __init__(self) -> None:
            self._value = 0.0          # guarded by: self._lock
            self._closed = False       # guarded by: self._lock [writes]

``guarded by`` demands that every read and write of the attribute inside
the class happens under ``with self.<lock>``.  The ``[writes]`` qualifier
covers the atomic-publication pattern (one reference assigned under the
lock, read lock-free): only writes must hold the lock.  ``__init__`` /
``__post_init__`` are exempt — construction happens before the object is
published to other threads.

Hygiene rules piggyback on the same ``with``-tracking walk:

* RA102 — no callback/hook invocation (names like ``on_*``, ``*hook*``,
  ``*callback*``, calls through ``observer``/``hooks``) and no blocking
  I/O (``print``/``open``/``input``) while holding a lock: a foreign
  callee can take arbitrary time or re-enter and deadlock;
* RA103 — no ``time.sleep`` while holding a lock;
* RA104 — ``threading.Thread(...)`` without ``daemon=True`` (a forgotten
  non-daemon thread blocks interpreter shutdown; anything that must
  outlive the main thread should say so with a suppression comment).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator

from .findings import Finding
from .source import Module

# The optional qualifier captures any word: ``[writes]`` is handled
# here; ``[rw]`` declares a ReadWriteLock-guarded artifact and belongs
# to the interprocedural checker (lockgraph.py RA108), so RA101 skips it.
_GUARD = re.compile(r"#\s*guarded by:\s*self\.(\w+)(?:\s*\[(\w+)\])?")

_CALLBACK_NAME = re.compile(r"^on_|hook|callback", re.IGNORECASE)
_CALLBACK_OWNER = re.compile(r"observer|hooks?$|callback", re.IGNORECASE)
_BLOCKING_BUILTINS = frozenset({"print", "open", "input"})
_INIT_METHODS = frozenset({"__init__", "__post_init__"})


@dataclass(frozen=True, slots=True)
class GuardSpec:
    """One guarded attribute: which lock, and whether reads are free."""

    attribute: str
    lock: str
    writes_only: bool
    line: int


def _self_attribute(node: ast.expr) -> str | None:
    """``self.<attr>`` -> attr name, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _assigned_self_attributes(node: ast.stmt) -> list[str]:
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    names = []
    for target in targets:
        attr = _self_attribute(target)
        if attr is not None:
            names.append(attr)
    return names


def collect_guards(module: Module, class_node: ast.ClassDef) -> dict[str, GuardSpec]:
    """Guard annotations declared anywhere inside one class body."""
    guards: dict[str, GuardSpec] = {}
    annotated_lines: dict[int, tuple[str, bool]] = {}
    end = class_node.end_lineno or class_node.lineno
    for number in range(class_node.lineno, end + 1):
        if number > len(module.lines):
            break
        match = _GUARD.search(module.lines[number - 1])
        if match and match.group(2) != "rw":
            annotated_lines[number] = (match.group(1), match.group(2) == "writes")
    if not annotated_lines:
        return guards
    for node in ast.walk(class_node):
        if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            continue
        annotation = annotated_lines.get(node.lineno)
        if annotation is None:
            continue
        lock, writes_only = annotation
        for attr in _assigned_self_attributes(node):
            guards[attr] = GuardSpec(attr, lock, writes_only, node.lineno)
    return guards


def _held_locks(item: ast.withitem) -> str | None:
    return _self_attribute(item.context_expr)


class _FunctionWalker:
    """Walks one method, tracking which ``self.<lock>`` locks are held."""

    def __init__(
        self,
        module: Module,
        checker: "LockChecker",
        guards: dict[str, GuardSpec],
        method_name: str,
    ) -> None:
        self.module = module
        self.checker = checker
        self.guards = guards
        self.exempt = method_name in _INIT_METHODS
        self.held: list[str] = []
        self.findings: list[Finding] = []

    # -- traversal ------------------------------------------------------
    def walk(self, node: ast.AST) -> None:
        if isinstance(node, ast.With):
            acquired = []
            for item in node.items:
                self.walk(item.context_expr)
                lock = _held_locks(item)
                if lock is not None:
                    acquired.append(lock)
            self.held.extend(acquired)
            for statement in node.body:
                self.walk(statement)
            del self.held[len(self.held) - len(acquired):]
            return
        if isinstance(node, ast.Attribute):
            self._check_attribute(node)
        elif isinstance(node, ast.Call):
            self._check_call(node)
        for child in ast.iter_child_nodes(node):
            self.walk(child)

    # -- RA101 ----------------------------------------------------------
    def _check_attribute(self, node: ast.Attribute) -> None:
        attr = _self_attribute(node)
        if attr is None:
            return
        spec = self.guards.get(attr)
        if spec is None or self.exempt or spec.lock in self.held:
            return
        is_write = isinstance(node.ctx, (ast.Store, ast.Del))
        if spec.writes_only and not is_write:
            return
        self._emit(
            node.lineno,
            "RA101",
            f"self.{attr} is guarded by self.{spec.lock} "
            f"(declared line {spec.line}) but "
            f"{'written' if is_write else 'read'} without holding it",
        )

    # -- RA102 / RA103 --------------------------------------------------
    def _check_call(self, node: ast.Call) -> None:
        if not self.held:
            if self.checker.flag_nondaemon_threads:
                self._check_thread(node)
            return
        self._check_thread(node)
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "sleep":
                self._emit(node.lineno, "RA103", "time.sleep while holding a lock")
            elif func.id in _BLOCKING_BUILTINS:
                self._emit(
                    node.lineno,
                    "RA102",
                    f"blocking call {func.id}() while holding a lock",
                )
            elif _CALLBACK_NAME.search(func.id):
                self._emit(
                    node.lineno,
                    "RA102",
                    f"callback {func.id}() invoked while holding a lock",
                )
            return
        if isinstance(func, ast.Attribute):
            if func.attr == "sleep":
                self._emit(node.lineno, "RA103", "time.sleep while holding a lock")
                return
            owner = func.value
            owner_name = None
            if isinstance(owner, ast.Name):
                owner_name = owner.id
            elif isinstance(owner, ast.Attribute):
                owner_name = owner.attr
            if _CALLBACK_NAME.search(func.attr) or (
                owner_name is not None and _CALLBACK_OWNER.search(owner_name)
            ):
                self._emit(
                    node.lineno,
                    "RA102",
                    f"callback {ast.unparse(func)}(...) invoked while "
                    "holding a lock",
                )

    # -- RA104 ----------------------------------------------------------
    def _check_thread(self, node: ast.Call) -> None:
        if not self.checker.flag_nondaemon_threads:
            return
        func = node.func
        is_thread = (isinstance(func, ast.Name) and func.id == "Thread") or (
            isinstance(func, ast.Attribute) and func.attr == "Thread"
        )
        if not is_thread:
            return
        for keyword in node.keywords:
            if keyword.arg == "daemon":
                if isinstance(keyword.value, ast.Constant) and keyword.value.value:
                    return
                break
        self._emit(
            node.lineno,
            "RA104",
            "thread created without daemon=True (would block interpreter "
            "shutdown)",
        )

    def _emit(self, line: int, rule: str, message: str) -> None:
        if not self.module.suppressed(line, rule):
            self.findings.append(self.module.finding(line, rule, message))


def _methods(class_node: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for node in class_node.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class LockChecker:
    """RA101-RA104 over every class of a module."""

    name = "locks"
    rules = ("RA101", "RA102", "RA103", "RA104")

    #: RA104 applies everywhere, including module level.
    flag_nondaemon_threads = True

    def check(self, module: Module) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            guards = collect_guards(module, node)
            for method in _methods(node):
                walker = _FunctionWalker(module, self, guards, method.name)
                for statement in method.body:
                    walker.walk(statement)
                findings.extend(walker.findings)
        # Module-level / free-function thread creation (RA104 only).
        walker = _FunctionWalker(module, self, {}, "<module>")
        class_spans = [
            (n.lineno, n.end_lineno or n.lineno)
            for n in ast.walk(module.tree)
            if isinstance(n, ast.ClassDef)
        ]
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                if any(start <= node.lineno <= end for start, end in class_spans):
                    continue
                walker._check_thread(node)
        findings.extend(walker.findings)
        return findings
