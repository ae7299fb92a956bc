"""Interprocedural lock-graph analysis (RA101, RA105, RA107).

This checker reasons about how locks **compose** across method and
module boundaries.  It builds a project-wide lock-acquisition graph
from stdlib :mod:`ast` alone:

1. **Lock registry** — every ``self.<attr> = threading.Lock() /
   RLock() / Condition() / ReadWriteLock()`` assignment declares a lock
   named ``Class._attr`` (read/write sides of a
   :class:`~repro.updates.rwlock.ReadWriteLock` share one node).
2. **Call resolution** — ``self.method()`` within a class,
   ``self.<attr>.method()`` where the attribute's class is known from
   its ``__init__`` assignment or a parameter annotation, local
   ``name = self.<attr>`` aliases, ``name = Class(...)`` locals of a
   project class, and module-level project functions
   reached through imports.  Unresolvable calls are skipped (the
   checker under-approximates; it never guesses).
3. **Summaries** — for each method/function, the set of locks it may
   transitively acquire and the blocking operations it may reach,
   memoized over the call graph (cycles fall back to the empty
   summary).

Over that graph three rules fire:

* **RA101** — guard discipline.  State shared across threads is
  *declared* on the line that initializes it::

      self._value = 0.0      # guarded by: self._lock
      self._closed = False   # guarded by: self._lock [writes]
      self._documents = {}   # guarded by: self._rwlock [rw]

  A plain guard demands the lock for every read and write; ``[writes]``
  (atomic publication: one reference assigned under the lock, read
  lock-free) only for writes; ``[rw]`` (a ``ReadWriteLock``) either side
  for reads and the write side for writes.  A lock counts as held when
  the method holds it or when *every* intra-class caller holds it at
  the call site, so private helpers of a locked entry point need no
  annotation.  ``__init__``/``__post_init__`` are exempt: construction
  happens before the object is published to other threads.
* **RA105** — lock-order inversion: the union of all observed
  "A held while acquiring B" edges contains a cycle.  Every edge site
  in the cycle is reported.  Self-cycles on non-reentrant locks (a
  plain ``Lock`` re-acquired while held) are reported too; RLocks and
  Conditions are reentrant and exempt.
* **RA107** — blocking operation reachable while holding a lock:
  sqlite ``commit``/``execute``/``executemany``/``executescript``,
  socket I/O (``recv``/``sendall``/``accept``/``connect``), ``sleep``,
  ``print``/``open``/``input``, ``Event.wait`` (a ``wait`` on the held
  condition itself is exempt — that *releases* the lock), and
  ``pool.submit(...).result()``.
  By-design blocking (e.g. persisting an index delta under the write
  lock) is allowlisted per line::

      loaded.database.commit()  # analysis: blocking-ok[mutations must
                                # publish durably before releasing]

The same edge set powers ``python -m repro.analysis --lock-graph`` and
is what the runtime sanitizer (:mod:`repro.analysis.sanitizer`) merges
its observed acquisition order into.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from .findings import Finding
from .source import Module

_BLOCKING_OK = re.compile(r"#\s*analysis:\s*blocking-ok\[")
_GUARD = re.compile(r"#\s*guarded by:\s*self\.(\w+)(?:\s*\[(writes|rw)\])?")

#: Constructor names that declare a lock attribute, with the lock kind.
_LOCK_CONSTRUCTORS = {
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "condition",
    "ReadWriteLock": "rwlock",
}
_REENTRANT_KINDS = frozenset({"rlock", "condition"})

#: Method names that block the calling thread (RA107).  Deliberately
#: excludes anything generic enough to collide with domain methods
#: (``read``/``write``/``join``/``get``).
_BLOCKING_METHODS = frozenset(
    {
        "commit",
        "execute",
        "executemany",
        "executescript",
        "recv",
        "recv_into",
        "sendall",
        "accept",
        "connect",
        "urlopen",
        "sleep",
    }
)
#: Builtins (and ``from time import sleep``) that block when called directly.
_BLOCKING_FUNCTIONS = frozenset({"print", "open", "input", "sleep"})
_INIT_METHODS = frozenset({"__init__", "__post_init__"})


@dataclass(frozen=True, slots=True)
class LockDecl:
    """One declared lock attribute: ``Class._attr`` plus its kind."""

    key: str
    kind: str
    path: str
    line: int


@dataclass(frozen=True, slots=True)
class Acquisition:
    """A lock acquisition a callable may (transitively) perform."""

    key: str
    path: str
    line: int
    chain: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class GuardSpec:
    """One ``# guarded by:`` declaration: the lock and its qualifier."""

    lock: str
    qualifier: str | None  # None | "writes" | "rw"
    line: int


@dataclass(frozen=True, slots=True)
class BlockingOp:
    """A blocking call a callable may (transitively) reach."""

    description: str
    path: str
    line: int
    chain: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class OrderEdge:
    """``held`` was held while ``acquired`` was acquired at ``site``."""

    held: str
    acquired: str
    path: str
    line: int
    detail: str


@dataclass
class Summary:
    """Transitive effects of one method or function."""

    acquires: list[Acquisition] = field(default_factory=list)
    blocking: list[BlockingOp] = field(default_factory=list)


@dataclass
class ClassInfo:
    """Everything the walker needs to know about one project class."""

    name: str
    module: Module
    node: ast.ClassDef
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    locks: dict[str, LockDecl] = field(default_factory=dict)
    attr_classes: dict[str, str] = field(default_factory=dict)
    guards: dict[str, GuardSpec] = field(default_factory=dict)


@dataclass
class LockGraph:
    """The project's locks and every observed acquisition-order edge."""

    locks: dict[str, LockDecl] = field(default_factory=dict)
    edges: list[OrderEdge] = field(default_factory=list)

    def edge_set(self) -> dict[tuple[str, str], OrderEdge]:
        """One representative edge per (held, acquired) pair."""
        representative: dict[tuple[str, str], OrderEdge] = {}
        for edge in self.edges:
            representative.setdefault((edge.held, edge.acquired), edge)
        return representative

    def cycles(self) -> list[list[OrderEdge]]:
        """Every elementary acquisition-order cycle, deterministically.

        The graph is tiny (one node per declared lock), so a DFS over
        the deduplicated edge set is plenty.  Self-edges on reentrant
        locks were never added, so any cycle found is a real hazard.
        """
        edges = self.edge_set()
        adjacency: dict[str, list[str]] = {}
        for held, acquired in sorted(edges):
            adjacency.setdefault(held, []).append(acquired)
        cycles: list[list[OrderEdge]] = []
        seen_cycles: set[tuple[str, ...]] = set()

        def search(start: str, node: str, trail: list[str]) -> None:
            for successor in adjacency.get(node, ()):  # sorted above
                if successor == start:
                    cycle = trail + [node]
                    key = tuple(sorted(cycle))
                    if key not in seen_cycles:
                        seen_cycles.add(key)
                        pairs = list(zip(cycle, cycle[1:] + [start]))
                        cycles.append([edges[pair] for pair in pairs])
                elif successor > start and successor not in trail + [node]:
                    search(start, successor, trail + [node])

        for node in sorted(adjacency):
            search(node, node, [])
        return cycles

    def render(self) -> str:
        """Human-readable dump for ``--lock-graph``."""
        lines = ["lock graph:"]
        for key in sorted(self.locks):
            decl = self.locks[key]
            lines.append(f"  {key} [{decl.kind}] declared {decl.path}:{decl.line}")
        edges = self.edge_set()
        if edges:
            lines.append("acquisition order (held -> acquired):")
            for (held, acquired), edge in sorted(edges.items()):
                lines.append(
                    f"  {held} -> {acquired}  ({edge.path}:{edge.line} {edge.detail})"
                )
        else:
            lines.append("acquisition order: (no nested acquisitions)")
        return "\n".join(lines)


def _call_name(node: ast.expr) -> str | None:
    """``Name`` or dotted-attribute head for import resolution."""
    if isinstance(node, ast.Name):
        return node.id
    return None


def _resolve_relative_module(module: Module, node: ast.ImportFrom) -> str | None:
    parts = module.name.split(".")
    package_parts = parts if module.path.stem == "__init__" else parts[:-1]
    if node.level > len(package_parts):
        return None
    base = package_parts[: len(package_parts) - (node.level - 1)]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


class _Project:
    """Indexes of every class, function, and import in the linted tree."""

    def __init__(self, modules: list[Module]) -> None:
        self.modules = modules
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[tuple[str, str], tuple[Module, ast.FunctionDef]] = {}
        #: module name -> imported symbol -> ("class"|"func", resolved key)
        self.imports: dict[str, dict[str, tuple[str, object]]] = {}
        for module in modules:
            self._index_module(module)
        # Import resolution needs every class/function registered first.
        for module in modules:
            self._index_imports(module)

    # -- indexing -------------------------------------------------------
    def _index_module(self, module: Module) -> None:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                self._index_class(module, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[(module.name, node.name)] = (module, node)

    def _index_class(self, module: Module, node: ast.ClassDef) -> None:
        info = ClassInfo(name=node.name, module=module, node=node)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[item.name] = item
        annotations = _parameter_annotations(info.methods.get("__init__"))
        for method in info.methods.values():
            for statement in ast.walk(method):
                if not isinstance(statement, ast.Assign):
                    continue
                for target in statement.targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    self._classify_assignment(
                        info, module, attr, statement, annotations
                    )
        for line_number in range(node.lineno, (node.end_lineno or node.lineno) + 1):
            if line_number > len(module.lines):
                break
            match = _GUARD.search(module.lines[line_number - 1])
            if match:
                attr = _attr_assigned_on_line(node, line_number)
                if attr is not None:
                    info.guards[attr] = GuardSpec(
                        match.group(1), match.group(2), line_number
                    )
        # First definition wins on a (rare) cross-module name collision.
        self.classes.setdefault(node.name, info)

    def _classify_assignment(
        self,
        info: ClassInfo,
        module: Module,
        attr: str,
        statement: ast.Assign,
        annotations: dict[str, str],
    ) -> None:
        value = statement.value
        for call in _calls_in(value):
            constructor = _constructor_name(call.func)
            if constructor in _LOCK_CONSTRUCTORS:
                info.locks.setdefault(
                    attr,
                    LockDecl(
                        key=f"{info.name}.{attr}",
                        kind=_LOCK_CONSTRUCTORS[constructor],
                        path=str(module.path),
                        line=statement.lineno,
                    ),
                )
                return
            if constructor is not None:
                info.attr_classes.setdefault(attr, constructor)
                return
        if isinstance(value, ast.Name) and value.id in annotations:
            info.attr_classes.setdefault(attr, annotations[value.id])

    def _index_imports(self, module: Module) -> None:
        table: dict[str, tuple[str, object]] = {}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            target = (
                _resolve_relative_module(module, node)
                if node.level
                else node.module
            )
            if target is None:
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if alias.name in self.classes:
                    table[name] = ("class", alias.name)
                elif (target, alias.name) in self.functions:
                    table[name] = ("func", (target, alias.name))
        # Same-module definitions shadow imports.
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef) and node.name in self.classes:
                table[node.name] = ("class", node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                table[node.name] = ("func", (module.name, node.name))
        self.imports[module.name] = table

    # -- lookups --------------------------------------------------------
    def resolve_symbol(self, module: Module, name: str) -> tuple[str, object] | None:
        return self.imports.get(module.name, {}).get(name)


def _parameter_annotations(init: ast.FunctionDef | None) -> dict[str, str]:
    """``__init__`` parameter name -> annotated class name."""
    if init is None:
        return {}
    annotations: dict[str, str] = {}
    for arg in init.args.args + init.args.kwonlyargs:
        annotation = arg.annotation
        if isinstance(annotation, ast.BinOp):  # ``Foo | None``
            annotation = annotation.left
        if isinstance(annotation, ast.Name):
            annotations[arg.arg] = annotation.id
        elif isinstance(annotation, ast.Attribute):
            annotations[arg.arg] = annotation.attr
    return annotations


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _attr_assigned_on_line(class_node: ast.ClassDef, line: int) -> str | None:
    for node in ast.walk(class_node):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.lineno == line:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                attr = _self_attr(target)
                if attr is not None:
                    return attr
    return None


def _calls_in(node: ast.expr) -> list[ast.Call]:
    return [child for child in ast.walk(node) if isinstance(child, ast.Call)]


def _constructor_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _MethodWalker:
    """Walks one callable body tracking held locks and emitting effects."""

    def __init__(
        self,
        checker: "LockGraphChecker",
        module: Module,
        info: ClassInfo | None,
        name: str,
        chain: tuple[str, ...],
    ) -> None:
        self.checker = checker
        self.module = module
        self.info = info
        self.name = name
        self.chain = chain
        self.held: list[tuple[str, str]] = []  # (lock key, mode)
        self.summary = Summary()
        self.aliases: dict[str, str] = {}  # local name -> self attr
        #: local name -> project class, for ``name = Class(...)``
        self.local_classes: dict[str, str] = {}
        #: >0 inside a nested def/lambda: it adds no calls or acquisitions
        #: to this summary, but its guarded accesses are checked against
        #: the locks held where it is written
        self.nested = 0
        #: (callee, held (key, mode) pairs) for RA101 entry-lock analysis
        self.intra_calls: list[tuple[str, frozenset[tuple[str, str]]]] = []
        #: guarded-attr accesses: (attr, is_write, line, held keys+modes)
        self.accesses: list[tuple[str, bool, int, frozenset[tuple[str, str]]]] = []

    # -- lock identification -------------------------------------------
    def _lock_of(self, expr: ast.expr) -> tuple[str, str, str] | None:
        """``(key, mode, kind)`` when ``expr`` acquires a known lock."""
        if self.info is None:
            return None
        attr = _self_attr(expr)
        if attr is not None and attr in self.info.locks:
            decl = self.info.locks[attr]
            return decl.key, "exclusive", decl.kind
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("read", "write")
        ):
            owner = _self_attr(expr.func.value)
            if owner is not None and owner in self.info.locks:
                decl = self.info.locks[owner]
                if decl.kind == "rwlock":
                    return decl.key, expr.func.attr, decl.kind
        return None

    def _held_keys(self) -> frozenset[str]:
        return frozenset(key for key, _ in self.held)

    # -- traversal ------------------------------------------------------
    def walk(self, node: ast.AST) -> None:
        if isinstance(node, ast.With):
            self._walk_with(node)
            return
        if isinstance(node, ast.Assign):
            self._note_alias(node)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            self._note_item_mutations(node)
        if isinstance(node, ast.Call):
            self._handle_call(node)
        if isinstance(node, ast.Attribute):
            self._note_access(node)
        nested = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        self.nested += nested
        for child in ast.iter_child_nodes(node):
            self.walk(child)
        self.nested -= nested

    def _walk_with(self, node: ast.With) -> None:
        acquired: list[tuple[str, str]] = []
        for item in node.items:
            lock = self._lock_of(item.context_expr)
            if lock is None:
                self.walk(item.context_expr)
                continue
            key, mode, kind = lock
            if not self.nested:
                self._record_acquisition(key, kind, item.context_expr.lineno)
            acquired.append((key, mode))
        self.held.extend(acquired)
        for statement in node.body:
            self.walk(statement)
        if acquired:
            del self.held[-len(acquired):]

    def _note_alias(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            attr = _self_attr(node.value)
            if attr is not None:
                self.aliases[name] = attr
            self.local_classes.pop(name, None)
            if isinstance(node.value, ast.Call):
                constructor = _call_name(node.value.func)
                resolved = (
                    self.checker.project.resolve_symbol(self.module, constructor)
                    if constructor is not None
                    else None
                )
                if resolved is not None and resolved[0] == "class":
                    self.local_classes[name] = resolved[1]  # type: ignore[assignment]

    # -- effects --------------------------------------------------------
    def _record_acquisition(self, key: str, kind: str, line: int) -> None:
        path = str(self.module.path)
        self.summary.acquires.append(Acquisition(key, path, line, self.chain))
        for held_key, _ in self.held:
            # A reentrant lock may be retaken; a ReadWriteLock's two sides
            # share one node, and a read->write upgrade is RS402's.
            if held_key == key and kind in _REENTRANT_KINDS | {"rwlock"}:
                continue
            self.checker.graph.edges.append(
                OrderEdge(held_key, key, path, line, f"in {'>'.join(self.chain)}")
            )

    def _apply_callee_summary(self, summary: Summary, line: int, label: str) -> None:
        """Fold a resolved callee's effects into the current context."""
        for acquisition in summary.acquires:
            self.summary.acquires.append(acquisition)
            for held_key, _ in self.held:
                if held_key == acquisition.key:
                    continue
                self.checker.graph.edges.append(
                    OrderEdge(
                        held_key,
                        acquisition.key,
                        str(self.module.path),
                        line,
                        f"via {label} -> {' -> '.join(acquisition.chain)}",
                    )
                )
        if self.held:
            for op in summary.blocking:
                self.summary.blocking.append(op)
                self.checker.emit_blocking(
                    self.module,
                    line,
                    op,
                    self._held_keys(),
                    via=label,
                )
        else:
            self.summary.blocking.extend(summary.blocking)

    def _handle_call(self, node: ast.Call) -> None:
        if self.nested:
            return
        func = node.func
        # self.method() — intra-class call.
        if isinstance(func, ast.Attribute):
            receiver_attr = _self_attr(func.value)
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and self.info is not None
                and func.attr in self.info.methods
            ):
                self.intra_calls.append((func.attr, frozenset(self.held)))
                summary = self.checker.summarize_method(self.info, func.attr)
                self._apply_callee_summary(summary, node.lineno, f"self.{func.attr}")
                return
            # self.<attr>.method() or alias.method() — cross-class call.
            owner_attr = receiver_attr
            if owner_attr is None and isinstance(func.value, ast.Name):
                owner_attr = self.aliases.get(func.value.id)
            elif owner_attr is None:
                inner = _self_attr(func.value) if isinstance(func.value, ast.Attribute) else None
                owner_attr = inner
            if owner_attr is not None and self.info is not None:
                target_class = self.info.attr_classes.get(owner_attr)
                target_info = (
                    self.checker.project.classes.get(target_class)
                    if target_class
                    else None
                )
                if target_info is not None and func.attr in target_info.methods:
                    summary = self.checker.summarize_method(target_info, func.attr)
                    self._apply_callee_summary(
                        summary, node.lineno, f"self.{owner_attr}.{func.attr}"
                    )
                    return
            # local.method() on a constructed local, or param.method()
            # with an annotated project class.
            if isinstance(func.value, ast.Name):
                target_class = self.local_classes.get(
                    func.value.id
                ) or self.checker.current_param_types.get(func.value.id)
                target_info = (
                    self.checker.project.classes.get(target_class)
                    if target_class
                    else None
                )
                if target_info is not None and func.attr in target_info.methods:
                    summary = self.checker.summarize_method(target_info, func.attr)
                    self._apply_callee_summary(
                        summary, node.lineno, f"{func.value.id}.{func.attr}"
                    )
                    return
            self._check_blocking_attribute(node, func)
            return
        # name() — imported/project-local function or class constructor.
        name = _call_name(func)
        if name is None:
            return
        resolved = self.checker.project.resolve_symbol(self.module, name)
        if resolved is None:
            if name in _BLOCKING_FUNCTIONS:
                self._blocking(node, f"{name}()")
            return
        kind, target = resolved
        if kind == "func":
            summary = self.checker.summarize_function(target)  # type: ignore[arg-type]
            self._apply_callee_summary(summary, node.lineno, name)
        elif kind == "class":
            target_info = self.checker.project.classes.get(target)  # type: ignore[arg-type]
            if target_info is not None and "__init__" in target_info.methods:
                summary = self.checker.summarize_method(target_info, "__init__")
                self._apply_callee_summary(summary, node.lineno, f"{name}()")

    def _check_blocking_attribute(self, node: ast.Call, func: ast.Attribute) -> None:
        """Direct blocking ops: ``x.commit()``, ``x.wait()``, ``submit().result()``."""
        description = None
        if func.attr in _BLOCKING_METHODS:
            description = f"{ast.unparse(func)}()"
        elif func.attr == "wait":
            # A wait on a lock we currently hold is a Condition.wait —
            # it releases the lock while waiting, which is the one
            # non-blocking wait.
            owner = self._lock_of(func.value)
            owner_attr = _self_attr(func.value)
            held_attrs = {key.rsplit(".", 1)[-1] for key, _ in self.held}
            if owner is None and (owner_attr is None or owner_attr not in held_attrs):
                description = f"{ast.unparse(func)}() (Event/Thread wait)"
            elif owner is not None and owner[0] not in self._held_keys():
                description = f"{ast.unparse(func)}() (condition not held)"
        elif func.attr == "result" and isinstance(func.value, ast.Call):
            inner = func.value.func
            if isinstance(inner, ast.Attribute) and inner.attr == "submit":
                description = f"{ast.unparse(func)}() (waits on a pool future)"
        if description is not None:
            self._blocking(node, description)

    def _blocking(self, node: ast.Call, description: str) -> None:
        op = BlockingOp(description, str(self.module.path), node.lineno, self.chain)
        self.summary.blocking.append(op)
        if self.held:
            self.checker.emit_blocking(
                self.module, node.lineno, op, self._held_keys(), via=None
            )

    # -- RA101 access recording ----------------------------------------
    def _note_item_mutations(self, node: ast.stmt) -> None:
        """``self.attr[key] = ...`` mutates the artifact: a write access.

        The AST puts the Store context on the Subscript, not the
        attribute (which is merely loaded), so plain ctx inspection
        would classify item assignment as a read.
        """
        if self.info is None:
            return
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            targets = node.targets  # ast.Delete
        for target in targets:
            if not isinstance(target, ast.Subscript):
                continue
            attr = _self_attr(target.value)
            if attr is not None and attr in self.info.guards:
                self.accesses.append((attr, True, target.lineno, frozenset(self.held)))

    def _note_access(self, node: ast.Attribute) -> None:
        if self.info is None:
            return
        attr = _self_attr(node)
        if attr is None or attr not in self.info.guards:
            return
        is_write = isinstance(node.ctx, (ast.Store, ast.Del))
        self.accesses.append((attr, is_write, node.lineno, frozenset(self.held)))


class LockGraphChecker:
    """RA101, RA105 and RA107 over the whole project at once.

    Unlike the per-module checkers this one implements
    ``check_project(modules)``: lock-order inversions only exist
    *between* modules, so the edge graph must be global.
    """

    name = "lockgraph"
    rules = ("RA101", "RA105", "RA107")

    def __init__(self) -> None:
        self.graph = LockGraph()
        self.project: _Project = None  # type: ignore[assignment]
        self._findings: list[Finding] = []
        self._summaries: dict[object, Summary] = {}
        self._in_progress: set[object] = set()
        self._walkers: dict[tuple[str, str], _MethodWalker] = {}
        self.current_param_types: dict[str, str] = {}

    # -- plugin surface -------------------------------------------------
    def check(self, module: Module) -> list[Finding]:
        """Per-module entry point: no-op (see :meth:`check_project`)."""
        return []

    def check_project(self, modules: list[Module]) -> list[Finding]:
        self.__init__()  # a checker instance may be reused across runs
        self.project = _Project(modules)
        for info in self.project.classes.values():
            for key, decl in (
                (decl.key, decl) for decl in info.locks.values()
            ):
                self.graph.locks[key] = decl
        for info in sorted(self.project.classes.values(), key=lambda i: i.name):
            for method_name in sorted(info.methods):
                self.summarize_method(info, method_name)
        for module_name, function_name in sorted(self.project.functions):
            self.summarize_function((module_name, function_name))
        self._check_cycles()
        self._check_guards()
        # Transitive summaries reach the same origin through several
        # call paths; one finding per distinct (location, message).
        return list(dict.fromkeys(self._findings))

    # -- summaries ------------------------------------------------------
    def summarize_method(self, info: ClassInfo, method_name: str) -> Summary:
        key = ("method", info.name, method_name)
        if key in self._summaries:
            return self._summaries[key]
        if key in self._in_progress:
            return Summary()  # recursion: fixed-point approximation
        self._in_progress.add(key)
        method = info.methods[method_name]
        previous_params = self.current_param_types
        self.current_param_types = _parameter_annotations(method)
        walker = _MethodWalker(
            self, info.module, info, method_name, (f"{info.name}.{method_name}",)
        )
        for statement in method.body:
            walker.walk(statement)
        self.current_param_types = previous_params
        self._in_progress.discard(key)
        self._summaries[key] = walker.summary
        self._walkers[(info.name, method_name)] = walker
        return walker.summary

    def summarize_function(self, target: tuple[str, str]) -> Summary:
        key = ("func", *target)
        if key in self._summaries:
            return self._summaries[key]
        if key in self._in_progress:
            return Summary()
        self._in_progress.add(key)
        module, node = self.project.functions[target]
        previous_params = self.current_param_types
        self.current_param_types = _parameter_annotations(node)
        walker = _MethodWalker(self, module, None, target[1], (target[1],))
        for statement in node.body:
            walker.walk(statement)
        self.current_param_types = previous_params
        self._in_progress.discard(key)
        self._summaries[key] = walker.summary
        return walker.summary

    # -- finding emission -----------------------------------------------
    def emit(self, module: Module, line: int, rule: str, message: str) -> None:
        if not module.suppressed(line, rule):
            self._findings.append(module.finding(line, rule, message))

    def emit_blocking(
        self,
        module: Module,
        line: int,
        op: BlockingOp,
        held: frozenset[str],
        via: str | None,
    ) -> None:
        """RA107, honouring ``blocking-ok`` on the report *or* origin line."""
        if self._blocking_ok(module, line):
            return
        origin = self._module_for(op.path)
        origin_line = op.line
        if origin is not None and self._blocking_ok(origin, origin_line):
            return
        location = (
            f" at {op.path.rsplit('/', 1)[-1]}:{op.line} "
            f"via {' -> '.join(op.chain)}"
            if via is not None
            else ""
        )
        self.emit(
            module,
            line,
            "RA107",
            f"blocking call {op.description}{location} reachable while "
            f"holding {', '.join(sorted(held))} (annotate with "
            "'# analysis: blocking-ok[reason]' if intended)",
        )

    def _blocking_ok(self, module: Module, line: int) -> bool:
        """Allowlisted on the line itself or a comment block just above it."""
        if 1 <= line <= len(module.lines) and _BLOCKING_OK.search(
            module.lines[line - 1]
        ):
            return True
        cursor = line - 1
        while cursor >= 1 and module.lines[cursor - 1].lstrip().startswith("#"):
            if _BLOCKING_OK.search(module.lines[cursor - 1]):
                return True
            cursor -= 1
        return module.suppressed(line, "RA107")

    def _module_for(self, path: str) -> Module | None:
        for module in self.project.modules:
            if str(module.path) == path:
                return module
        return None

    # -- RA105 ----------------------------------------------------------
    def _check_cycles(self) -> None:
        for cycle in self.graph.cycles():
            first = cycle[0]
            module = self._module_for(first.path)
            if module is None:
                continue
            description = "; ".join(
                f"{edge.held} -> {edge.acquired} "
                f"({edge.path.rsplit('/', 1)[-1]}:{edge.line} {edge.detail})"
                for edge in cycle
            )
            self.emit(
                module,
                first.line,
                "RA105",
                f"lock-order inversion cycle: {description}",
            )

    # -- RA101 ----------------------------------------------------------
    def _check_guards(self) -> None:
        for info in sorted(self.project.classes.values(), key=lambda i: i.name):
            if not info.guards:
                continue
            entry_held = self._entry_locks(info)
            for method_name in sorted(set(info.methods) - _INIT_METHODS):
                walker = self._walkers.get((info.name, method_name))
                if walker is None:
                    continue
                entry_modes: dict[str, set[str]] = {}
                for key, mode in entry_held.get(method_name, frozenset()):
                    entry_modes.setdefault(key, set()).add(mode)
                # One finding per (line, attribute); a write outranks the
                # read that an item assignment also performs.
                violations: dict[tuple[int, str], bool] = {}
                for attr, is_write, line, local_held in walker.accesses:
                    spec = info.guards[attr]
                    if spec.qualifier == "writes" and not is_write:
                        continue
                    lock_key = f"{info.name}.{spec.lock}"
                    local = {mode for key, mode in local_held if key == lock_key}
                    possible = entry_modes.get(lock_key)
                    if spec.qualifier == "rw" and is_write:
                        # Writes need the write side on *every* path: a
                        # caller entering under the read side makes the
                        # access unsafe even if another holds write.
                        ok = bool(local - {"read"}) or (
                            possible is not None and "read" not in possible
                        )
                    else:
                        ok = bool(local) or possible is not None
                    if not ok:
                        violations[line, attr] = violations.get((line, attr), False) or is_write
                for (line, attr), is_write in sorted(violations.items()):
                    spec = info.guards[attr]
                    qualifier = f" [{spec.qualifier}]" if spec.qualifier else ""
                    side = "the write side of " if spec.qualifier == "rw" and is_write else ""
                    self.emit(
                        info.module,
                        line,
                        "RA101",
                        f"self.{attr} (guarded by self.{spec.lock}{qualifier}, "
                        f"declared line {spec.line}) is "
                        f"{'written' if is_write else 'read'} in "
                        f"{method_name}() without holding {side}self.{spec.lock} "
                        "(here or at every intra-class call site)",
                    )

    def _entry_locks(self, info: ClassInfo) -> dict[str, frozenset[tuple[str, str]]]:
        """Locks provably held on entry to each method, via intra-class calls.

        A method called from inside the class inherits the locks held at
        *every* call site (callers' own entry locks included, iterated to
        a fixed point): keys intersect across sites, while the possible
        modes for a surviving key union — a callee reached once under the
        read side and once under the write side is guaranteed the lock,
        in one of the two modes.  Methods never called intra-class are
        entry points: nothing is guaranteed held.
        """
        call_sites: dict[str, list[tuple[str, frozenset[tuple[str, str]]]]] = {}
        for method_name in info.methods:
            walker = self._walkers.get((info.name, method_name))
            if walker is None:
                continue
            for callee, held_pairs in walker.intra_calls:
                call_sites.setdefault(callee, []).append((method_name, held_pairs))
        entry: dict[str, frozenset[tuple[str, str]]] = {
            name: frozenset() for name in info.methods
        }
        changed = True
        iterations = 0
        while changed and iterations < len(info.methods) + 2:
            changed = False
            iterations += 1
            for callee, sites in call_sites.items():
                site_maps: list[dict[str, set[str]]] = []
                for caller, held_pairs in sites:
                    combined: dict[str, set[str]] = {}
                    for key, mode in held_pairs:
                        combined.setdefault(key, set()).add(mode)
                    for key, mode in entry.get(caller, frozenset()):
                        combined.setdefault(key, set()).add(mode)
                    site_maps.append(combined)
                if not site_maps:
                    continue
                keys = set(site_maps[0])
                for site in site_maps[1:]:
                    keys &= set(site)
                frozen = frozenset(
                    (key, mode)
                    for key in keys
                    for site in site_maps
                    for mode in site[key]
                )
                if frozen != entry.get(callee):
                    entry[callee] = frozen
                    changed = True
        return entry
