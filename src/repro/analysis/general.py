"""General correctness rules (RA104, RA201-RA204).

* RA104 — ``threading.Thread(...)`` without ``daemon=True``: a forgotten
  non-daemon thread blocks interpreter shutdown (anything that must
  outlive the main thread should say so with a suppression comment).
* RA201 — mutable default arguments (``def f(x=[])``): the default is
  shared across calls, a classic aliasing bug.
* RA202 — mutating a container inside a ``for`` loop that iterates it
  (``for k in d: del d[k]``): raises ``RuntimeError`` at best, silently
  skips elements at worst.
* RA203 — value-type dataclasses in ``xmlgraph.model`` must be declared
  ``frozen=True, slots=True``.  Graph nodes and edges are shared across
  every service thread and interned in dicts by the million; frozen
  makes accidental mutation impossible and slots cuts per-instance
  memory.  Dataclasses with mutable (dict/set/list) fields are exempt —
  they are builders, not values.
* RA204 — ``<name> or <Class>(...)`` where ``<Class>`` is a class of this
  package defining ``__len__`` or ``__bool__``: an *empty* instance is
  falsy, so the default silently replaces the object the caller passed
  (a shared cache handed over before its first entry).  Test
  ``is None`` instead.
"""

from __future__ import annotations

import ast

from .findings import Finding
from .source import Module

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "OrderedDict", "Counter"})

_MUTATING_METHODS = frozenset(
    {"pop", "popitem", "clear", "add", "remove", "discard", "update",
     "append", "extend", "insert", "setdefault"}
)

_MUTABLE_FIELD_TYPES = frozenset({"dict", "list", "set", "Dict", "List", "Set"})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
    )


def _check_defaults(module: Module, node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[Finding]:
    findings = []
    defaults = list(node.args.defaults) + [
        d for d in node.args.kw_defaults if d is not None
    ]
    for default in defaults:
        if _is_mutable_default(default):
            if not module.suppressed(default.lineno, "RA201"):
                findings.append(
                    module.finding(
                        default.lineno,
                        "RA201",
                        f"mutable default argument in {node.name}() is "
                        "shared across calls; use None and build inside",
                    )
                )
    return findings


def _iterated_name(node: ast.For) -> str | None:
    """The symbol iterated over, for ``for x in <name>`` / ``<name>.items()``-style loops."""
    iterator = node.iter
    if isinstance(iterator, ast.Call) and isinstance(iterator.func, ast.Attribute):
        if iterator.func.attr in {"items", "keys", "values"}:
            iterator = iterator.func.value
    if isinstance(iterator, ast.Name):
        return iterator.id
    if isinstance(iterator, ast.Attribute) and isinstance(iterator.value, ast.Name):
        return f"{iterator.value.id}.{iterator.attr}"
    return None


def _expression_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


def _check_iteration_mutation(module: Module, loop: ast.For) -> list[Finding]:
    name = _iterated_name(loop)
    if name is None:
        return []
    findings = []
    for node in ast.walk(loop):
        line: int | None = None
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and _expression_name(target.value) == name
                ):
                    line = node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if (
                node.func.attr in _MUTATING_METHODS
                and _expression_name(node.func.value) == name
            ):
                line = node.lineno
        if line is not None and not module.suppressed(line, "RA202"):
            findings.append(
                module.finding(
                    line,
                    "RA202",
                    f"{name!r} is mutated while the loop at line "
                    f"{loop.lineno} iterates it",
                )
            )
    return findings


def _check_thread(module: Module, node: ast.Call) -> list[Finding]:
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name != "Thread":
        return []
    for keyword in node.keywords:
        if keyword.arg == "daemon":
            if isinstance(keyword.value, ast.Constant) and keyword.value.value:
                return []
            break
    if module.suppressed(node.lineno, "RA104"):
        return []
    return [
        module.finding(
            node.lineno,
            "RA104",
            "thread created without daemon=True (would block interpreter "
            "shutdown)",
        )
    ]


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name == "dataclass":
            return decorator
    return None


def _has_true_keyword(decorator: ast.expr, keyword_name: str) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == keyword_name:
            return (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            )
    return False


def _field_type_is_mutable(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Name):
        return annotation.id in _MUTABLE_FIELD_TYPES
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in _MUTABLE_FIELD_TYPES
    return False


def _check_model_dataclass(module: Module, node: ast.ClassDef) -> list[Finding]:
    decorator = _dataclass_decorator(node)
    if decorator is None:
        return []
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) and _field_type_is_mutable(
            statement.annotation
        ):
            return []  # builder dataclass; mutability is the point
    missing = [
        flag
        for flag in ("frozen", "slots")
        if not _has_true_keyword(decorator, flag)
    ]
    if not missing or module.suppressed(node.lineno, "RA203"):
        return []
    return [
        module.finding(
            node.lineno,
            "RA203",
            f"model dataclass {node.name} must declare "
            f"{', '.join(f'{flag}=True' for flag in missing)} "
            "(shared immutably across service threads)",
        )
    ]


def _falsy_capable_classes(modules: list[Module]) -> set[str]:
    """Names of the package's classes whose instances can be falsy."""
    return {
        node.name
        for module in modules
        for node in ast.walk(module.tree)
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(member, ast.FunctionDef)
            and member.name in ("__len__", "__bool__")
            for member in node.body
        )
    }


def _check_or_default(module: Module, node: ast.BoolOp, falsy: set[str]) -> list[Finding]:
    fallback = node.values[-1]
    if not (isinstance(node.op, ast.Or) and isinstance(fallback, ast.Call)):
        return []
    called = fallback.func
    name = called.attr if isinstance(called, ast.Attribute) else getattr(called, "id", None)
    if name not in falsy or not all(
        isinstance(value, (ast.Name, ast.Attribute)) for value in node.values[:-1]
    ):
        return []
    return [
        module.finding(
            node.lineno,
            "RA204",
            f"'... or {name}(...)' also replaces an empty {name} (it defines "
            "__len__/__bool__, so a fresh instance is falsy); test 'is None'",
        )
    ]


class GeneralChecker:
    """RA104, RA201 and RA202 everywhere; RA203 on ``xmlgraph.model``
    only; RA204 project-wide (it resolves class names across modules)."""

    name = "general"
    rules = ("RA104", "RA201", "RA202", "RA203", "RA204")

    def check(self, module: Module) -> list[Finding]:
        findings: list[Finding] = []
        model_module = module.name.endswith("xmlgraph.model")
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(_check_defaults(module, node))
            elif isinstance(node, ast.For):
                findings.extend(_check_iteration_mutation(module, node))
            elif isinstance(node, ast.Call):
                findings.extend(_check_thread(module, node))
            elif isinstance(node, ast.ClassDef) and model_module:
                findings.extend(_check_model_dataclass(module, node))
        return findings

    def check_project(self, modules: list[Module]) -> list[Finding]:
        falsy = _falsy_capable_classes(modules)
        return [
            finding
            for module in modules
            for node in ast.walk(module.tree)
            if isinstance(node, ast.BoolOp)
            for finding in _check_or_default(module, node, falsy)
        ]
