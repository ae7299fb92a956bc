#!/usr/bin/env python
"""CI doc-link gate: internal references in the markdown docs must resolve.

Checks three kinds of references in the files listed in ``DOCS``:

1. Markdown links ``[text](target)`` whose target is not an URL or an
   in-page anchor — the target path must exist relative to the doc's
   directory (or the repo root as a fallback).
2. Backtick spans that look like repo paths — contain a ``/`` or end in
   a known file suffix, no spaces or wildcard/placeholder characters.
   A trailing ``::A`` or ``::A::B`` (``::A.B`` alike; a pytest node id
   or a code reference) must name something in that Python file: ``A``
   a top-level def, class or assignment, or a method of one of its
   classes, and ``B`` a member of class ``A``.
3. Backtick spans of the form ``Class.member`` (optionally called, and
   optionally after a ``path::``) whose ``Class`` is defined under
   ``src/repro`` — the class, or a project base class, must define
   ``member``.  Classes with a base defined elsewhere (``Enum``,
   ``Exception``, ...) are not checked: their inherited members are
   not in the source.

Stdlib only. Exits non-zero listing every dangling reference.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# The docs conventionally abbreviate "src/repro/core/engine.py" as
# "core/engine.py" and "benchmarks/bench_x.py" as "bench_x.py".
ROOTS = (REPO, REPO / "src" / "repro", REPO / "benchmarks")
DOCS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/ARCHITECTURE.md",
    "docs/OPERATIONS.md",
)
SUFFIXES = (".py", ".md", ".toml", ".yml", ".xml", ".txt", ".cfg")
MD_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
BACKTICK = re.compile(r"`([^`\n]+)`")
SKIP_CHARS = set(" <>*{}$|,=()'\"")
CLASS_MEMBER = re.compile(r"(_?[A-Z]\w*)\.([A-Za-z_]\w*)(?:\(.*\))?")
CHECKED_BASES = {"object", "Protocol"}


def _targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return node.targets
    return [node.target] if isinstance(node, ast.AnnAssign) else []


def _defined_names(cls: ast.ClassDef) -> set[str]:
    """What a class body defines (including ``__slots__`` entries), plus
    every ``self.<name>`` its methods assign."""
    names: set[str] = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        for target in _targets(node):
            if isinstance(target, ast.Name):
                names.add(target.id)
                if target.id == "__slots__":
                    names.update(
                        element.value
                        for element in ast.walk(node.value)
                        if isinstance(element, ast.Constant) and isinstance(element.value, str)
                    )
    for node in ast.walk(cls):
        for target in _targets(node):
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                names.add(target.attr)
    return names


def class_members(root: Path = REPO / "src" / "repro") -> dict[str, set[str] | None]:
    """Members of every class defined under ``root``, by class name.

    ``None`` marks a class that cannot be checked: a base of it (or of a
    same-named class elsewhere) is not defined under ``root``.
    """
    own: dict[str, set[str]] = {}
    bases: dict[str, set[str]] = {}
    for source in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ClassDef):
                own.setdefault(node.name, set()).update(_defined_names(node))
                bases.setdefault(node.name, set()).update(
                    base.id if isinstance(base, ast.Name)
                    else base.attr if isinstance(base, ast.Attribute)
                    else ast.unparse(base)
                    for base in node.bases
                )

    def members(name: str, seen: frozenset[str]) -> set[str] | None:
        found = set(own[name])
        for base in bases[name] - CHECKED_BASES:
            if base not in own or base in seen:
                return None
            inherited = members(base, seen | {base})
            if inherited is None:
                return None
            found |= inherited
        return found

    return {name: members(name, frozenset({name})) for name in own}


def missing_member(span: str, classes: dict[str, set[str] | None]) -> bool:
    """True when ``span`` names a member its project class lacks."""
    match = CLASS_MEMBER.fullmatch(span.split("::", 1)[-1])
    if match is None:
        return False
    members = classes.get(match.group(1))
    return members is not None and match.group(2) not in members


def looks_like_path(span: str) -> bool:
    if SKIP_CHARS & set(span):
        return False
    if span.endswith("/"):
        span = span[:-1]
    if "/" in span:
        head = span.split("/", 1)[0]
        # src/..., tests/..., benchmarks/... etc. — not URLs, not options
        return bool(head) and not head.startswith(("-", "http")) and "." not in head
    return span.endswith(SUFFIXES) and not span.startswith("-")


def defines(source: Path, names: list[str]) -> bool:
    """Whether ``names`` (``[A]`` or ``[A, B]``) resolve in ``source``."""
    if source.suffix != ".py" or not 1 <= len(names) <= 2:
        return False
    top: dict[str, ast.AST] = {}
    methods: set[str] = set()
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            top[node.name] = node
        for target in _targets(node):
            if isinstance(target, ast.Name):
                top[target.id] = node
        if isinstance(node, ast.ClassDef):
            methods.update(
                member.name
                for member in node.body
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    first, *member = names
    if not member:
        return first in top or first in methods
    owner = top.get(first)
    return isinstance(owner, ast.ClassDef) and member[0] in _defined_names(owner)


def resolve(doc: Path, target: str) -> bool:
    path, _, qualname = target.split("#", 1)[0].partition("::")
    names = re.split(r"::|\.", qualname) if qualname else []
    path = path.rstrip("/")
    if not path:
        return True
    for base in (doc.parent, *ROOTS):
        if (base / path).exists():
            return not names or defines(base / path, names)
    return False


def check(doc: Path, classes: dict[str, set[str] | None]) -> list[str]:
    errors = []
    text = doc.read_text()
    fences = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            fences = not fences
        for match in MD_LINK.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            if not resolve(doc, target):
                errors.append(f"{doc.relative_to(REPO)}:{lineno}: dangling link {target!r}")
        if fences:
            continue  # code blocks show commands, not references
        for match in BACKTICK.finditer(line):
            span = match.group(1).strip()
            if missing_member(span, classes):
                errors.append(f"{doc.relative_to(REPO)}:{lineno}: unknown member {span!r}")
            if not looks_like_path(span):
                continue
            if not resolve(doc, span):
                errors.append(f"{doc.relative_to(REPO)}:{lineno}: dangling path {span!r}")
    return errors


def main() -> int:
    errors: list[str] = []
    classes = class_members()
    for name in DOCS:
        doc = REPO / name
        if not doc.exists():
            errors.append(f"{name}: listed in DOCS but missing")
            continue
        errors.extend(check(doc, classes))
    if errors:
        print(f"{len(errors)} dangling doc reference(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"doc-link check passed for {len(DOCS)} file(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
