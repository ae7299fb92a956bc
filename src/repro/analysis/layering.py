"""Import-layering checker: the package DAG, enforced (RA001, RA002).

The repository's layering is::

    xmlgraph, schema, trace  ->  decomposition  ->  storage  ->  core
                                                                  |
                                baselines, workloads  (alongside core)
                                                                  v
                                             analysis  ->  service

(``trace`` has no dependencies at all — it sits at the bottom so that
``core`` can open spans and ``service`` can store them without any
back-edge.)  Lower layers must never import higher ones — in particular ``core`` must
never import ``service`` (the engine stays embeddable) and nothing below
``analysis`` may depend on the linter.  Top-level modules (``cli``,
``__main__``, the package ``__init__``) sit above everything and may
import freely.  All import statements count, including function-scoped
ones: a deferred import is still a dependency.
"""

from __future__ import annotations

import ast

from .findings import Finding
from .source import Module

#: Allowed cross-subpackage imports.  A subpackage may always import
#: itself; anything not listed here is a back-edge.
ALLOWED_IMPORTS: dict[str, frozenset[str]] = {
    "xmlgraph": frozenset(),
    "schema": frozenset({"xmlgraph"}),
    "trace": frozenset(),
    "decomposition": frozenset({"schema", "xmlgraph"}),
    "storage": frozenset({"decomposition", "schema", "xmlgraph"}),
    "core": frozenset(
        {"storage", "decomposition", "schema", "trace", "xmlgraph"}
    ),
    "baselines": frozenset(
        {"core", "storage", "decomposition", "schema", "xmlgraph"}
    ),
    "workloads": frozenset({"storage", "schema", "xmlgraph"}),
    "analysis": frozenset(
        {
            "baselines",
            "core",
            "decomposition",
            "schema",
            "storage",
            # The runtime sanitizer instruments updates.ReadWriteLock;
            # updates never imports analysis, so the DAG stays acyclic.
            "updates",
            "workloads",
            "xmlgraph",
        }
    ),
    "updates": frozenset(
        {"decomposition", "schema", "storage", "trace", "xmlgraph"}
    ),
    "service": frozenset(
        {
            "analysis",
            "core",
            "decomposition",
            "schema",
            "storage",
            "trace",
            "updates",
            "xmlgraph",
        }
    ),
}


def _resolve_relative(module: Module, node: ast.ImportFrom) -> str | None:
    """Absolute dotted target of a relative import, or ``None``."""
    parts = module.name.split(".")
    # A module's package is its name minus the leaf (packages keep all
    # parts: ``repro.core`` for ``repro/core/__init__.py`` is already
    # handled because ``parse_module`` drops the ``__init__`` leaf).
    if module.path.stem == "__init__":
        package_parts = parts
    else:
        package_parts = parts[:-1]
    if node.level > len(package_parts):
        return None  # beyond the distribution root; not ours to judge
    base = package_parts[: len(package_parts) - (node.level - 1)]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


class LayeringChecker:
    """Enforces :data:`ALLOWED_IMPORTS` over every import statement."""

    name = "layering"
    rules = ("RA001", "RA002")

    def check(self, module: Module) -> list[Finding]:
        root = module.name.split(".", 1)[0]
        if module.package == "":
            return []  # top-level modules may import anything
        allowed = ALLOWED_IMPORTS.get(module.package)
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            targets: list[str] = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    resolved = _resolve_relative(module, node)
                    if resolved is not None:
                        targets = [resolved]
                elif node.module:
                    targets = [node.module]
            else:
                continue
            for target in targets:
                parts = target.split(".")
                if parts[0] != root:
                    continue  # stdlib or third-party
                if len(parts) == 1:
                    findings.append(
                        module.finding(
                            node.lineno,
                            "RA002",
                            f"{module.name} imports the package root "
                            f"{root!r}; import the providing subpackage "
                            "directly",
                        )
                    )
                    continue
                target_package = parts[1]
                if target_package == module.package:
                    continue
                if allowed is None or target_package not in allowed:
                    findings.append(
                        module.finding(
                            node.lineno,
                            "RA001",
                            f"{module.package!r} may not import "
                            f"{target_package!r} (back-edge in the "
                            "layering DAG)",
                        )
                    )
        return findings
