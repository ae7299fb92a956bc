"""Two-level static analysis for the XKeyword reproduction.

Level 1 lints the codebase itself with stdlib :mod:`ast` — import
layering, the interprocedural lock graph (guard discipline, lock order,
blocking under a lock) and general correctness rules — and is run as
``python -m repro.analysis`` (non-zero exit on findings; gated in CI).  Level 2 (:mod:`repro.analysis.plans`) verifies
the *paper's* structural invariants over candidate networks, CTSSNs and
join plans before execution, enabled at runtime via ``debug_verify``.

Checkers are plugins: anything with a ``name``, a ``rules`` tuple and a
``check(module) -> list[Finding]`` method participates, so later rules
cost one class.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Protocol

from .findings import RULES, Finding
from .general import GeneralChecker
from .layering import LayeringChecker
from .lockgraph import LockGraphChecker
from .source import Module, load_modules, parse_module


class Checker(Protocol):
    """The plugin protocol every lint rule family implements.

    Per-module checkers implement ``check(module)``.  Whole-project
    checkers (the interprocedural lock graph) additionally implement
    ``check_project(modules)``; :func:`run_analysis` calls it once with
    every module, after the per-module pass.
    """

    name: str
    rules: tuple[str, ...]

    def check(self, module: Module) -> list[Finding]: ...


def all_checkers() -> list[Checker]:
    return [LayeringChecker(), LockGraphChecker(), GeneralChecker()]


def run_analysis(
    root: Path, checkers: Iterable[Checker] | None = None
) -> list[Finding]:
    """Lint every module under ``root`` (a package directory).

    Returns findings sorted by location so output is deterministic.
    """
    active = list(checkers) if checkers is not None else all_checkers()
    findings: list[Finding] = []
    modules = load_modules(root)
    for module in modules:
        for checker in active:
            # Suppressions are honoured here, centrally, so individual
            # checkers never need to remember to consult them.
            findings.extend(
                finding
                for finding in checker.check(module)
                if not module.suppressed(finding.line, finding.rule)
            )
    suppressed_by_path = {str(module.path): module for module in modules}
    for checker in active:
        check_project = getattr(checker, "check_project", None)
        if check_project is None:
            continue
        for finding in check_project(modules):
            module = suppressed_by_path.get(finding.path)
            if module is None or not module.suppressed(finding.line, finding.rule):
                findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings


__all__ = [
    "Checker",
    "Finding",
    "LockGraphChecker",
    "Module",
    "RULES",
    "all_checkers",
    "load_modules",
    "parse_module",
    "run_analysis",
]
