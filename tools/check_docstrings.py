#!/usr/bin/env python
"""CI docstring gate: importability + docstring coverage for the public API.

Two checks, stdlib only:

1. Every module under the packages listed in ``PACKAGES`` must be
   importable (``pydoc`` would fail otherwise) — catches syntax errors,
   circular imports, and modules that do work at import time.
2. Every *public* module, class, function and method in those packages
   must carry a docstring. Public means: name does not start with ``_``
   and the object is defined in the package (re-exports are checked at
   their definition site only). Dataclass-generated and inherited
   members are skipped — ``obj.__doc__`` inherited from a documented
   base counts.

Usage: PYTHONPATH=src python tools/check_docstrings.py [package ...]
Exits non-zero listing every offender.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys

PACKAGES = ("repro.core", "repro.service", "repro.storage", "repro.trace", "repro.updates")


def iter_modules(package_name: str):
    package = importlib.import_module(package_name)
    yield package
    for info in pkgutil.walk_packages(package.__path__, prefix=package_name + "."):
        yield importlib.import_module(info.name)


def missing_in_module(module) -> list[str]:
    offenders = []
    if not inspect.getdoc(module):
        offenders.append(module.__name__)
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; checked where it is defined
        if not inspect.getdoc(obj):
            offenders.append(f"{module.__name__}.{name}")
        if inspect.isclass(obj):
            offenders.extend(
                f"{module.__name__}.{name}.{attr}"
                for attr, member in vars(obj).items()
                if not attr.startswith("_")
                and inspect.isfunction(member)
                and not inspect.getdoc(member)
            )
    return offenders


def main(argv: list[str]) -> int:
    packages = argv or list(PACKAGES)
    offenders: list[str] = []
    for package_name in packages:
        try:
            for module in iter_modules(package_name):
                offenders.extend(missing_in_module(module))
        except Exception as exc:  # import failure is a hard failure
            print(f"FAIL: importing {package_name}: {exc!r}")
            return 1
    if offenders:
        print(f"{len(offenders)} public object(s) missing docstrings:")
        for offender in sorted(offenders):
            print(f"  {offender}")
        return 1
    print(f"docstring check passed for {', '.join(packages)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
