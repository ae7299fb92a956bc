"""The doc-link gate's ``Class.member`` rule (``tools/check_doc_links.py``)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_doc_links.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("check_doc_links", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def classes(tool):
    return tool.class_members()


@pytest.mark.parametrize(
    "span",
    [
        "QueryCache.clear",
        "QueryCache.get()",
        "core/engine.py::XKeyword._run",
        "Optimizer._row_counts",  # a dataclass field
        "UpdateManager._rwlock",  # assigned in __init__
        "Flight.stream",  # a __slots__ entry
        "ExecutorConfig().backend",  # a call, not a class member
        "RejectedError.args",  # inherited from a base outside the project
        "DESIGN.md",
    ],
)
def test_known_members_and_other_spans_pass(tool, classes, span):
    assert not tool.missing_member(span, classes)


@pytest.mark.parametrize(
    "span",
    [
        "QueryCache.invalidate_stale",
        "QueryCache.invalidate()",
        "SearchResult.relations_used",
        "ServiceConfig.backend",
        "service/singleflight.py::Flight.stale",
    ],
)
def test_missing_members_fail(tool, classes, span):
    assert tool.missing_member(span, classes)
