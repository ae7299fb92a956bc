"""The doc-link gate's ``Class.member`` and ``path::name`` rules
(``tools/check_doc_links.py``)."""

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


ROADMAP = TOOL.parents[1] / "ROADMAP.md"


@pytest.mark.parametrize(
    "span",
    [
        "tests/service/test_mutations.py",
        "tests/service/test_mutations.py::TestDocumentEndpoints",
        "tests/service/test_mutations.py::TestDocumentEndpoints::test_validation_maps_to_http_statuses",
        "core/engine.py::_no_pool",  # a top-level def
        "core/engine.py::_run",  # a method of a top-level class
        "core/engine.py::XKeyword._run",
        "analysis/layering.py::ALLOWED_IMPORTS",  # a top-level assignment
        "service/query_service.py::QueryService.updates",  # assigned in __init__
    ],
)
def test_names_after_a_path_resolve(tool, span):
    assert tool.resolve(ROADMAP, span)


@pytest.mark.parametrize(
    "span",
    [
        "tests/service/test_mutations.py::TestReadOnlyDatabase",
        "tests/service/test_mutations.py::TestDocumentEndpoints::test_read_only",
        "core/engine.py::XKeyword::_run::extra",
        "core/engine.py::_no_pool::parallel",  # a member of a function
        "storage/persistence.py::load_metadata",
        "DESIGN.md::XKeyword",  # not a Python file
    ],
)
def test_unknown_names_after_a_path_fail(tool, span):
    assert not tool.resolve(ROADMAP, span)
