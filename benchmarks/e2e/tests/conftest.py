"""Path set-up for ``python -m pytest benchmarks/e2e/tests``."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(E2E))
sys.path.insert(0, str(E2E.parents[1] / "src"))


@pytest.fixture(scope="session", autouse=True)
def warm_database():
    """Shadows the autouse fixture of ``benchmarks/conftest.py``, which
    loads the paper-figure database (six decompositions, tens of
    seconds) that nothing here uses."""
    yield
