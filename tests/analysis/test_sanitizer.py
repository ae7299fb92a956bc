"""The runtime lock sanitizer: RS401 and RS402 over the seeded scenarios."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import SanitizerDeadlockError, TrackedLock

FIXTURES = Path(__file__).parent / "fixtures"
SRC_ROOT = Path(__file__).parent.parent.parent / "src"


def _load_scenario(rule: str):
    """Import a fixture scenario under a ``rs4``-prefixed module name so
    the sanitizer's prefix gate wraps its lock allocations."""
    name = f"{rule}_scenario"
    spec = importlib.util.spec_from_file_location(
        name, FIXTURES / rule / "scenario.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    return module


@pytest.fixture
def sanitize():
    """Enable the sanitizer for one test, restoring prior state after.

    Under ``REPRO_SANITIZE=1`` the session conftest has already enabled
    it with the default prefixes; re-enable with the fixture prefixes
    for the duration, then hand the session instrumentation back.
    """
    was_enabled = sanitizer.enabled()
    if was_enabled:
        sanitizer.disable()
    sanitizer.enable(prefixes=("repro", "rs4"))
    sanitizer.reset()
    try:
        yield sanitizer
    finally:
        sanitizer.reset()
        sanitizer.disable()
        if was_enabled:
            sanitizer.enable()


class TestRS401:
    def test_inversion_is_reported(self, sanitize):
        scenario = _load_scenario("rs401")
        scenario.inversion()
        findings = sanitize.report()
        assert [f.rule for f in findings] == ["RS401"]
        assert "inversion" in findings[0].message

    def test_suppression_comment_silences(self, sanitize):
        scenario = _load_scenario("rs401")
        scenario.inversion_suppressed()
        assert sanitize.report() == []

    def test_consistent_nesting_is_clean(self, sanitize):
        scenario = _load_scenario("rs401")
        scenario.nested_consistent()
        assert sanitize.report() == []
        # The edge itself is still observed; it just closes no cycle.
        edges = sanitize.observed_edges()
        assert len(edges) == 1

    def test_unwrapped_modules_record_nothing(self, sanitize):
        import threading

        plain = threading.Lock()  # this module is outside the prefixes
        assert not isinstance(plain, TrackedLock)
        with plain:
            pass
        assert sanitize.observed_edges() == []


def test_inversion_found_after_a_long_run(sanitize):
    """An edge observed early still closes a cycle observed much later:
    more acquire/release pairs in between than any bounded event log
    of 65 536 entries could hold."""
    scenario = _load_scenario("rs401")
    scenario.inversion_after(churn=70_000)
    findings = sanitize.report()
    assert [f.rule for f in findings] == ["RS401"]


def test_served_edges_are_static_or_named(sanitize):
    """Every edge a served workload observes — searches, a single-flight
    join, cache replays, a traced search under the read lock, a
    mutation — is in the static lock graph or on the short named list,
    and every named edge is still one the static graph misses."""
    from repro.decomposition import minimal_decomposition
    from repro.schema import dblp_catalog
    from repro.service import QueryService, ServiceConfig
    from repro.storage import load_database
    from repro.workloads import DBLPConfig, generate_dblp

    from ..conftest import DYNAMIC_ONLY_EDGES, unexplained_edges

    catalog = dblp_catalog()
    graph = generate_dblp(DBLPConfig(papers=24, authors=12, avg_citations=2.0, seed=3))
    loaded = load_database(graph, catalog, [minimal_decomposition(catalog.tss)])
    service = QueryService(loaded, ServiceConfig(workers=2, tracing=True))
    try:
        for _ in range(2):  # a miss, then a cache replay
            service.search(["smith", "balmin"], k=5, max_size=6)
        service.insert_document(
            '<author id="san0"><aname id="san0n">sanitizer probe</aname></author>'
        )
        service.search(["smith", "balmin"], k=5, max_size=6)
    finally:
        service.close()

    observed = {(edge.held, edge.acquired) for edge in sanitize.observed_edges()}
    assert ("SingleFlight._lock", "Flight._lock") in observed
    assert unexplained_edges(sanitize) == []
    static = set(sanitizer._static_graph().edge_set())
    assert ("SingleFlight._lock", "Flight._lock") in static
    assert not set(DYNAMIC_ONLY_EDGES) & static
    assert set(DYNAMIC_ONLY_EDGES) <= observed


class TestRS402:
    def test_upgrade_raises_and_reports(self, sanitize):
        scenario = _load_scenario("rs402")
        with pytest.raises(SanitizerDeadlockError):
            scenario.upgrade()
        findings = sanitize.report()
        assert [f.rule for f in findings] == ["RS402"]
        assert "read->write upgrade" in findings[0].message

    def test_suppressed_upgrade_still_raises_but_stays_silent(self, sanitize):
        # Letting the acquisition proceed would hang the test run, so
        # the raise is unconditional; only the *finding* is suppressed.
        scenario = _load_scenario("rs402")
        with pytest.raises(SanitizerDeadlockError):
            scenario.upgrade_suppressed()
        assert sanitize.report() == []

    def test_sequential_read_then_write_is_fine(self, sanitize):
        scenario = _load_scenario("rs402")
        scenario.disciplined()
        assert sanitize.report() == []


class TestLifecycle:
    def test_disable_restores_originals_by_identity(self):
        import threading

        assert not sanitizer.enabled()
        original = threading.Lock
        sanitizer.enable(prefixes=("repro",))
        try:
            assert threading.Lock is not original
        finally:
            sanitizer.reset()
            sanitizer.disable()
        assert threading.Lock is sanitizer._original_lock

    def test_exit_hook_fails_the_process(self):
        """A run that ends with findings exits nonzero via the atexit hook."""
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(FIXTURES)!r})\n"
            "from repro.analysis import sanitizer\n"
            "import importlib.util\n"
            "spec = importlib.util.spec_from_file_location(\n"
            f"    'rs401_scenario', {str(FIXTURES / 'rs401' / 'scenario.py')!r})\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "sys.modules['rs401_scenario'] = module\n"
            "sanitizer.enable(prefixes=('repro', 'rs4'))\n"
            "spec.loader.exec_module(module)\n"
            "module.inversion()\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_ROOT)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 1
        assert "RS401" in result.stderr
