"""Tests for the dependency-free metrics registry."""

import re
import threading
from pathlib import Path

import pytest

from repro.decomposition import minimal_decomposition
from repro.schema import dblp_catalog
from repro.service import MetricsRegistry, QueryService, ServiceConfig
from repro.storage import load_database
from repro.workloads import DBLPConfig, generate_dblp

ROOT = Path(__file__).resolve().parents[2]


def registered_metric_names() -> set[str]:
    """Every ``"repro_…"`` metric-name literal under ``src/repro/service/``."""
    registered = set()
    for source in (ROOT / "src" / "repro" / "service").glob("*.py"):
        registered |= set(re.findall(r'"(repro_\w+)"', source.read_text()))
    assert registered, "no metric literals found; did the sources move?"
    return registered


class TestCounter:
    def test_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_advance_to_only_moves_up(self):
        counter = MetricsRegistry().counter("c_total")
        counter.advance_to(4)
        counter.advance_to(2)
        assert counter.value == 4
        counter.inc()
        counter.advance_to(5)
        assert counter.value == 5

    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c_total") is registry.counter("c_total")

    def test_labels_distinguish_series(self):
        registry = MetricsRegistry()
        ok = registry.counter("req_total", status="200")
        bad = registry.counter("req_total", status="503")
        ok.inc()
        assert ok is not bad
        assert bad.value == 0

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4


class TestHistogram:
    def test_counts_and_sum(self):
        histogram = MetricsRegistry().histogram("lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(5.55)

    def test_quantile_estimate(self):
        histogram = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0, 10.0))
        for _ in range(99):
            histogram.observe(0.05)
        histogram.observe(5.0)
        assert histogram.quantile(0.5) == 0.1
        assert histogram.quantile(1.0) == 10.0

    def test_exact_boundary_lands_in_bucket(self):
        histogram = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        histogram.observe(1.0)  # le="1" must include it (cumulative)
        rendered = "\n".join(histogram.render())
        assert 'lat_bucket{le="1"} 1' in rendered


class TestExposition:
    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests", endpoint="search").inc(3)
        registry.gauge("depth", "Queue depth").set(2)
        registry.histogram("lat_seconds", "Latency", buckets=(0.1,)).observe(0.05)
        text = registry.render()
        assert "# TYPE req_total counter" in text
        assert "# HELP req_total Requests" in text
        assert 'req_total{endpoint="search"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("weird_total", label='say "hi"\n').inc()
        assert 'label="say \\"hi\\"\\n"' in registry.render()

    def test_total_suffix_marks_exactly_the_counters(self, small_dblp_db):
        """Over one rendered service ``/metrics``: every ``*_total`` family
        is a counter, and every counter's name ends in ``_total``."""
        service = QueryService(small_dblp_db, ServiceConfig(workers=1, queue_size=2))
        try:
            service.search(["smith", "balmin"], k=3, max_size=6)
            service.observe_request("search", 200, 0.01)
            text = service.metrics_text()
        finally:
            service.close()
        types = dict(re.findall(r"^# TYPE (\S+) (\S+)$", text, re.M))
        assert "repro_admission_expired_total" in types
        mismatched = {
            name: kind
            for name, kind in types.items()
            if name.endswith("_total") != (kind == "counter")
        }
        assert mismatched == {}


class TestCatalogue:
    def test_operations_lists_exactly_the_registered_metric_names(self):
        """Static diff: every ``"repro_…"`` metric-name literal under
        ``src/repro/service/`` against the OPERATIONS.md §5 tables."""
        runbook = (ROOT / "docs" / "OPERATIONS.md").read_text()
        section = runbook[runbook.index("## 5."):runbook.index("## 6.")]
        documented = set()
        for line in section.splitlines():
            if line.startswith("| `repro_"):
                documented |= set(re.findall(r"`(repro_\w+)", line.split("|")[1]))
        assert documented == registered_metric_names()

    def test_documented_labels_are_the_rendered_labels(self):
        """Each OPERATIONS.md §5 row's ``{labels}`` are exactly the label
        names its series render with, over a service that has served a
        search, a request and a write (``repro_cache_invalidations_total``
        renders with no label: every write drops every entry)."""
        runbook = (ROOT / "docs" / "OPERATIONS.md").read_text()
        section = runbook[runbook.index("## 5."):runbook.index("## 6.")]
        documented = {}
        for line in section.splitlines():
            if line.startswith("| `repro_"):
                for name, labels in re.findall(
                    r"`(repro_\w+)(?:\{([\w,]+)\})?`", line.split("|")[1]
                ):
                    documented[name] = set(labels.split(",")) - {""}
        catalog = dblp_catalog()
        graph = generate_dblp(DBLPConfig(papers=12, authors=8, avg_citations=1.0, seed=3))
        loaded = load_database(graph, catalog, [minimal_decomposition(catalog.tss)])
        service = QueryService(loaded, ServiceConfig(workers=1, queue_size=2))
        try:
            service.search(["smith"], k=3, max_size=4)
            service.observe_request("search", 200, 0.01)
            service.insert_document('<author id="m0"><aname id="m0n">label probe</aname></author>')
            text = service.metrics_text()
        finally:
            service.close()
        rendered: dict[str, set[str]] = {}
        for family, labels in re.findall(r"^(repro_\w+?)(?:_bucket|_sum|_count)?(?:\{(.*)\})? \S+$", text, re.M):
            names = set(re.findall(r'(\w+)="', labels)) - {"le"}
            rendered.setdefault(family, set()).update(names)
        assert "repro_cache_invalidations_total" in rendered
        assert {name: rendered[name] for name in documented if name in rendered} == {
            name: labels for name, labels in documented.items() if name in rendered
        }

    def test_prose_docs_name_only_registered_metrics(self):
        """Every backticked ``repro_*`` name in README, DESIGN, EXPERIMENTS
        and ARCHITECTURE is registered; one ending in ``_`` (say
        ``repro_query_cache_{hits,misses}_total``) names a family prefix."""
        registered = registered_metric_names()
        unknown = []
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md"):
            for name in re.findall(r"`(repro_\w+)", (ROOT / doc).read_text()):
                if name.endswith("_"):
                    known = any(metric.startswith(name) for metric in registered)
                else:
                    known = name in registered
                if not known:
                    unknown.append(f"{doc}: {name}")
        assert unknown == []


@pytest.mark.stress
class TestThreadSafety:
    def test_concurrent_increments_lose_nothing(self):
        counter = MetricsRegistry().counter("c_total")
        histogram = MetricsRegistry().histogram("h", buckets=(1.0,))

        def hammer():
            for _ in range(1000):
                counter.inc()
                histogram.observe(0.5)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000
        assert histogram.count == 8000

    def test_histogram_stress_exact_totals(self):
        """8 threads, varied values: no observation is lost or torn.

        Every thread observes a deterministic value cycle spanning all
        buckets, so the final per-bucket counts, sum and count are known
        exactly; any RA101-style unlocked update would show up as a
        discrepancy.
        """
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "stress_seconds", buckets=(0.1, 1.0, 10.0)
        )
        values = (0.05, 0.5, 5.0, 50.0)
        per_thread = 500
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            for i in range(per_thread):
                histogram.observe(values[i % len(values)])

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        expected_total = 8 * per_thread
        expected_per_bucket = expected_total // len(values)
        assert histogram.count == expected_total
        assert histogram.sum == pytest.approx(
            8 * sum(values) * (per_thread // len(values))
        )
        assert histogram._counts == [expected_per_bucket] * len(values)
        assert histogram.quantile(0.5) == 1.0

    def test_histogram_render_is_consistent_under_writes(self):
        """Concurrent render() snapshots are internally consistent.

        render() takes one snapshot under the lock, so in every emitted
        block the +Inf bucket, _count and the cumulative bucket chain
        must agree even while writers are mid-flight.
        """
        registry = MetricsRegistry()
        histogram = registry.histogram("busy_seconds", buckets=(1.0,))
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                histogram.observe(0.5)
                histogram.observe(2.0)

        writers = [threading.Thread(target=writer, daemon=True) for _ in range(7)]
        for thread in writers:
            thread.start()
        try:
            for _ in range(200):
                lines = histogram.render()
                values = {}
                for line in lines:
                    name, number = line.rsplit(" ", 1)
                    values[name] = float(number)
                total = values['busy_seconds_bucket{le="+Inf"}']
                assert values["busy_seconds_count"] == total
                assert values['busy_seconds_bucket{le="1"}'] <= total
        finally:
            stop.set()
            for thread in writers:
                thread.join()
