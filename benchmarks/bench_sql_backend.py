"""Backend ablation on the Figure 15(a) workload: Python vs compiled SQL.

The ``sql`` backend compiles each execution plan to one parameterized
SELECT and evaluates the whole join inside SQLite, so a top-k search
sends one statement per executed candidate network where the Python
executor sends one probe per binding.  Under the default
``shared-prefix+pruning`` scheduler the compiled backend already wins
in-process; once every statement pays a network round trip (the paper's
JDBC hop to Oracle), its statement economy dominates.

The serial scheduler is deliberately absent here: without the top-k
bound SQLite computes the full join before applying LIMIT, so
``sql`` + ``serial`` on huge CNs loses to Python's early termination —
see DESIGN.md §13.

Run:  pytest benchmarks/bench_sql_backend.py --benchmark-only
"""

from __future__ import annotations

import pytest

import common

KS = (1, 10)
BACKENDS = ("python", "sql")


def run_topk(backend: str, k: int) -> int:
    total = 0
    for prepared in common.prepared_searches("XKeyword", max_size=8):
        total += common.execute_prepared(
            prepared, k, backend=backend, strategy="shared-prefix+pruning"
        )
    return total


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_topk(benchmark, backend, k):
    benchmark.group = f"sql-backend-top{k}"
    benchmark.name = backend
    produced = benchmark(run_topk, backend, k)
    assert produced > 0


def test_sql_sends_fewer_statements():
    """Shape check (not a timing): the compiled backend's whole point is
    statement economy — it must send strictly fewer DBMS statements than
    the Python executor on the same top-10 workload."""
    from repro.core import ExecutorConfig

    sent = {}
    for backend in BACKENDS:
        engine = common.engine_for("XKeyword", backend=backend)
        total = 0
        for query in common.bench_queries(max_size=8):
            result = engine.search(
                query, k=10, config=ExecutorConfig(backend=backend),
                parallel=False,
            )
            total += result.metrics.queries_sent
        sent[backend] = total
    assert sent["sql"] < sent["python"], sent
