"""Overhead of ``debug_verify`` mode on the Figure 15(a) workload.

The :class:`repro.analysis.plans.DebugVerifier` re-checks every
candidate network, CTSSN and execution plan (rules RV301-RV311) before
execution.  These checks are pure structural walks — no relation
lookups — so their cost scales with the number and size of candidate
networks, not with the data.  This benchmark quantifies that cost on the
paper's top-K configuration (DBLP, two keywords, Z = 8, M = 6, B = 2):

* ``pipeline/baseline`` vs ``pipeline/debug-verify``: the full query
  pipeline (containing lists through top-10 execution) with the
  verifier off and on.  The delta is what a developer pays for running
  a service with ``--debug-verify``.
* ``verify-only``: just the verification passes over pre-built
  CTSSNs and plans, isolating the checker cost itself.

Run:  pytest benchmarks/bench_analysis_overhead.py --benchmark-only
"""

from __future__ import annotations

import pytest

import common
from repro.analysis.plans import DebugVerifier, ctssn_violations, plan_violations
from repro.core import XKeyword

K = 10
DECOMPOSITION = "XKeyword"


def make_engine(verify: bool) -> XKeyword:
    verifier = DebugVerifier() if verify else None
    return XKeyword(
        common.bench_database(),
        store_priority=[DECOMPOSITION],
        verifier=verifier,
    )


def run_pipeline(engine: XKeyword) -> int:
    """The whole query path: this is where the verifier hooks live."""
    produced = 0
    for query in common.bench_queries(max_size=8):
        result = engine.search(query, k=K)
        produced += len(result.mttons)
    return produced


@pytest.mark.parametrize("mode", ("baseline", "debug-verify"))
def test_pipeline_overhead(benchmark, mode):
    benchmark.group = f"analysis-overhead-top{K:02d}"
    benchmark.name = f"pipeline/{mode}"
    engine = make_engine(verify=mode == "debug-verify")
    produced = benchmark(run_pipeline, engine)
    assert produced > 0


def test_verify_only(benchmark):
    """Checker cost in isolation, over every CTSSN and plan of the
    workload (pre-built outside the timer)."""
    benchmark.group = f"analysis-overhead-top{K:02d}"
    benchmark.name = "verify-only"
    engine = make_engine(verify=False)
    tss_graph = common.bench_database().catalog.tss
    subjects = []
    for prepared in common.prepared_searches(DECOMPOSITION, max_size=8):
        for ctssn, plan in prepared.plans:
            subjects.append((ctssn, plan, prepared.query.keywords))

    def verify_all() -> int:
        violations = 0
        for ctssn, plan, keywords in subjects:
            violations += len(ctssn_violations(ctssn, keywords, tss_graph))
            violations += len(plan_violations(plan, engine.stores))
        return violations

    violations = benchmark(verify_all)
    assert violations == 0
    assert subjects
