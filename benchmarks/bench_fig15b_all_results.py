"""Figure 15(b): time to produce ALL results, by maximum CTSSN size.

The paper's second panel sweeps the maximum candidate TSS network size
and measures full-result enumeration per decomposition.  Its punchline
inverts Figure 15(a): the *unindexed* minimal decomposition
(``MinNClustNIndx``) is fastest, "since the full table scan and the
hash join is the fastest way to perform a join when the size of the
relations is small relative to main memory".  That inversion rests on
the DBMS choosing a hash join for unindexed relations; SQLite has no
hash join, so here all four decompositions run on the one ``python``
executor, as Figure 15(a) does (one focused query per probe), and the
unindexed variant pays a heap scan per probe.  EXPERIMENTS.md records
the figure as not reproduced on SQLite.

The CTSSN size is controlled through the query bound Z: for two
author keywords, Z = size + 2 (each keyword costs one containment edge
inside its TSS).

Run:  pytest benchmarks/bench_fig15b_all_results.py --benchmark-only
"""

from __future__ import annotations

import pytest

import common

SIZES = (2, 3, 4)


def run_all_results(decomposition_name: str, size: int) -> int:
    total = 0
    for prepared in common.prepared_searches(decomposition_name, max_size=size + 2):
        total += common.execute_prepared(prepared, None)
    return total


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("decomposition", common.ALL_RESULT_DECOMPOSITIONS)
def test_fig15b_all_results(benchmark, decomposition, size):
    benchmark.group = f"fig15b-size{size}"
    benchmark.name = decomposition
    produced = benchmark(run_all_results, decomposition, size)
    assert produced > 0
