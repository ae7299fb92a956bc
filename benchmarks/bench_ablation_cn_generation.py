"""Ablation E6: candidate-network generation cost.

Quantifies the paper's claimed "performance improvements over [13]":
our generator deduplicates partial networks by canonical tree encodings
instead of keeping every redundant generation path alive, and rejects a
child from its parts before building it.  The sweep
also records how the CN count grows with Z (the paper notes times are
"an order of magnitude smaller when we reduce Z by one").

Run:  pytest benchmarks/bench_ablation_cn_generation.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.core import CNGenerator, KeywordQuery
from repro.schema import dblp_catalog, tpch_catalog

ZS = (4, 6, 8)


def generate(schema, keyword_nodes, z: int, dedupe: bool) -> int:
    generator = CNGenerator(schema, keyword_nodes, dedupe=dedupe)
    keywords = tuple(keyword_nodes)
    return len(generator.generate(KeywordQuery(keywords, max_size=z)))


@pytest.mark.parametrize("z", ZS)
def test_cn_generation_dblp(benchmark, z):
    benchmark.group = f"cn-gen-dblp-Z{z}"
    benchmark.name = "canonical dedupe"
    catalog = dblp_catalog()
    count = benchmark(
        generate, catalog.schema, {"kw1": {"aname"}, "kw2": {"aname"}}, z, True
    )
    assert count > 0


@pytest.mark.parametrize("z", ZS)
def test_cn_generation_dblp_no_dedupe(benchmark, z):
    """Without canonical dedupe every redundant generation path stays on
    the frontier; the bound rejects most children before they are built,
    so even Z = 8 is tractable (EXPERIMENTS.md, Ablation E6)."""
    benchmark.group = f"cn-gen-dblp-Z{z}"
    benchmark.name = "no dedupe (DISCOVER-style)"
    catalog = dblp_catalog()
    count = benchmark(
        generate, catalog.schema, {"kw1": {"aname"}, "kw2": {"aname"}}, z, False
    )
    assert count > 0


@pytest.mark.parametrize("dedupe", [True, False], ids=["dedupe", "no-dedupe"])
@pytest.mark.parametrize("z", ZS)
def test_cn_generation_dblp_three_keywords(benchmark, z, dedupe):
    """Two author names and a title word.  With two keywords the frontier
    grows from the anchor along one path per shape, so dedupe has nothing
    to remove; a third keyword creates the redundant paths it exists for."""
    benchmark.group = f"cn-gen-dblp3-Z{z}"
    benchmark.name = "canonical dedupe" if dedupe else "no dedupe (DISCOVER-style)"
    catalog = dblp_catalog()
    count = benchmark(
        generate,
        catalog.schema,
        {"kw1": {"aname"}, "kw2": {"aname"}, "kw3": {"title"}},
        z,
        dedupe,
    )
    assert count > 0


@pytest.mark.parametrize("z", ZS)
def test_cn_generation_tpch(benchmark, z):
    benchmark.group = f"cn-gen-tpch-Z{z}"
    benchmark.name = "canonical dedupe"
    catalog = tpch_catalog()
    count = benchmark(
        generate,
        catalog.schema,
        {"kw1": {"pa_name"}, "kw2": {"pa_name", "pr_descr"}},
        z,
        True,
    )
    assert count > 0
