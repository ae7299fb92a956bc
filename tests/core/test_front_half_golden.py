"""Golden front half: candidate networks and their plans, byte for byte.

``front_half_golden.txt`` records, for a fixed query set on all three
catalogs, the ordered canonical keys ``CNGenerator.generate`` returns
and every CTSSN's ``Optimizer.plan(...).describe()``.  The generator's
pruning and the optimizer's cover search may be rewritten for speed,
never for output: any difference here is a behaviour change.

Keyword-to-schema-node maps are fixed rather than read from the data,
so the CN lists depend only on the schema; the small seeded databases
supply the relation row counts that break cost ties between covers.

Regenerate the file only for an intended change in output::

    PYTHONPATH=src python tests/core/test_front_half_golden.py > tests/core/front_half_golden.txt
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.plans import DebugVerifier
from repro.core import CNGenerator, KeywordQuery, Optimizer
from repro.core.ctssn import reduce_to_ctssn
from repro.decomposition import xkeyword_decomposition
from repro.schema import dblp_catalog, tpch_catalog, xmark_catalog
from repro.storage import load_database
from repro.workloads import (
    DBLPConfig,
    TPCHConfig,
    XMarkConfig,
    generate_dblp,
    generate_tpch,
    generate_xmark,
)

GOLDEN = Path(__file__).with_name("front_half_golden.txt")

CATALOGS = {"dblp": dblp_catalog, "tpch": tpch_catalog, "xmark": xmark_catalog}

GRAPHS = {
    "dblp": lambda: generate_dblp(
        DBLPConfig(papers=60, authors=30, avg_citations=3.0, seed=3)
    ),
    "tpch": lambda: generate_tpch(TPCHConfig(persons=10, seed=5)),
    "xmark": lambda: generate_xmark(XMarkConfig(persons=12, items=8, auctions=10, seed=5)),
}

# (catalog, {keyword: schema nodes}, max_size, dedupe)
QUERIES = (
    ("dblp", {"smith": {"aname"}, "balmin": {"aname"}}, 8, True),
    ("dblp", {"xml": {"title"}, "smith": {"aname"}}, 7, True),
    ("dblp", {"smith": {"aname"}, "chen": {"aname"}, "xml": {"title"}}, 6, True),
    ("dblp", {"smith": {"aname"}, "chen": {"aname"}}, 5, False),
    ("tpch", {"tv": {"pa_name"}, "vcr": {"pa_name", "pr_descr"}}, 8, True),
    ("tpch", {"john": {"pname"}, "vcr": {"pa_name", "pr_descr"}}, 8, True),
    ("tpch", {"us": {"nation"}, "dvd": {"sc_descr", "pr_descr"}}, 6, True),
    ("xmark", {"alice": {"p_name"}, "lamp": {"i_name", "i_descr"}}, 6, True),
    ("xmark", {"alice": {"p_name"}, "bob": {"p_name"}}, 6, True),
)


def front_half():
    """Per golden query: its header line, database, CNs and plans."""
    loaded = {}
    for catalog_name, keyword_nodes, max_size, dedupe in QUERIES:
        if catalog_name not in loaded:
            catalog = CATALOGS[catalog_name]()
            decomposition = xkeyword_decomposition(catalog.tss, 4, 1)
            loaded[catalog_name] = load_database(
                GRAPHS[catalog_name](), catalog, [decomposition]
            )
        db = loaded[catalog_name]
        query = KeywordQuery(tuple(keyword_nodes), max_size=max_size)
        networks = CNGenerator(db.catalog.schema, keyword_nodes, dedupe=dedupe).generate(
            query
        )
        optimizer = Optimizer(dict(db.stores), db.statistics)
        plans = [
            optimizer.plan(reduce_to_ctssn(network, db.catalog.tss))
            for network in networks
        ]
        header = (
            f"## {catalog_name} {' '.join(query.keywords)} Z={max_size} dedupe={dedupe}"
            f" cns={len(networks)}"
        )
        yield header, db, query, networks, plans


def render() -> str:
    """The golden text: every query's CN keys, then its plans."""
    lines: list[str] = []
    for header, _, _, networks, plans in front_half():
        lines.append(header)
        lines.extend(f"cn {network.canonical_key}" for network in networks)
        lines.extend(plan.describe() for plan in plans)
    return "\n".join(lines) + "\n"


def test_front_half_matches_golden():
    assert render() == GOLDEN.read_text()


def test_front_half_passes_debug_verify():
    """No RV3xx finding on any golden CN, CTSSN or plan."""
    verifier = DebugVerifier()
    for _, db, query, networks, plans in front_half():
        for network, plan in zip(networks, plans):
            verifier.check_cn(network, query.keywords)
            verifier.check_ctssn(plan.ctssn, query.keywords, db.catalog.tss)
            verifier.check_plan(plan, db.stores)


if __name__ == "__main__":
    print(render(), end="")
