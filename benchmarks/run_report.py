"""Regenerate every paper figure as a printed table, in one run.

``pytest benchmarks/ --benchmark-only`` gives statistically robust
timings; this script complements it by printing the *series* exactly the
way the paper's figures plot them (one row per x-axis point, one column
per curve), so paper-vs-measured comparison is direct.

Every cell is the median of ``repeats`` runs (3, or 1 under
``--quick``).  These are reproduction scripts, not a regression gate:
regressions are caught by ``benchmarks/e2e`` (see its README).

Run:  python benchmarks/run_report.py [--quick] [--latency SECONDS]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import common
from repro.baselines import BanksSearcher
from repro.core import XKeyword
from repro.decomposition import FragmentClass, classify_fragment, minimal_decomposition
from repro.schema import dblp_catalog
from repro.service import QueryService, ServiceConfig
from repro.storage import (
    Database,
    RelationStore,
    build_target_object_graph,
    load_database,
    store_metadata,
)
from repro.updates import UpdateManager
from repro.workloads import DBLPConfig, generate_dblp

def timed(callable_, repeats: int = 3) -> float:
    """Median wall-clock seconds over a few repeats."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def table(title: str, header: list[str], rows: list[list[str]]) -> None:
    print(f"\n## {title}")
    widths = [
        max(len(str(row[i])) for row in [header] + rows) for i in range(len(header))
    ]
    print("  " + "  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def fig15a(repeats: int) -> None:
    ks = (1, 5, 10, 20)
    names = list(common.TOPK_DECOMPOSITIONS) + ["MinNClustNIndx"]
    # One untimed pass per decomposition first: the very first execution
    # in the process pays a one-time ~tens-of-ms setup cost (temp-schema
    # and cache warm-up) that would otherwise land on an arbitrary cell
    # of the K=1 row, so a cell's number would depend on table order.
    for name in names:
        for p in common.prepared_searches(name, max_size=8):
            common.execute_prepared(p, 1, strategy="shared-prefix+pruning")
    rows = []
    for k in ks:
        row = [str(k)]
        for name in names:
            prepared = common.prepared_searches(name, max_size=8)
            seconds = timed(
                lambda: [
                    common.execute_prepared(p, k, strategy="shared-prefix+pruning")
                    for p in prepared
                ],
                repeats,
            )
            row.append(f"{seconds * 1000:.1f}")
        rows.append(row)
    table(
        "Figure 15(a) - top-K execution time (ms) per decomposition",
        ["K"] + names,
        rows,
    )


def fig15b(repeats: int) -> None:
    sizes = (2, 3, 4)
    names = list(common.ALL_RESULT_DECOMPOSITIONS)
    rows = []
    for size in sizes:
        row = [str(size)]
        for name in names:
            prepared = common.prepared_searches(name, max_size=size + 2)
            for p in prepared:  # untimed warm-up (see fig15a)
                common.execute_prepared(p, None)
            seconds = timed(
                lambda: [common.execute_prepared(p, None) for p in prepared],
                repeats,
            )
            row.append(f"{seconds * 1000:.1f}")
        rows.append(row)
    table(
        "Figure 15(b) - all-results time (ms) by max CTSSN size",
        ["size"] + names,
        rows,
    )


def fig16a(repeats: int, latency: float) -> None:
    sizes = (2, 3, 4)
    rows = []
    database = common.bench_database().database
    for size in sizes:
        prepared = common.prepared_searches("MinClust", max_size=size + 2)

        def run(memoize: bool) -> None:
            for p in prepared:
                common.execute_prepared(p, None, memoize=memoize)

        raw_cached = timed(lambda: run(True), repeats)
        raw_naive = timed(lambda: run(False), repeats)
        with common.round_trip_latency(database, latency):
            lat_cached = timed(lambda: run(True), repeats)
            lat_naive = timed(lambda: run(False), repeats)
        rows.append(
            [
                str(size),
                f"{raw_naive / raw_cached:.2f}",
                f"{lat_naive / lat_cached:.2f}",
            ]
        )
    table(
        f"Figure 16(a) - caching speedup (naive / optimized), "
        f"round trip = {latency * 1000:.1f} ms",
        ["max CTSSN size", "in-process speedup", "with-round-trips speedup"],
        rows,
    )


def fig16b(repeats: int, latency: float) -> None:
    import bench_fig16b_expansion as fig

    sizes = (2, 3, 4)
    database = common.bench_database().database
    rows = []
    for size in sizes:
        row = [str(size)]
        for variant in ("inlined", "minimal", "combination"):
            samples = []
            for _ in range(repeats):
                navigator = fig.build_navigator(variant, size)
                with common.round_trip_latency(database, latency):
                    started = time.perf_counter()
                    fig.expand_paper(navigator)
                    samples.append(time.perf_counter() - started)
            row.append(f"{statistics.median(samples) * 1000:.0f}")
        rows.append(row)
    table(
        f"Figure 16(b) - expansion time (ms) of a Paper node, "
        f"round trip = {latency * 1000:.1f} ms",
        ["CTSSN size", "inlined", "minimal", "combination"],
        rows,
    )


def space_report() -> None:
    catalog = dblp_catalog()
    loaded = common.bench_database()
    to_graph = build_target_object_graph(loaded.graph, loaded.catalog.tss)
    rows = []
    for decomposition in common.build_decompositions():
        database = Database()
        store_metadata(database, to_graph)
        store = RelationStore(database, decomposition)
        store.create()
        started = time.perf_counter()
        counts = store.load()
        seconds = time.perf_counter() - started
        mvd = sum(
            1
            for fragment in decomposition.fragments
            if classify_fragment(fragment, catalog.tss).fragment_class
            is FragmentClass.MVD
        )
        rows.append(
            [
                decomposition.name,
                str(len(decomposition.fragments)),
                str(mvd),
                str(sum(counts.values())),
                f"{seconds:.2f}",
            ]
        )
        database.close()
    table(
        "Ablation E5 - decomposition space and load cost",
        ["decomposition", "fragments", "MVD", "rows", "load s"],
        rows,
    )


def scheduler_ablation(repeats: int) -> None:
    """Cross-CN scheduler ablation on the Fig 15(a)/(b) workloads.

    Three strategies, identical results (the equivalence suite asserts
    it): ``serial`` evaluates every CN to K results independently;
    ``shared-prefix`` materializes each canonical join prefix once per
    query; ``shared-prefix+pruning`` also skips CNs whose score exceeds
    the global k-th best.  The last column is the serial/pruning ratio
    EXPERIMENTS.md tracks.
    """
    strategies = ("serial", "shared-prefix", "shared-prefix+pruning")
    rows = []
    measured: dict[tuple[int, str], float] = {}
    for k in (1, 10, 20):
        prepared = common.prepared_searches("XKeyword", max_size=8)
        row = [str(k)]
        for strategy in strategies:
            seconds = timed(
                lambda: [
                    common.execute_prepared(p, k, strategy=strategy)
                    for p in prepared
                ],
                repeats,
            )
            measured[(k, strategy)] = seconds
            row.append(f"{seconds * 1000:.1f}")
        speedup = measured[(k, "serial")] / measured[(k, "shared-prefix+pruning")]
        row.append(f"{speedup:.2f}x")
        rows.append(row)
    table(
        "Scheduler ablation - Fig 15(a) workload (ms), XKeyword decomposition",
        ["K"] + list(strategies) + ["serial/pruning"],
        rows,
    )


def baselines_report(repeats: int) -> None:
    graph = common.bench_graph()
    banks = BanksSearcher(graph)
    rows = []
    prepared = common.prepared_searches("XKeyword", max_size=8)
    xk_seconds = timed(
        lambda: [
            common.execute_prepared(p, 10, strategy="shared-prefix+pruning")
            for p in prepared
        ],
        repeats,
    )
    queries = common.bench_queries(max_size=8)
    bk_seconds = timed(
        lambda: [banks.search(list(q.keywords), k=10, max_size=8) for q in queries],
        repeats,
    )
    engine = common.engine_for("MinClust")
    agreement = all(
        engine.search(q, k=1).mttons[0].score
        == banks.search(list(q.keywords), k=1, max_size=8)[0].score
        for q in queries
    )
    rows.append(["XKeyword top-10", f"{xk_seconds * 1000:.1f}", "-"])
    rows.append(
        ["BANKS top-10 (data graph)", f"{bk_seconds * 1000:.1f}", str(agreement)]
    )
    table(
        "Ablation E7 - XKeyword vs BANKS (same queries)",
        ["system", "ms", "best-score agreement"],
        rows,
    )


def updates_report(repeats: int) -> None:
    """Live updates: in-place mutation latency vs. a full reload, plus
    cross-query cache retention across unrelated mutations.

    A private database is built (same scale) because mutations would
    corrupt the memoized shared one the other sections reuse.
    """
    catalog = dblp_catalog()
    graph = generate_dblp(
        DBLPConfig(
            papers=common.SCALE.papers,
            authors=common.SCALE.authors,
            avg_citations=common.SCALE.avg_citations,
            seed=common.SCALE.seed,
        )
    )
    decompositions = [minimal_decomposition(catalog.tss)]
    loaded = load_database(graph, catalog, decompositions)
    manager = UpdateManager(loaded)
    serial = [0]

    def one_update() -> None:
        serial[0] += 1
        manager.update_document(
            "p9",
            f'<paper id="p9" ref="a4 p3">'
            f'<title id="p9t">incremental probe {serial[0]}</title>'
            f'<pages id="p9g">1-2</pages></paper>',
        )

    one_update()  # warm the sqlite page cache before timing
    update_seconds = timed(one_update, max(repeats, 3))
    reload_seconds = timed(
        lambda: load_database(loaded.graph, catalog, decompositions),
        repeats,
    )
    speedup = reload_seconds / update_seconds

    service = QueryService(loaded, ServiceConfig(workers=2, cache_ttl=None))
    try:
        queries = [list(query.keywords) for query in common.bench_queries()]
        for keywords in queries:
            service.search(keywords, k=10)
        replays = hits = 0
        for round_number in range(3):
            service.insert_document(
                f'<author id="rr{round_number}">'
                f'<aname id="rr{round_number}n">unrelated {round_number}</aname>'
                "</author>"
            )
            for keywords in queries:
                replays += 1
                hits += bool(service.search(keywords, k=10)["cached"])
        retention = hits / replays if replays else 0.0
    finally:
        service.close()

    table(
        "Live updates - incremental maintenance vs full reload",
        ["metric", "value"],
        [
            ["single in-place update (ms)", f"{update_seconds * 1000:.1f}"],
            ["full reload (ms)", f"{reload_seconds * 1000:.1f}"],
            ["update vs reload speedup", f"{speedup:.1f}x"],
            ["cache hit-rate retention", f"{retention:.2f}"],
        ],
    )


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="1 repeat per point")
    parser.add_argument("--latency", type=float, default=0.0003)
    args = parser.parse_args()
    repeats = 1 if args.quick else 3

    print("building the shared benchmark database (once)...")
    started = time.perf_counter()
    loaded = common.bench_database()
    print(
        f"  {loaded.report.target_objects} target objects, "
        f"{loaded.report.edge_instances} TSS-edge instances "
        f"({time.perf_counter() - started:.1f} s)"
    )
    fig15a(repeats)
    fig15b(repeats)
    fig16a(repeats, args.latency)
    fig16b(repeats, args.latency)
    scheduler_ablation(repeats)
    space_report()
    baselines_report(repeats)
    updates_report(repeats)


if __name__ == "__main__":
    main()
