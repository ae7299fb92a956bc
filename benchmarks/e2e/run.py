"""End-to-end HTTP benchmark of the XKeyword query service.

Two ways to run it, both from the repository root:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload, as ``BENCHMARK.json`` declares it.  With
    ``--trace 0`` it launches the real server (three times, for a median
    set-up time), warms it up, drives the closed-loop window and prints
    the end-to-end metrics; with ``--trace 1`` it prints the per-layer
    metrics instead (a shorter window for the server-side counters, then
    the in-process traced replay).  The last line of standard output is
    the result object the driver reads.

``python3 benchmarks/e2e/run.py [--seed N] [--quick] [--out FILE]``
    The full set: both passes of all four workloads, every metric by
    name with unit and sample count, and a JSON summary (``--out``)
    that ``compare.py`` reads.  It ends with ``"claim": null``: this
    benchmark defines the numbers, it claims none.

``--regen-golden`` rewrites ``golden/answers.json`` from the oracle
configuration (python backend, serial strategy, no thread pool, no
shards) and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: {ROOT / 'src' / 'repro'} not found; the benchmark serves the repo's source")
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import replay  # noqa: E402
import workloads  # noqa: E402
from measure import mean, median, metric, percentile, ratio, series_delta  # noqa: E402

GOLDEN_PATH = HERE / "golden" / "answers.json"
SETUP_LAUNCHES = 3
POST_CHECKS = 4
QUICK_SECONDS = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Outcome:
    """Operations attempted and failed in one run, with the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def judge(self, replies: list[harness.Reply], golden: dict | None) -> list[harness.Reply]:
        """Count ``replies`` and return the correct ones."""
        correct = []
        for reply in replies:
            self.attempted += 1
            reason = harness.check(reply, golden)
            if reason is None:
                correct.append(reply)
            else:
                self.fail(f"{reply.op.wire()[:120]!r}: {reason}")
        return correct

    def expect(self, condition: bool, reason: str) -> None:
        """One more checked operation; ``reason`` if it went wrong."""
        self.attempted += 1
        if not condition:
            self.fail(reason)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


# ----------------------------------------------------------------------
# The load pass
# ----------------------------------------------------------------------
def measure_window(
    server: harness.Server,
    corpus: workloads.Corpus,
    workload: str,
    seed: int,
    seconds: float,
    golden: dict,
    outcome: Outcome,
) -> tuple[dict, dict]:
    """Warm up, drive the closed loop for ``seconds`` and check the
    final state; returns ``(end_to_end, server_side)`` metrics."""
    # mixed_rw changes the data, so its answers have no golden form.
    golden = None if workload == "mixed_rw" else golden
    clients = workloads.CLIENTS[workload]
    quick_ack = workloads.QUICK_ACK[workload]
    outcome.judge(
        harness.drive(
            server.port,
            harness.split(workloads.warmup(corpus, workload), clients),
            quick_ack=quick_ack,
        ),
        golden,
    )
    scraper = harness.Client(server.port)
    before = scraper.scrape()
    cpu_started, started = time.process_time(), time.perf_counter()
    deadline = started + seconds
    replies = harness.drive(
        server.port,
        [workloads.operations(corpus, workload, seed, c) for c in range(clients)],
        deadline,
        quick_ack,
    )
    busy = time.process_time() - cpu_started
    wall = time.perf_counter() - started
    after = scraper.scrape()
    scraper.close()

    correct = outcome.judge(replies, golden)
    check_final_state(server.port, workload, correct, outcome)

    # Metrics cover what completed inside the window; the operation each
    # client had in flight at the deadline is checked but not timed.
    window = [reply for reply in correct if reply.finished <= deadline]
    searches = [reply for reply in window if reply.op.query_key is not None]
    writes = [reply for reply in window if reply.op.query_key is None]
    latency = [reply.latency_ms for reply in searches]
    by_cached = {
        flag: [r.latency_ms for r in searches if r.payload["cached"] is flag]
        for flag in (True, False)
    }
    write_latency = [reply.latency_ms for reply in writes]
    end_to_end = {
        "ops_per_s": metric(len(window) / seconds, "1/s", len(window)),
        "search_p50_ms": metric(median(latency), "ms", len(latency)),
        "first_result_p50_ms": metric(
            median([reply.first_result_ms for reply in searches]), "ms", len(searches)
        ),
        "search_p90_ms": metric(percentile(latency, 90), "ms", len(latency)),
        "search_mean_ms": metric(mean(latency), "ms", len(latency)),
        "mutate_p50_ms": metric(median(write_latency), "ms", len(writes)),
        "mutate_p90_ms": metric(percentile(write_latency, 90), "ms", len(writes)),
        "error_rate": metric(ratio(outcome.failed, outcome.attempted), "ratio", outcome.attempted),
    }

    def grew(name: str) -> float:
        return series_delta(before, after, name)

    hits, misses = grew("repro_query_cache_hits_total"), grew("repro_query_cache_misses_total")
    server_side = {
        "service.server.transport_ms": metric(
            median([r.latency_ms - r.payload["elapsed_ms"] for r in searches]),
            "ms", len(searches),
        ),
        "service.cache.hit_rate": metric(ratio(hits, hits + misses), "ratio", int(hits + misses)),
        "service.cache.invalidations": metric(grew("repro_cache_invalidations_total"), "count"),
        "service.singleflight.hit_rate": metric(
            ratio(grew("repro_singleflight_hits_total"), misses), "ratio", int(misses)
        ),
        "service.admission.shed": metric(grew("repro_shed_total"), "count"),
        "service.admission.deadline_exceeded": metric(
            grew("repro_deadline_exceeded_total"), "count"
        ),
        "service.search_hit_p50_ms": metric(
            median(by_cached[True]), "ms", len(by_cached[True])
        ),
        "service.search_miss_p50_ms": metric(
            median(by_cached[False]), "ms", len(by_cached[False])
        ),
        "loadgen.cpu_share": metric(busy / wall, "ratio"),
    }
    return end_to_end, server_side


def check_final_state(
    port: int, workload: str, correct: list[harness.Reply], outcome: Outcome
) -> None:
    """The checks that need a second look at the server after the window.

    ``cold_topk``: a streamed search's concatenated ``result`` events
    equal the buffered answer to the same query.  ``mixed_rw``: each
    still-live inserted paper is found by its probe token plus an author
    name, each deleted or replaced token is not.  A few of each, so the
    check costs about a second.
    """
    client = harness.Client(port)
    try:
        if workload == "cold_topk":
            for streamed in [r for r in correct if r.op.kind == "stream"][:POST_CHECKS]:
                body = streamed.op.body
                buffered = client.send(
                    workloads.search_op(body["keywords"], body["k"], body["max_size"])
                )
                outcome.expect(
                    harness.check(buffered) is None
                    and harness.answer_key(buffered.payload)
                    == harness.answer_key(streamed.payload),
                    f"{body['keywords']}: streamed results differ from the buffered answer",
                )
        if workload == "mixed_rw":
            live, gone = workloads.final_state([reply.op for reply in correct])
            for doc, op in list(live.items())[:POST_CHECKS]:
                found = client.send(
                    workloads.search_op((op.token, op.author), workloads.COLD_K, 4)
                )
                outcome.expect(
                    harness.check(found) is None
                    and any(
                        node["target_object"] == doc
                        for result in found.payload["results"]
                        for node in result["nodes"]
                    ),
                    f"{doc}: live paper not found by {op.token} {op.author}",
                )
            for token, op in list(gone.items())[:POST_CHECKS]:
                found = client.send(
                    workloads.search_op((token, op.author), workloads.COLD_K, 4)
                )
                outcome.expect(
                    harness.check(found) is None and found.payload["count"] == 0,
                    f"{op.doc}: removed token {token} still found",
                )
    finally:
        client.close()


@contextlib.contextmanager
def corpus_on_disk(corpus: workloads.Corpus):
    """The corpus file in a scratch directory inside this one (the
    benchmark writes nowhere else), removed on every exit path."""
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as scratch:
        workdir = Path(scratch)
        corpus_path = workdir / "corpus.xml"
        corpus_path.write_text(corpus.xml)
        yield corpus_path, workdir


def run_end_to_end(workload: str, seed: int, seconds: float, launches: int) -> dict:
    """The ``--trace 0`` pass: set-up time, the window, peak memory."""
    corpus = workloads.build_corpus()
    golden = json.loads(GOLDEN_PATH.read_text())
    outcome = Outcome()
    with corpus_on_disk(corpus) as (corpus_path, workdir):
        setups = []
        for _ in range(launches - 1):
            with harness.Server(corpus_path, workdir) as server:
                setups.append(server.setup_s)
        with harness.Server(corpus_path, workdir) as server:
            setups.append(server.setup_s)
            end_to_end, server_side = measure_window(
                server, corpus, workload, seed, seconds, golden, outcome
            )
            end_to_end["peak_rss_mb"] = metric(server.peak_rss_mb(), "MB")
    end_to_end["setup_s"] = metric(median(setups), "s", len(setups))
    return {
        "end_to_end": end_to_end,
        "server_side": server_side,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "reasons": outcome.reasons,
    }


# ----------------------------------------------------------------------
# The traced pass
# ----------------------------------------------------------------------
def run_layers(workload: str, seed: int, seconds: float, spans_out: Path | None) -> dict:
    """The ``--trace 1`` pass: half the time on a window that reads the
    server's counters, half on the in-process traced replay."""
    corpus = workloads.build_corpus()
    golden = json.loads(GOLDEN_PATH.read_text())
    outcome = Outcome()
    loaded, layers = replay.load_in_process(corpus)
    with corpus_on_disk(corpus) as (corpus_path, workdir):
        with harness.Server(corpus_path, workdir) as server:
            _, server_side = measure_window(
                server, corpus, workload, seed, seconds / 2, golden, outcome
            )
            probe = outcome.judge(
                harness.drive(server.port, [iter(replay.probe_mutations(corpus, seed))]),
                None,
            )
    layers.update(server_side)
    layers["updates.http.mutate_ms"] = metric(
        median([reply.latency_ms for reply in probe]), "ms", len(probe)
    )
    layers["updates.server_share"] = metric(
        median([reply.payload["seconds"] * 1000.0 / reply.latency_ms for reply in probe]),
        "ratio", len(probe),
    )
    replayed, recorder = replay.replay(loaded, corpus, workload, seed, seconds / 2)
    layers.update(replayed)
    layers.update(replay.replay_mutations(loaded, corpus, seed))
    if spans_out is not None:
        spans_out.write_text(json.dumps(recorder.dump()))
    return {
        "per_layer": layers,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "reasons": outcome.reasons,
    }


# ----------------------------------------------------------------------
# Golden answers
# ----------------------------------------------------------------------
def regen_golden() -> None:
    """Answer the verify set with the oracle configuration."""
    from repro.core import ExecutorConfig, KeywordQuery, XKeyword

    corpus = workloads.build_corpus()
    loaded, _ = replay.load_in_process(corpus)
    oracle = XKeyword(
        loaded, executor_config=ExecutorConfig(backend="python", strategy="serial"), shards=1
    )
    golden = {}
    for op in workloads.golden_queries(corpus):
        query = KeywordQuery(tuple(op.body["keywords"]), max_size=op.body["max_size"])
        result = oracle.search(query, k=op.body["k"], parallel=False)
        golden[op.query_key] = [
            [rank, m.score, m.ctssn.canonical_key, [[role, to] for role, to in m.assignment]]
            for rank, m in enumerate(result.mttons, 1)
        ]
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    lines = [
        f"{json.dumps(key)}: {json.dumps(answer, separators=(',', ':'))}"
        for key, answer in sorted(golden.items())
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} golden answers to {GOLDEN_PATH}")


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_metrics(workload: str, metrics: dict) -> None:
    for name, entry in metrics.items():
        value = "null" if entry["value"] is None else f"{entry['value']:.4f}"
        samples = f"  (n={entry['samples']})" if "samples" in entry else ""
        print(f"{workload:10} {name:40} {value:>14} {entry['unit']}{samples}")


def driver_line(run: dict, metrics: dict, names: list[dict]) -> str:
    """The result object of one run, exactly as ``BENCHMARK.json`` lists it."""
    selected = {}
    for declared in names:
        entry = metrics[declared["name"]]
        if entry["value"] is None:
            raise RuntimeError(f"{declared['name']} has no samples")
        selected[declared["name"]] = {"value": entry["value"], "unit": entry["unit"]}
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": selected,
    })


def report_failures(run: dict) -> None:
    for reason in run["reasons"]:
        print(f"failed: {reason}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the JSON summary (or, with "
                        "--workload and --trace 1, the recorded spans) here")
    parser.add_argument("--quick", action="store_true",
                        help=f"smoke run: {QUICK_SECONDS} s windows, one launch; "
                        "its summary is refused by compare.py")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the server is stopped and the
    # scratch directory removed on that path too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.regen_golden:
        regen_golden()
        return 0
    seconds = QUICK_SECONDS if args.quick else args.seconds
    launches = 1 if args.quick else SETUP_LAUNCHES

    if args.workload is not None:
        if args.trace:
            run = run_layers(args.workload, args.seed, seconds, args.out)
            metrics, declared = run["per_layer"], spec["per_layer"]
        else:
            run = run_end_to_end(args.workload, args.seed, seconds, launches)
            metrics, declared = run["end_to_end"], spec["end_to_end"]
        print_metrics(args.workload, metrics)
        if not args.trace:
            print_metrics(args.workload, run["server_side"])
        report_failures(run)
        print(driver_line(run, metrics, declared))
        return 0

    summary = {
        "benchmark": "benchmarks/e2e",
        "quick": args.quick,
        "seed": args.seed,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        load = run_end_to_end(workload, args.seed, seconds, launches)
        print_metrics(workload, load["end_to_end"])
        layers = run_layers(workload, args.seed, seconds, None)
        print_metrics(workload, layers["per_layer"])
        for run in (load, layers):
            report_failures(run)
        summary["workloads"][workload] = {
            "end_to_end": load["end_to_end"],
            "per_layer": layers["per_layer"],
            "attempted": load["attempted"] + layers["attempted"],
            "failed": load["failed"] + layers["failed"],
        }
    summary["claim"] = None
    text = json.dumps(summary, indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
