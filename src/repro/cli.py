"""Command-line interface: generate data, search, and inspect pipelines.

Usage::

    python -m repro generate --catalog dblp --out dblp.xml --papers 300
    python -m repro generate --catalog tpch --figure1 --out fig1.xml
    python -m repro search --catalog dblp --xml dblp.xml "smith chen" -k 10
    python -m repro search --catalog tpch --xml fig1.xml "john vcr" --explain
    python -m repro explain --catalog dblp --demo "smith chen"
    python -m repro serve --catalog dblp --demo --port 8080
    python -m repro update insert --server http://127.0.0.1:8080 --xml new.xml --parent c0y1
    python -m repro update delete --server http://127.0.0.1:8080 p5
    python -m repro update replace --server http://127.0.0.1:8080 p7 --xml rev.xml

``search`` loads the XML into an in-memory SQLite database (the load
stage), runs the keyword query, and prints ranked MTTONs with their
semantically annotated connections; ``--explain`` additionally prints
the recorded span tree (stage timings, per-CN plans, estimated vs.
actual cardinality, per-relation lookups).  ``explain`` stops after
planning and prints the candidate networks and execution plans without
executing anything.  ``serve`` loads once and answers queries over
HTTP/JSON until interrupted (see :mod:`repro.service`); ``update``
talks to such a server and applies live document mutations
(:mod:`repro.updates`) without a restart.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from .core import KeywordQuery, XKeyword
from .decomposition import (
    combined_decomposition,
    minimal_decomposition,
    xkeyword_decomposition,
)
from .schema import Catalog, get_catalog
from .storage import LoadedDatabase, load_database
from .workloads import DBLPConfig, TPCHConfig, generate_dblp, generate_tpch
from .xmlgraph import ParseOptions, parse_xml, serialize_graph


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XKeyword: keyword proximity search on XML graphs (ICDE 2003)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="emit a synthetic XML document")
    generate.add_argument("--catalog", choices=("dblp", "tpch", "xmark"), default="dblp")
    generate.add_argument("--out", default="-", help="output path or - for stdout")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--papers", type=int, default=200, help="dblp only")
    generate.add_argument("--authors", type=int, default=80, help="dblp only")
    generate.add_argument("--citations", type=float, default=5.0, help="dblp only")
    generate.add_argument("--persons", type=int, default=20, help="tpch only")
    generate.add_argument(
        "--figure1",
        action="store_true",
        help="emit the paper's Figure 1 example instead of synthetic data "
        "(tpch only; the 'john vcr' / 'us vcr' queries work on it)",
    )

    for name, help_text in (
        ("search", "run a keyword query and print ranked results"),
        ("explain", "print candidate networks and plans without executing"),
        ("navigate", "drive a presentation graph (interactive or --script)"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("keywords", help="space-separated keywords, quoted")
        _add_engine_arguments(
            sub,
            verify_help="verify CN/CTSSN/plan invariants (RV301-RV311) "
            "before executing",
        )
        sub.add_argument("-z", "--max-size", type=int, default=8, dest="max_size")
        if name == "search":
            sub.add_argument(
                "--backend",
                choices=("python", "sql"),
                default=None,
                help="per-CN execution backend, for ablations: one compiled "
                "SQL statement per plan executed inside SQLite, or Python "
                "nested loops (the oracle); both return identical results "
                "(default honors $REPRO_BACKEND, else sql)",
            )
            sub.add_argument("-k", type=_top_k, default=10, help="top-k cutoff (>= 1)")
            sub.add_argument("--all", action="store_true", help="list every result")
            sub.add_argument(
                "--strategy",
                choices=("serial", "shared-prefix", "shared-prefix+pruning"),
                default="shared-prefix+pruning",
                help="cross-CN scheduling: evaluate CNs independently, share "
                "canonical join prefixes, or also prune by the global top-k "
                "bound (all three return identical results)",
            )
            sub.add_argument(
                "--explain",
                action="store_true",
                help="print the recorded span tree (stages, plans, "
                "estimated vs. actual cardinality, per-relation lookups) "
                "after the results",
            )
            sub.add_argument(
                "--stream",
                action="store_true",
                help="print each result the moment the ranked prefix "
                "admits it (incremental delivery; the printed order is "
                "identical to the buffered run)",
            )
        if name == "navigate":
            sub.add_argument(
                "--cn",
                type=int,
                default=-1,
                help="candidate-network index (default: first with results)",
            )
            sub.add_argument(
                "--script",
                help="semicolon-separated commands, e.g. "
                "'expand 1; dot; contract 1 p11; quit'",
            )

    serve = commands.add_parser(
        "serve", help="run the long-lived HTTP/JSON query service"
    )
    _add_engine_arguments(
        serve,
        verify_help="verify CN/CTSSN/plan invariants on every query (diagnostic)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080, help="0 picks a free port")
    serve.add_argument("--workers", type=int, default=4, help="query worker threads")
    serve.add_argument(
        "--queue-size", type=int, default=16, dest="queue_size",
        help="waiting requests beyond the workers before shedding (503)",
    )
    serve.add_argument(
        "--deadline", type=float, default=30.0,
        help="per-request deadline in seconds (0 disables)",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=256, dest="cache_entries",
        help="cross-query result-cache capacity",
    )
    serve.add_argument(
        "--cache-ttl", type=float, default=300.0, dest="cache_ttl",
        help="result-cache freshness in seconds (0 disables expiry)",
    )
    serve.add_argument(
        "--slow-query", type=float, default=1.0, dest="slow_query",
        help="log searches slower than this many seconds with their "
        "trace id (0 disables)",
    )
    serve.add_argument(
        "--no-tracing",
        action="store_true",
        dest="no_tracing",
        help="disable per-query span trees and the /debug/trace endpoints",
    )

    update = commands.add_parser(
        "update",
        help="mutate a running server's database (insert/delete/replace)",
    )
    verbs = update.add_subparsers(dest="verb", required=True)
    insert = verbs.add_parser(
        "insert", help="add a document fragment (POST /documents)"
    )
    insert.add_argument("--xml", required=True, help="XML fragment path or - for stdin")
    insert.add_argument(
        "--parent",
        default=None,
        help="containment parent node id (omit for a top-level document)",
    )
    delete = verbs.add_parser(
        "delete", help="remove a document subtree (DELETE /documents/<id>)"
    )
    delete.add_argument("document_id", help="root node id of the subtree to remove")
    replace = verbs.add_parser(
        "replace", help="replace a document subtree (PUT /documents/<id>)"
    )
    replace.add_argument("document_id", help="root node id of the subtree to replace")
    replace.add_argument("--xml", required=True, help="XML fragment path or - for stdin")
    for verb in (insert, delete, replace):
        verb.add_argument(
            "--server",
            default="http://127.0.0.1:8080",
            help="base URL of a running `repro serve` instance",
        )
    return parser


def _top_k(text: str) -> int:
    """argparse type of ``-k``: an integer >= 1 (a usage error otherwise)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _add_engine_arguments(
    sub: argparse.ArgumentParser,
    *,
    verify_help: str,
) -> None:
    """Declare what every database-loading command takes: the data
    source (read by :func:`_load`) and the engine's verifier; only the
    help prose differs per command."""
    sub.add_argument("--catalog", choices=("dblp", "tpch", "xmark"), default="dblp")
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--xml", help="XML document to load")
    source.add_argument(
        "--demo", action="store_true", help="use built-in synthetic data"
    )
    sub.add_argument("--seed", type=int, default=7)
    sub.add_argument(
        "--decomposition",
        choices=("minimal", "xkeyword", "combined"),
        default="minimal",
    )
    sub.add_argument(
        "--debug-verify", action="store_true", dest="debug_verify", help=verify_help
    )


def _make_engine(args: argparse.Namespace, loaded: LoadedDatabase) -> XKeyword:
    """Build the engine one command needs, honoring its debug flags."""
    verifier = None
    if getattr(args, "debug_verify", False):
        from .analysis.plans import DebugVerifier

        verifier = DebugVerifier()
    tracer = None
    if getattr(args, "explain", False):
        from .trace import Tracer

        tracer = Tracer()
    from .core import ExecutorConfig

    config = ExecutorConfig(
        backend=getattr(args, "backend", None),
        strategy=getattr(args, "strategy", "shared-prefix+pruning"),
    )
    return XKeyword(
        loaded, executor_config=config, verifier=verifier, tracer=tracer
    )


def _load(args: argparse.Namespace) -> tuple[Catalog, LoadedDatabase]:
    catalog = get_catalog(args.catalog)
    if args.xml:
        with open(args.xml) as handle:
            graph = parse_xml(handle.read(), ParseOptions(drop_root=True))
    elif args.catalog == "dblp":
        graph = generate_dblp(DBLPConfig(seed=args.seed))
    elif args.catalog == "xmark":
        from .workloads import XMarkConfig, generate_xmark

        graph = generate_xmark(XMarkConfig(seed=args.seed))
    else:
        graph = generate_tpch(TPCHConfig(seed=args.seed))
    if args.decomposition == "minimal":
        decompositions = [minimal_decomposition(catalog.tss)]
    elif args.decomposition == "xkeyword":
        decompositions = [xkeyword_decomposition(catalog.tss, 4, 1)]
    else:
        decompositions = [combined_decomposition(catalog.tss, 4, 1)]
    return catalog, load_database(graph, catalog, decompositions)


def _cmd_generate(args: argparse.Namespace) -> int:
    """Emit synthetic XML (or the hand-written Figure 1 example)."""
    if args.figure1:
        if args.catalog != "tpch":
            print("--figure1 requires --catalog tpch", file=sys.stderr)
            return 2
        from .workloads import figure1_document

        text = figure1_document()
        if args.out == "-":
            print(text, end="")
        else:
            with open(args.out, "w") as handle:
                handle.write(text)
            print(f"wrote the Figure 1 example to {args.out}", file=sys.stderr)
        return 0
    if args.catalog == "dblp":
        graph = generate_dblp(
            DBLPConfig(
                papers=args.papers,
                authors=args.authors,
                avg_citations=args.citations,
                seed=args.seed,
            )
        )
    elif args.catalog == "xmark":
        from .workloads import XMarkConfig, generate_xmark

        graph = generate_xmark(XMarkConfig(persons=args.persons, seed=args.seed))
    else:
        graph = generate_tpch(TPCHConfig(persons=args.persons, seed=args.seed))
    text = serialize_graph(graph)
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {graph.node_count} nodes to {args.out}", file=sys.stderr)
    return 0


def _print_mtton(rank: int, mtton, prefix: str = "") -> None:
    """Print one ranked result (nodes joined by edges) with ``prefix``."""
    labels = mtton.ctssn.network.labels
    nodes = " + ".join(f"{labels[role]}:{to}" for role, to in mtton.assignment)
    print(f"{prefix}#{rank} score={mtton.score}  {nodes}")
    for edge in mtton.edges:
        label = edge.forward_label or edge.edge_id
        print(f"    {edge.source_to} --{label}--> {edge.target_to}")


def _cmd_search(args: argparse.Namespace) -> int:
    catalog, loaded = _load(args)
    query = KeywordQuery(tuple(args.keywords.split()), max_size=args.max_size)
    started = time.perf_counter()
    streamed = False
    engine = _make_engine(args, loaded)
    k = None if args.all else args.k
    if args.stream:
        stream = engine.search_streaming(query, k=k)
        streamed = True
        for rank, mtton in enumerate(stream, start=1):
            arrived = (time.perf_counter() - started) * 1000
            _print_mtton(rank, mtton, prefix=f"[{arrived:8.1f} ms] ")
        result = stream.result()
    else:
        result = engine.search(query, k=k)
    elapsed = time.perf_counter() - started
    print(
        f"{len(result.mttons)} result(s) from "
        f"{len(result.candidate_networks)} candidate network(s) in "
        f"{elapsed * 1000:.1f} ms "
        f"({result.metrics.queries_sent} focused queries)"
    )
    if not streamed:
        for rank, mtton in enumerate(result.mttons, start=1):
            _print_mtton(rank, mtton)
    if args.explain and result.trace is not None:
        print()
        print(result.trace.render())
    return 0 if result.mttons else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    catalog, loaded = _load(args)
    engine = _make_engine(args, loaded)
    query = KeywordQuery(tuple(args.keywords.split()), max_size=args.max_size)
    containing = engine.containing_lists(query)
    for keyword in query.keywords:
        count = len(containing.keyword_tos[keyword])
        nodes = ", ".join(sorted(containing.keyword_schema_nodes[keyword]))
        print(f"keyword {keyword!r}: {count} target objects via [{nodes}]")
    ctssns = engine.candidate_tss_networks(query, containing)
    print(f"\n{len(ctssns)} candidate TSS networks (Z={query.max_size}):")
    for ctssn in ctssns:
        print(f"\n  [{ctssn.score}] {ctssn}")
        plan = engine.plan(ctssn, containing)
        role_filters = {
            role: containing.allowed_tos(constraints)
            for role, constraints in ctssn.keyword_roles()
        }
        for line in plan.describe(engine.stores, role_filters).splitlines()[1:]:
            print(f"  {line}")
    return 0


def _cmd_navigate(args: argparse.Namespace) -> int:
    from .core import open_navigator

    catalog, loaded = _load(args)
    engine = _make_engine(args, loaded)
    query = KeywordQuery(tuple(args.keywords.split()), max_size=args.max_size)
    containing = engine.containing_lists(query)
    ctssns = engine.candidate_tss_networks(query, containing)
    if not ctssns:
        print("no candidate networks")
        return 1
    navigator = open_navigator(
        ctssns,
        engine.optimizer,
        engine.stores,
        containing,
        min(args.cn, len(ctssns) - 1),
    )
    if navigator is None:
        print("no candidate network has results")
        return 1
    graph = navigator.graph
    print(f"candidate network: {navigator.ctssn}")
    print(graph.describe())

    def commands():
        if args.script:
            yield from (c.strip() for c in args.script.split(";") if c.strip())
        else:  # pragma: no cover - interactive
            while True:
                try:
                    yield input("navigate> ").strip()
                except EOFError:
                    return

    for command in commands():
        parts = command.split()
        if not parts:
            continue
        action = parts[0]
        if action in ("quit", "exit", "q"):
            break
        try:
            if action == "expand" and len(parts) == 2:
                added = navigator.expand(int(parts[1]))
                print(f"+{len(added)} nodes")
                print(graph.describe())
            elif action == "contract" and len(parts) == 3:
                hidden = navigator.contract(int(parts[1]), parts[2])
                print(f"-{len(hidden)} nodes")
                print(graph.describe())
            elif action == "dot":
                print(graph.to_dot(catalog.tss))
            elif action == "metrics":
                print(navigator.metrics)
            else:
                print(
                    "commands: expand <role> | contract <role> <to> | "
                    "dot | metrics | quit"
                )
        except (ValueError, KeyError) as exc:
            print(f"error: {exc}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceConfig, serve

    catalog, loaded = _load(args)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        deadline=args.deadline or None,
        cache_capacity=args.cache_entries,
        cache_ttl=args.cache_ttl or None,
        debug_verify=args.debug_verify,
        tracing=not args.no_tracing,
        slow_query_seconds=args.slow_query or None,
    )
    print(
        f"loaded {catalog.name}: {loaded.to_graph.target_object_count} target "
        f"objects, fingerprint {loaded.fingerprint()[:12]}",
        file=sys.stderr,
    )
    serve(loaded, config)
    return 0


def _read_xml_arg(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _cmd_update(args: argparse.Namespace) -> int:
    """Drive a running server's mutation endpoints over HTTP."""
    import json
    import urllib.error
    import urllib.request

    base = args.server.rstrip("/")
    if args.verb == "insert":
        body: dict = {"xml": _read_xml_arg(args.xml)}
        if args.parent is not None:
            body["parent"] = args.parent
        url, method, payload = f"{base}/documents", "POST", body
    elif args.verb == "delete":
        url, method, payload = f"{base}/documents/{args.document_id}", "DELETE", None
    else:  # replace
        url, method, payload = (
            f"{base}/documents/{args.document_id}",
            "PUT",
            {"xml": _read_xml_arg(args.xml)},
        )
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request) as response:
            report = json.loads(response.read())
    except urllib.error.HTTPError as exc:
        try:
            detail = json.loads(exc.read()).get("error", "")
        except Exception:
            detail = ""
        print(f"error: HTTP {exc.code} {detail}".rstrip(), file=sys.stderr)
        return 1
    except urllib.error.URLError as exc:
        print(f"error: cannot reach {base}: {exc.reason}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "search": _cmd_search,
        "explain": _cmd_explain,
        "navigate": _cmd_navigate,
        "serve": _cmd_serve,
        "update": _cmd_update,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
