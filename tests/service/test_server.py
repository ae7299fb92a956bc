"""End-to-end tests for the HTTP query service.

A real server runs on an ephemeral port; requests go through urllib so
the whole stack — HTTP parsing, admission, cache, engine, JSON — is
exercised exactly as a client would.
"""

from __future__ import annotations

import gc
import http.client
import json
import socket
import statistics
import threading
import time
import types
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import (
    CTSSN,
    CandidateNetwork,
    ExecutionMetrics,
    KeywordQuery,
    SearchResult,
    XKeyword,
)
from repro.service import (
    QueryService,
    ServiceConfig,
    XKeywordHTTPServer,
    query_cache_key,
)
from repro.service.server import MAX_BODY_BYTES, _Handler


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def start_server(service: QueryService) -> tuple[XKeywordHTTPServer, str]:
    server = XKeywordHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, f"http://{host}:{port}"


def post_search(base: str, body: dict, timeout: float = 10.0):
    request = urllib.request.Request(
        f"{base}/search",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read()), dict(response.headers)


def get_json(base: str, path: str, timeout: float = 10.0):
    with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as response:
        return json.loads(response.read())


class SlowEngine:
    """Duck-typed engine: sleeps, then returns an empty result."""

    def __init__(self, delay: float = 0.3) -> None:
        self.delay = delay
        self.calls = 0

    def search(self, query, k=10, stream=None):
        self.calls += 1
        time.sleep(self.delay)
        return SearchResult(query, [], ExecutionMetrics())


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served(small_dblp_db):
    service = QueryService(small_dblp_db, ServiceConfig(workers=4, queue_size=16))
    server, base = start_server(service)
    yield service, base
    server.shutdown()
    server.server_close()


# ----------------------------------------------------------------------
# Functional endpoints
# ----------------------------------------------------------------------
class TestSearchEndpoint:
    def test_ranked_mtton_json(self, served, small_dblp_db):
        from repro.core import XKeyword

        _, base = served
        status, body, _ = post_search(
            base, {"keywords": ["smith", "balmin"], "k": 5, "max_size": 6}
        )
        assert status == 200
        assert body["count"] == len(body["results"]) <= 5
        scores = [r["score"] for r in body["results"]]
        assert scores == sorted(scores)
        ranks = [r["rank"] for r in body["results"]]
        assert ranks == list(range(1, len(ranks) + 1))
        first = body["results"][0]
        assert first["nodes"] and all(
            {"role", "label", "target_object", "keywords"} <= set(n) for n in first["nodes"]
        )
        assert all({"source", "target", "label"} <= set(e) for e in first["edges"])
        # Every served result's score exists in the full result set (the
        # paper's thread-pool top-k returns *some* K results in ranking
        # order, not a unique set, so exact identity is not guaranteed).
        full = XKeyword(small_dblp_db).search(
            KeywordQuery.of("smith", "balmin", max_size=6), k=None
        )
        assert set(scores) <= set(full.scores())

    def test_q_string_equivalent_to_keyword_list(self, served):
        _, base = served
        _, by_list, _ = post_search(base, {"keywords": ["smith", "balmin"], "max_size": 6})
        _, by_string, _ = post_search(base, {"q": "smith balmin", "max_size": 6})
        assert by_string["results"] == by_list["results"]

    def test_missing_keywords_is_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_search(base, {})
        assert excinfo.value.code == 400

    def test_invalid_json_is_400(self, served):
        _, base = served
        request = urllib.request.Request(
            f"{base}/search", data=b"not json", headers={"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(base, "/nope")
        assert excinfo.value.code == 404


class TestCrossQueryCache:
    def test_repeat_query_hits_cache_and_is_faster(self, served):
        service, base = served
        body = {"keywords": ["hristidis", "smith"], "k": 5, "max_size": 6}
        hits_before = service.cache.stats().hits
        _, cold, _ = post_search(base, body)
        assert cold["cached"] is False
        _, warm, _ = post_search(base, body)
        assert warm["cached"] is True
        assert service.cache.stats().hits == hits_before + 1
        assert warm["elapsed_ms"] < cold["elapsed_ms"]
        assert warm["results"] == cold["results"]

    def test_keyword_order_shares_entry(self, served):
        service, base = served
        post_search(base, {"keywords": ["balmin", "papakonstantinou"], "max_size": 6})
        hits_before = service.cache.stats().hits
        _, body, _ = post_search(base, {"keywords": ["papakonstantinou", "balmin"], "max_size": 6})
        assert body["cached"] is True
        assert service.cache.stats().hits == hits_before + 1

    def test_different_k_misses(self, served):
        _, base = served
        post_search(base, {"keywords": ["smith", "papakonstantinou"], "k": 3, "max_size": 6})
        _, body, _ = post_search(
            base, {"keywords": ["smith", "papakonstantinou"], "k": 4, "max_size": 6}
        )
        assert body["cached"] is False

    def test_entry_retains_only_what_its_ranked_results_reference(self, served):
        # A finished search drags its whole front-half working set along
        # (every CN and CTSSN it generated); a cache entry must not.
        service, _ = served
        query = KeywordQuery.of("smith", "hristidis", max_size=6)
        reply = service.search(list(query.keywords), k=1, max_size=6)
        entry = service.cache.get(query_cache_key(query, 1))

        def networks_reachable_from(root) -> set[int]:
            found, seen, stack = set(), set(), [root]
            while stack:
                obj = stack.pop()
                if id(obj) in seen or isinstance(
                    obj, (type, types.ModuleType, types.FunctionType)
                ):
                    continue
                seen.add(id(obj))
                if isinstance(obj, (CandidateNetwork, CTSSN)):
                    found.add(id(obj))
                stack.extend(gc.get_referents(obj))
            return found

        retained = networks_reachable_from(entry)
        assert retained == networks_reachable_from(entry.mttons)
        assert 0 < len(retained) < reply["candidate_networks"]


class TestHealthAndMetrics:
    def test_healthz(self, served):
        service, base = served
        body = get_json(base, "/healthz")
        assert body["status"] == "ok"
        assert body["database_fingerprint"] == service.fingerprint
        assert body["catalog"] == "dblp"
        assert body["uptime_seconds"] >= 0

    def test_metrics_exposition(self, served):
        _, base = served
        post_search(base, {"keywords": ["smith", "balmin"], "max_size": 6})
        with urllib.request.urlopen(f"{base}/metrics", timeout=10.0) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{endpoint="search",status="200"}' in text
        assert "# TYPE repro_request_seconds histogram" in text
        assert "repro_request_seconds_bucket" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_query_cache_hits_total" in text
        assert "repro_engine_searches_total" in text
        assert "repro_engine_lookups_total" in text
        assert "# TYPE repro_cns_pruned_total counter" in text
        # Every sample line parses as "name{labels} value" with a float value.
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            float(line.rsplit(" ", 1)[1])


class TestExpandEndpoint:
    def test_initialize_and_expand(self, served):
        _, base = served
        initial = get_json(base, "/expand?q=smith+balmin&max_size=6")
        assert initial["displayed"]
        assert initial["roles"]
        assert initial["newly_displayed"] == []
        role = initial["roles"][0]["role"]
        expanded = get_json(base, f"/expand?q=smith+balmin&max_size=6&role={role}")
        assert len(expanded["displayed"]) >= len(initial["displayed"])

    def test_unknown_keywords_404(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(base, "/expand?q=zzzzzzz")
        assert excinfo.value.code == 404

    def test_missing_q_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(base, "/expand")
        assert excinfo.value.code == 400


# ----------------------------------------------------------------------
# One thread per query: a search runs on the thread that called it
# ----------------------------------------------------------------------
class TestRankOrderDispatch:
    def test_served_searches_open_no_thread_pool(self, small_dblp_db, monkeypatch):
        service = QueryService(small_dblp_db, ServiceConfig(workers=1, queue_size=2))

        def no_thread(thread):
            raise AssertionError(f"a served search started thread {thread.name!r}")

        try:
            with monkeypatch.context() as patch:
                patch.setattr(threading.Thread, "start", no_thread)
                buffered = service.search(["smith", "balmin"], k=5, max_size=6)
                events = list(
                    service.search_stream(["smith", "balmin"], k=4, max_size=6).events()
                )
            assert buffered["count"] == 5
            assert [kind for kind, _ in events] == ["result"] * 4 + ["done"]
        finally:
            service.close()

    @pytest.mark.parametrize("backend", ["sql", "python"])
    def test_searches_start_no_thread(self, small_dblp_db, monkeypatch, backend):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        engine = XKeyword(small_dblp_db)
        assert engine.executor_config.backend == backend
        query = KeywordQuery.of("smith", "balmin", max_size=6)

        def no_thread(thread):
            raise AssertionError(f"a search started thread {thread.name!r}")

        with monkeypatch.context() as patch:
            patch.setattr(threading.Thread, "start", no_thread)
            top = engine.search(query, k=5)
            everything = engine.search(query, k=None)
        assert len(top.mttons) == 5
        assert everything.mttons[:5] == top.mttons

    @pytest.mark.parametrize("method", ["search", "search_streaming"])
    def test_parallel_true_is_rejected(self, small_dblp_db, method):
        engine = XKeyword(small_dblp_db)
        with pytest.raises(ValueError, match="parallel"):
            getattr(engine, method)("smith balmin", k=5, parallel=True)

    def test_threads_knob_is_gone(self, small_dblp_db):
        with pytest.raises(TypeError, match="threads"):
            XKeyword(small_dblp_db, threads=4)


# ----------------------------------------------------------------------
# One served backend: nothing on the serving surface selects another
# ----------------------------------------------------------------------
class TestServedBackend:
    def test_default_service_executes_on_sql(self, small_dblp_db, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        service = QueryService(small_dblp_db, ServiceConfig(tracing=True))
        try:
            reply = service.search(["smith", "balmin"], k=5, max_size=6)
            spans = [service.trace_payload(reply["trace_id"])["root"]]
            backends = set()
            while spans:
                span = spans.pop()
                spans.extend(span.get("children", ()))
                if span["name"] == "execute":
                    backends.add(span["attributes"]["backend"])
            assert backends == {"sql"}
        finally:
            service.close()

    def test_service_config_has_no_backend_field(self):
        with pytest.raises(TypeError, match="backend"):
            ServiceConfig(backend="sql")

    def test_serve_has_no_backend_flag_but_search_keeps_it(self, capsys):
        from repro.cli import _build_parser

        parser = _build_parser()
        with pytest.raises(SystemExit) as usage:
            parser.parse_args(["serve", "--demo", "--backend", "sql"])
        assert usage.value.code == 2
        assert "--backend" in capsys.readouterr().err
        args = parser.parse_args(["search", "smith", "--demo", "--backend", "python"])
        assert args.backend == "python"

    def test_backend_body_key_is_not_read(self, served):
        _, base = served
        body = {"keywords": ["smith", "query"], "k": 3, "max_size": 5}
        _, first, _ = post_search(base, {**body, "backend": "python-hash"})
        _, second, _ = post_search(base, {**body, "backend": "python"})
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["results"] == first["results"]


# ----------------------------------------------------------------------
# Load behaviour: concurrency, shedding, deadlines
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_32_concurrent_searches_all_succeed(self, small_dblp_db):
        service = QueryService(small_dblp_db, ServiceConfig(workers=4, queue_size=32))
        server, base = start_server(service)
        try:
            bodies = [
                {"keywords": ["smith", "balmin"], "k": 5, "max_size": 6},
                {"keywords": ["hristidis", "smith"], "k": 5, "max_size": 6},
            ]
            with ThreadPoolExecutor(max_workers=32) as pool:
                futures = [
                    pool.submit(post_search, base, bodies[i % 2], 30.0)
                    for i in range(32)
                ]
                outcomes = [f.result() for f in futures]
            assert all(status == 200 for status, _, _ in outcomes)
            # Every response is internally valid and non-empty.  (Exact
            # top-k identity across *cold* concurrent computations is not
            # guaranteed at tie-score cutoffs — the paper's top-k is any
            # K best-ranked results — but scores must agree.)
            for _, body, _ in outcomes:
                assert 0 < body["count"] <= 5
                scores = [r["score"] for r in body["results"]]
                assert scores == sorted(scores)
            # Once one cold computation landed in the cache, later hits
            # replay it verbatim; at least the final state is consistent.
            _, replay_a, _ = post_search(base, bodies[0], 30.0)
            _, replay_b, _ = post_search(base, bodies[0], 30.0)
            assert replay_a["cached"] and replay_b["cached"]
            assert replay_a["results"] == replay_b["results"]
        finally:
            server.shutdown()
            server.server_close()

    def test_burst_sheds_with_503_and_stays_responsive(self, small_dblp_db):
        service = QueryService(
            small_dblp_db,
            ServiceConfig(workers=2, queue_size=4),
            engine=SlowEngine(delay=0.4),
        )
        server, base = start_server(service)
        try:
            def attempt(i: int):
                try:
                    # Distinct keyword bags defeat the cache on purpose.
                    return post_search(base, {"keywords": [f"kw{i}"]}, 30.0)[0]
                except urllib.error.HTTPError as exc:
                    if exc.code == 503:
                        assert exc.headers.get("Retry-After") is not None
                    return exc.code

            with ThreadPoolExecutor(max_workers=32) as pool:
                statuses = list(pool.map(attempt, range(32)))
            # Queue bound (2 workers + 4 waiting) is far below the burst of
            # 32: most requests shed fast, the admitted ones complete.
            assert statuses.count(503) >= 10
            assert statuses.count(200) >= 2
            assert set(statuses) <= {200, 503}
            assert service.admission.stats().shed == statuses.count(503)
            # Still responsive: health and metrics answer immediately.
            assert get_json(base, "/healthz")["status"] == "ok"
            text = service.metrics_text()
            assert f"\nrepro_shed_total {statuses.count(503)}\n" in text
        finally:
            server.shutdown()
            server.server_close()

    def test_deadline_exceeded_is_504(self, small_dblp_db):
        service = QueryService(
            small_dblp_db,
            ServiceConfig(workers=1, queue_size=2),
            engine=SlowEngine(delay=1.0),
        )
        server, base = start_server(service)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_search(base, {"keywords": ["slow"], "deadline": 0.05}, 30.0)
            assert excinfo.value.code == 504
        finally:
            server.shutdown()
            server.server_close()


# ----------------------------------------------------------------------
# Hostile requests: a clean 400, in both reply modes
# ----------------------------------------------------------------------
def raw_request(base: str, method: str, path: str, headers: dict, body: bytes = b""):
    """One request over a bare socket, so hostile headers go out verbatim.

    Returns ``(status, headers, body)`` with lower-cased header names; a
    server that hangs or drops the connection unanswered surfaces as a
    socket timeout / empty reply.
    """
    host, port = base.removeprefix("http://").split(":")
    head = f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers.items()
    )
    with socket.create_connection((host, int(port)), timeout=5.0) as sock:
        sock.sendall(head.encode() + b"\r\n" + body)
        reply = b""
        while b"\r\n\r\n" not in reply:
            chunk = sock.recv(65536)
            assert chunk, f"connection closed with no full reply: {reply!r}"
            reply += chunk
        head, _, rest = reply.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        fields = {
            name.strip().lower(): value.strip()
            for name, _, value in (line.partition(":") for line in lines)
        }
        length = int(fields["content-length"])
        while len(rest) < length:
            chunk = sock.recv(65536)
            assert chunk, "connection closed mid-body"
            rest += chunk
    return int(status_line.split()[1]), fields, json.loads(rest[:length])


def hostile_search(fields: dict | None = None, length: str | None = None):
    def build(stream: bool):
        body = json.dumps(
            {"keywords": ["smith", "balmin"], "stream": stream, **(fields or {})}
        ).encode()
        headers = {
            "Content-Type": "application/json",
            "Content-Length": length if length is not None else str(len(body)),
        }
        return "POST", "/search", headers, body

    return build


HOSTILE = {
    "unhashable-k": hostile_search({"k": [1]}),
    "string-k": hostile_search({"k": "ten"}),
    "list-deadline": hostile_search({"deadline": [1]}),
    "negative-content-length": hostile_search(length="-1"),
    "non-integer-content-length": hostile_search(length="abc"),
    "oversized-content-length": hostile_search(
        length=str(MAX_BODY_BYTES + 1)
    ),
    "non-integer-limit": lambda stream: ("GET", "/debug/traces?limit=abc", {}, b""),
}


class TestHostileRequests:
    @pytest.mark.parametrize("stream", [False, True], ids=["buffered", "stream"])
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_answers_400_never_hangs(self, served, case, stream):
        _, base = served
        status, headers, body = raw_request(base, *HOSTILE[case](stream))
        assert status == 400, body
        assert body["error"]
        # The body of a bad Content-Length stays unread, so the server
        # closes the connection — and the reply must say so.
        closes = case.endswith("content-length")
        assert (headers.get("connection") == "close") == closes, headers
        # The handler thread came back: the server still answers.
        assert get_json(base, "/healthz")["status"] == "ok"

    @pytest.mark.parametrize(
        "path",
        ["/expand?q=smith&cn=x", "/expand?q=smith&role=x", "/expand?q=smith&max_size=x"],
    )
    def test_expand_integers_are_validated(self, served, path):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(base, path)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("field", [{"k": 0}, {"k": True}, {"deadline": 0}, {"deadline": "1"}])
    def test_out_of_range_scalars_are_400(self, served, field):
        _, base = served
        for stream in (False, True):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_search(base, {"keywords": ["smith"], "stream": stream, **field})
            assert excinfo.value.code == 400


def wait_for_metric(service: QueryService, sample: str, timeout: float = 5.0) -> None:
    """The request is metered after its last byte is written, so a
    client that has its reply may still be ahead of the counter."""
    deadline = time.monotonic() + timeout
    while sample not in service.metrics_text():
        assert time.monotonic() < deadline, f"never saw {sample!r}"
        time.sleep(0.01)


class TestOneErrorTable:
    """Buffered and streamed replies fail through the same status map."""

    @pytest.mark.parametrize("stream", [False, True], ids=["buffered", "stream"])
    def test_shed_is_503_with_retry_after(self, small_dblp_db, stream):
        service = QueryService(small_dblp_db, ServiceConfig(workers=1, queue_size=1))
        server, base = start_server(service)
        try:
            service.admission.shutdown()  # every submit is now refused
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_search(base, {"keywords": ["smith"], "stream": stream})
            assert excinfo.value.code == 503
            assert excinfo.value.headers.get("Retry-After") is not None
            assert json.loads(excinfo.value.read())["retry_after"] > 0
            # The refused leader left nothing behind for later requests.
            assert service.singleflight.in_flight() == 0
            endpoint = "search_stream" if stream else "search"
            wait_for_metric(
                service, f'repro_requests_total{{endpoint="{endpoint}",status="503"}} 1'
            )
        finally:
            server.shutdown()
            server.server_close()

    def test_mid_stream_deadline_is_an_error_frame(self, small_dblp_db):
        service = QueryService(
            small_dblp_db,
            ServiceConfig(workers=1, queue_size=2),
            engine=SlowEngine(delay=1.0),
        )
        server, base = start_server(service)
        try:
            request = urllib.request.Request(
                f"{base}/search",
                data=json.dumps(
                    {"keywords": ["slow"], "stream": True, "deadline": 0.05}
                ).encode(),
            )
            with urllib.request.urlopen(request, timeout=10.0) as response:
                # Headers were committed before the deadline hit.
                assert response.status == 200
                text = response.read().decode()
            assert text.startswith("event: error\ndata: ")
            assert "deadline" in json.loads(text.split("data: ", 1)[1])["error"]
            wait_for_metric(
                service, 'repro_requests_total{endpoint="search_stream",status="504"} 1'
            )
            assert "repro_deadline_exceeded_total 1" in service.metrics_text()
        finally:
            server.shutdown()
            server.server_close()


# ----------------------------------------------------------------------
# Transport: one write per buffered reply, Nagle off on every connection
# ----------------------------------------------------------------------
class RecordingWriter:
    """The handler's socket writer, logging every write it passes on."""

    def __init__(self, raw, writes: list[bytes]) -> None:
        self._raw = raw
        self._writes = writes

    def write(self, data) -> int:
        self._writes.append(bytes(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


@pytest.fixture(scope="module")
def recorded(small_dblp_db):
    """A server whose handlers log each write and each accepted socket."""
    writes: list[bytes] = []
    accepted: list[socket.socket] = []

    class RecordingHandler(_Handler):
        def setup(self) -> None:
            super().setup()
            accepted.append(self.connection)
            self.wfile = RecordingWriter(self.wfile, writes)

    service = QueryService(small_dblp_db, ServiceConfig(workers=2, queue_size=4))
    server = XKeywordHTTPServer(("127.0.0.1", 0), service)
    server.RequestHandlerClass = RecordingHandler
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield server.server_address[:2], writes, accepted
    server.shutdown()
    server.server_close()


SEARCH = {"keywords": ["smith", "balmin"], "k": 5, "max_size": 6}


def exchange(connection: http.client.HTTPConnection, method: str, path: str, body=None):
    """One request over a kept-alive connection: ``(status, raw body)``."""
    data = None if body is None else json.dumps(body).encode()
    connection.request(method, path, body=data, headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read()


class TestTransport:
    @pytest.mark.parametrize(
        "method, path, body, status",
        [
            ("POST", "/search", SEARCH, 200),
            ("GET", "/metrics", None, 200),
            ("GET", "/nope", None, 404),
            ("POST", "/search", {}, 400),
        ],
        ids=["cached-search", "metrics", "not-found", "bad-request"],
    )
    def test_buffered_reply_is_one_write(self, recorded, method, path, body, status):
        address, writes, _ = recorded
        connection = http.client.HTTPConnection(*address, timeout=10.0)
        try:
            exchange(connection, "POST", "/search", SEARCH)  # fills the cache
            writes.clear()
            answer = exchange(connection, method, path, body)
        finally:
            connection.close()
        assert answer[0] == status
        assert len(writes) == 1, [write[:40] for write in writes]
        assert writes[0].startswith(b"HTTP/1.1 %d " % status)
        assert writes[0].endswith(b"\r\n\r\n" + answer[1])

    def test_accepted_socket_has_nagle_off(self, recorded):
        address, _, accepted = recorded
        connection = http.client.HTTPConnection(*address, timeout=10.0)
        try:
            assert exchange(connection, "GET", "/healthz")[0] == 200
            server_side = accepted[-1]
            assert server_side.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        finally:
            connection.close()

    @pytest.mark.parametrize("stream", [False, True], ids=["buffered", "stream"])
    def test_cached_search_over_keep_alive_does_not_wait_for_an_ack(self, served, stream):
        # The client keeps the kernel's default (delayed) ACKs.  A reply
        # split into segments Nagle holds back costs ~40 ms per request.
        _, base = served
        host, port = base.removeprefix("http://").split(":")
        body = {**SEARCH, "stream": stream}
        connection = http.client.HTTPConnection(host, int(port), timeout=10.0)
        try:
            exchange(connection, "POST", "/search", body)  # fills the cache
            rounds = []
            for _ in range(20):
                started = time.perf_counter()
                status, data = exchange(connection, "POST", "/search", body)
                rounds.append(time.perf_counter() - started)
                assert status == 200
                assert b'"cached": true' in data
        finally:
            connection.close()
        assert statistics.median(rounds) < 0.010, [round(r * 1000, 1) for r in rounds]
