"""HTTP/SSE transport for the XKeyword query service.

One :class:`~repro.service.query_service.QueryService` behind stdlib
``http.server``:

* ``POST /search``   — ranked MTTONs as JSON (top-k or all-results);
  with ``"stream": true`` (or ``Accept: text/event-stream``) results
  are delivered incrementally as Server-Sent Events the moment the
  scheduler finalizes them, in the exact buffered ranked order;
* ``GET  /expand``   — on-demand presentation-graph navigation;
  chunked SSE responses keep the HTTP/1.1 connection alive, so a
  client can stream a search and expand its results over one socket;
* ``POST   /documents``       — insert a document (live update);
* ``PUT    /documents/<id>``  — replace a document in place;
* ``DELETE /documents/<id>``  — delete a document's subtree;
* ``GET  /healthz``  — liveness + database identity + index epoch;
* ``GET  /metrics``  — Prometheus text exposition;
* ``GET  /debug/traces``      — recent query traces (id, query, latency);
* ``GET  /debug/trace/<id>``  — one full span tree as JSON.

Every request takes the same path through :class:`_Handler`: one route
table picks the endpoint, one parsing step validates the request's
scalars, one writer puts the reply on the socket, and one
exception→status table turns failures into replies — a JSON body
before the response headers are out, the SSE ``event: error`` frame
after.  A buffered reply leaves in one write and every connection runs
with ``TCP_NODELAY``, so no reply segment waits for the client's
delayed ACK; neither is configurable, because no workload is better
off waiting.  A ``/search`` answer carries its trace id as an ``X-Trace-Id``
response header as well as in the payload.

Everything is stdlib (``http.server`` + ``json``); the transport layer is
deliberately thin so future PRs can swap it (asyncio, sharding front
ends) without touching :class:`QueryService`.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..storage import LoadedDatabase
from .admission import DeadlineExceededError, RejectedError
from .metrics import MetricsRegistry
from .query_service import QueryService, ServiceConfig

MAX_BODY_BYTES = 64 * 1024
"""Largest request body accepted; a longer ``Content-Length`` answers 400."""

# The one exception→status table, first match wins (DeadlineExceededError
# is a TimeoutError, RejectedError a RuntimeError: neither is shadowed).
_STATUS_OF = (
    (RejectedError, 503),
    (DeadlineExceededError, 504),
    (ValueError, 400),
    (LookupError, 404),
)


def _integer(value, name: str, minimum: int | None = None) -> int:
    """An int from a JSON number or a query-string value, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f'"{name}" must be an integer, got {value!r}')
    try:
        number = int(value)
    except ValueError:
        raise ValueError(f'"{name}" must be an integer, got {value!r}') from None
    if minimum is not None and number < minimum:
        raise ValueError(f'"{name}" must be at least {minimum}, got {number}')
    return number


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning server's QueryService."""

    server_version = "XKeywordService/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    def setup(self) -> None:
        super().setup()
        # The SSE preamble and every SSE frame are separate writes by
        # design; with Nagle on, each waits for the client to ACK the one
        # before it.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        """Serve one request: route it, write its reply, meter it.

        A route whose path ends in ``/`` matches by prefix and hands the
        remainder (a document or trace id) to its producer.
        """
        started = time.perf_counter()
        url = urlparse(self.path)
        for verb, path, endpoint, producer in self._ROUTES:
            if verb == method and (
                url.path.startswith(path) if path.endswith("/") else url.path == path
            ):
                break
        else:
            self._respond(404, {}, {"error": f"unknown path {url.path!r}"})
            return
        self._endpoint = endpoint
        self._streaming = False
        status = 500
        try:
            status = self._serve(producer, parse_qs(url.query), url.path[len(path):])
        except (BrokenPipeError, ConnectionResetError):
            # Client went away mid-reply: a streamed session has already
            # detached from its shared flight (the last consumer's
            # departure cancels the execution).
            status = 499
            self.close_connection = True
        finally:
            self.service.observe_request(
                self._endpoint, status, time.perf_counter() - started
            )

    def _serve(self, producer, params: dict[str, list[str]], tail: str) -> int:
        """Write the producer's reply, or its failure, and return the status.

        Failures go through the one exception→status table: before the
        response is committed they answer as a plain JSON error, after
        (mid-stream) as a final SSE ``error`` event.  The terminating
        zero chunk is always written on a healthy socket, so HTTP/1.1
        keep-alive survives and ``/expand`` can be issued over the same
        connection.
        """
        status = 200
        try:
            reply = producer(self, params, tail)
            if isinstance(reply, dict):
                trace_id = reply.get("trace_id")
                self._respond(200, {"X-Trace-Id": str(trace_id)} if trace_id else {}, reply)
            elif isinstance(reply, str):
                self._respond(
                    200, {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"}, reply
                )
            else:
                self._stream(reply)
        except (BrokenPipeError, ConnectionResetError):
            raise
        except Exception as exc:
            status = next(
                (code for kind, code in _STATUS_OF if isinstance(exc, kind)), 500
            )
            payload = {"error": str(exc) if status != 500 else f"{type(exc).__name__}: {exc}"}
            headers = {}
            if status == 503:
                payload["retry_after"] = exc.retry_after
                headers["Retry-After"] = f"{exc.retry_after:.1f}"
            elif status == 504:
                self.service.count_deadline_exceeded()
            if self._streaming:
                self._write_event("error", payload)
            else:
                self._respond(status, headers, payload)
        if self._streaming:
            self._write_chunk(b"")  # terminating chunk: keep-alive survives
        return status

    # ------------------------------------------------------------------
    def _respond(self, status: int, headers: dict[str, str], body) -> None:
        """The one response writer: status line, headers and body in one write.

        ``body`` is a dict (sent as JSON), a string (sent as is, under
        the caller's ``Content-Type``) or ``None`` — the preamble of a
        chunked stream whose frames follow through :meth:`_write_chunk`.
        A reply after which the server closes the connection says
        ``Connection: close``, so an HTTP/1.1 client does not reuse it.

        Not ``end_headers()``: it sends the head by itself, and a body
        written after it is a second small segment that Nagle holds until
        the client's delayed ACK — ~40 ms on every keep-alive reply.
        """
        if isinstance(body, dict):
            body = json.dumps(body)
            headers = {"Content-Type": "application/json", **headers}
        data = b""
        if body is not None:
            data = body.encode()
            headers = {**headers, "Content-Length": str(len(data))}
        if self.close_connection:
            headers = {**headers, "Connection": "close"}
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        if self.request_version != "HTTP/0.9":  # a 0.9 reply is its bare body
            data = b"".join(self._headers_buffer) + b"\r\n" + data
            self._headers_buffer = []
        self.wfile.write(data)

    def _stream(self, session) -> None:
        """Answer one ``/search`` session as Server-Sent Events over chunked HTTP.

        The response is only committed (200 + headers) once the session
        exists — shed/validation failures still answer plain JSON
        errors.
        """
        try:
            self._respond(
                200,
                {
                    "Content-Type": "text/event-stream",
                    "Cache-Control": "no-store",
                    "Transfer-Encoding": "chunked",
                },
                None,
            )
            self._streaming = True
            for name, payload in session.events():
                self._write_event(name, payload)
        finally:
            session.close()

    def _write_chunk(self, data: bytes) -> None:
        """Write one HTTP/1.1 chunked-transfer frame (empty = final)."""
        self.wfile.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")
        self.wfile.flush()

    def _write_event(self, name: str, payload: dict) -> None:
        """Emit one SSE event inside the open stream."""
        self._write_chunk(f"event: {name}\ndata: {json.dumps(payload)}\n\n".encode())

    # ------------------------------------------------------------------
    def _read_body(self) -> dict:
        declared = self.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread on the socket (and a negative length
            # would read until the client hangs up); without closing, the
            # base handler would parse it as a pipelined request line.
            self.close_connection = True
            raise ValueError(
                "request body too large"
                if length > 0
                else f"invalid Content-Length {declared!r}"
            )
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise ValueError("JSON body must be an object")
        return body

    def _xml_body(self) -> dict:
        body = self._read_body()
        if not body.get("xml") or not isinstance(body["xml"], str):
            raise ValueError('body needs "xml": "<element .../>"')
        return body

    # Producers: (handler, query params, path tail) -> a JSON payload, the
    # /metrics text, or a search session to stream -----------------------
    def _search(self, params: dict[str, list[str]], tail: str):
        """``POST /search``: buffered JSON, or SSE streaming.

        Streaming is opted into per request with ``"stream": true`` in
        the body or an ``Accept: text/event-stream`` header.  Both modes
        share this one parsing step, so a malformed scalar is a 400
        either way.
        """
        body = self._read_body()
        accept = self.headers.get("Accept") or ""
        streamed = bool(body.get("stream")) or "text/event-stream" in accept
        if streamed:
            self._endpoint = "search_stream"
        keywords = body.get("keywords")
        if keywords is None and "q" in body:
            keywords = str(body["q"]).split()
        if not keywords or not isinstance(keywords, list):
            raise ValueError('body needs "keywords": [..] or "q": "a b"')
        k, deadline = body.get("k"), body.get("deadline")
        if deadline is not None and not (
            isinstance(deadline, (int, float))
            and not isinstance(deadline, bool)
            and 0 < deadline <= threading.TIMEOUT_MAX
        ):
            raise ValueError(f'"deadline" must be a positive number, got {deadline!r}')
        search = self.service.search_stream if streamed else self.service.search
        return search(
            keywords=[str(keyword) for keyword in keywords],
            k=_integer(k, "k", minimum=1) if k is not None else None,
            max_size=_integer(body.get("max_size", 8), "max_size"),
            all_results=bool(body.get("all", False)),
            deadline=float(deadline) if deadline is not None else None,
        )

    def _expand(self, params: dict[str, list[str]], tail: str) -> dict:
        if "q" not in params:
            raise ValueError('query parameter "q" is required')
        role = params.get("role")
        return self.service.expand(
            params["q"][0].split(),
            cn=_integer(params.get("cn", ["-1"])[0], "cn"),
            role=_integer(role[0], "role") if role else None,
            max_size=_integer(params.get("max_size", ["8"])[0], "max_size"),
        )

    def _traces(self, params: dict[str, list[str]], tail: str) -> dict:
        return self.service.traces_payload(
            _integer(params.get("limit", ["20"])[0], "limit")
        )

    def _insert_document(self, params: dict[str, list[str]], tail: str) -> dict:
        body = self._xml_body()
        parent = body.get("parent")
        return self.service.insert_document(
            body["xml"], parent_id=str(parent) if parent is not None else None
        )

    def _update_document(self, params: dict[str, list[str]], tail: str) -> dict:
        if not tail:
            raise ValueError("document id missing from path")
        return self.service.update_document(tail, self._xml_body()["xml"])

    # The one route table: (method, path, metrics endpoint label, producer).
    _ROUTES = (
        ("GET", "/healthz", "healthz", lambda self, params, tail: self.service.healthz()),
        ("GET", "/metrics", "metrics", lambda self, params, tail: self.service.metrics_text()),
        ("GET", "/expand", "expand", _expand),
        ("GET", "/debug/traces", "debug_traces", _traces),
        (
            "GET", "/debug/trace/", "debug_trace",
            lambda self, params, tail: self.service.trace_payload(tail),
        ),
        ("POST", "/search", "search", _search),
        ("POST", "/documents", "insert_document", _insert_document),
        ("PUT", "/documents/", "update_document", _update_document),
        (
            "DELETE", "/documents/", "delete_document",
            lambda self, params, tail: self.service.delete_document(tail),
        ),
    )


class XKeywordHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`QueryService`.

    Socket threads are cheap and unbounded here; real concurrency is
    bounded by the service's admission controller, so a burst beyond the
    queue gets fast 503s instead of piling onto the engine.
    """

    daemon_threads = True
    # The stdlib default accept backlog of 5 drops connections under the
    # very bursts the admission controller exists to absorb; shedding
    # must happen with a 503, not a TCP reset.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], service: QueryService) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = False

    def shutdown(self) -> None:  # type: ignore[override]
        super().shutdown()
        self.service.close()


def create_server(
    loaded: LoadedDatabase,
    config: ServiceConfig | None = None,
    registry: MetricsRegistry | None = None,
) -> XKeywordHTTPServer:
    """Build a ready-to-run server; port 0 picks an ephemeral port."""
    config = config or ServiceConfig()
    service = QueryService(loaded, config=config, registry=registry)
    return XKeywordHTTPServer((config.host, config.port), service)


def serve(
    loaded: LoadedDatabase,
    config: ServiceConfig | None = None,
) -> None:  # pragma: no cover - blocking entry point
    """Serve until interrupted (the ``python -m repro serve`` body)."""
    server = create_server(loaded, config)
    host, port = server.server_address[:2]
    print(f"XKeyword service listening on http://{host}:{port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown()
        server.server_close()
