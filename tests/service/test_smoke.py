"""End-to-end service smoke test (the former CI inline script).

One live server on an ephemeral port, driven exactly as a deployment
probe would: a buffered search, the health endpoint, the Prometheus
scrape, and — the streaming extension — an SSE search whose first
``result`` event is read *before* the stream terminates and whose
concatenated events carry exactly the ids of the buffered top-k, with a
``/expand`` issued over the same keep-alive connection afterwards.

Marked ``e2e`` so deployment pipelines can select it with
``-m e2e``; it also runs inside the plain tier-1 suite.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.request

import pytest

from repro.service import ServiceConfig, create_server

pytestmark = pytest.mark.e2e


@pytest.fixture(scope="module")
def served(small_dblp_db):
    server = create_server(small_dblp_db, ServiceConfig(port=0, workers=2))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield server, host, port
    finally:
        server.shutdown()
        server.service.close()
        thread.join(timeout=5.0)


def post_json(host: str, port: int, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return json.loads(response.read())


def read_sse_events(response) -> list[tuple[str, dict]]:
    """Parse ``event:``/``data:`` frames off a live SSE response."""
    events = []
    name = None
    while True:
        line = response.readline()
        if not line:
            break
        line = line.decode().rstrip("\n")
        if line.startswith("event: "):
            name = line[len("event: "):]
        elif line.startswith("data: "):
            events.append((name, json.loads(line[len("data: "):])))
            if name == "done":
                break
    return events


def test_service_smoke(served):
    """Search, health and metrics — the deployment probe sequence."""
    server, host, port = served
    body = post_json(host, port, "/search", {"q": "smith balmin", "k": 5, "max_size": 6})
    assert body["count"] > 0, body

    base = f"http://{host}:{port}"
    health = json.loads(urllib.request.urlopen(base + "/healthz", timeout=30).read())
    assert health["status"] == "ok", health

    metrics = urllib.request.urlopen(base + "/metrics", timeout=30).read().decode()
    assert "repro_requests_total" in metrics
    assert "# TYPE repro_request_seconds histogram" in metrics
    assert "repro_cns_pruned_total" in metrics
    assert "repro_singleflight_flights_total" in metrics
    assert "repro_stream_requests_total" in metrics


def test_streaming_smoke(served):
    """SSE delivery: first event before close, ids equal buffered top-k,
    and ``/expand`` rides the same keep-alive connection afterwards."""
    server, host, port = served
    query = {"q": "smith query", "k": 5, "max_size": 6}
    buffered = post_json(host, port, "/search", query)
    buffered_ids = [
        (r["score"], tuple(n["target_object"] for n in r["nodes"]))
        for r in buffered["results"]
    ]
    assert buffered_ids

    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        connection.request(
            "POST",
            "/search",
            body=json.dumps(dict(query, stream=True)),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "text/event-stream"

        # The first result event must be readable while the stream is
        # still open — incremental delivery, not a buffered dump.
        first_name = None
        first_payload = None
        while first_name != "result":
            line = response.readline().decode().rstrip("\n")
            assert line != "", "stream closed before the first result event"
            if line.startswith("event: "):
                first_name = line[len("event: "):]
            elif line.startswith("data: "):
                first_payload = json.loads(line[len("data: "):])
        while first_payload is None:
            line = response.readline().decode().rstrip("\n")
            if line.startswith("data: "):
                first_payload = json.loads(line[len("data: "):])
        assert not response.isclosed()
        assert first_payload["rank"] == 1

        events = [("result", first_payload)] + read_sse_events(response)
        response.read()  # drain to the chunked terminator
        names = [name for name, _ in events]
        assert names[-1] == "done"
        streamed_ids = [
            (payload["score"], tuple(n["target_object"] for n in payload["nodes"]))
            for name, payload in events
            if name == "result"
        ]
        assert streamed_ids == buffered_ids
        done = events[-1][1]
        assert done["stream"] is True
        assert done["count"] == len(streamed_ids)

        # Same connection, next request: /expand over kept-alive HTTP/1.1.
        connection.request("GET", "/expand?q=smith+query&max_size=6")
        expanded = connection.getresponse()
        assert expanded.status == 200
        assert json.loads(expanded.read())["displayed"]
    finally:
        connection.close()
