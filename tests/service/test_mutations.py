"""End-to-end tests for the live-mutation HTTP surface.

POST/PUT/DELETE ``/documents`` against a real server on an ephemeral
port, plus the ``repro update`` CLI verbs that drive those endpoints.
Each test builds a private database: mutations must never touch the
session-scoped fixtures.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.decomposition import minimal_decomposition
from repro.schema import dblp_catalog
from repro.service import QueryService, ServiceConfig
from repro.storage import load_database
from repro.workloads import DBLPConfig, generate_dblp

from ..updates.conftest import frozen_state
from .test_server import get_json, post_search, start_server

NEW_AUTHOR = '<author id="web0"><aname id="web0n">endpoint probe</aname></author>'

BILLION_LAUGHS = (
    '<!DOCTYPE author [<!ENTITY lol0 "lol">'
    + "".join(
        f'<!ENTITY lol{level} "{f"&lol{level - 1};" * 10}">' for level in range(1, 10)
    )
    + ']><author id="bl0"><aname id="bl0n">&lol9;</aname></author>'
)
"""Nine levels of tenfold entity expansion: 3 * 10**9 characters if expanded."""


def build_service(**config) -> QueryService:
    catalog = dblp_catalog()
    graph = generate_dblp(
        DBLPConfig(papers=24, authors=12, avg_citations=2.0, seed=3)
    )
    loaded = load_database(graph, catalog, [minimal_decomposition(catalog.tss)])
    return QueryService(loaded, ServiceConfig(workers=2, **config))


def request_json(base: str, method: str, path: str, body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"{base}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture()
def served():
    service = build_service()
    server, base = start_server(service)
    yield service, base
    server.shutdown()
    service.close()


class TestDocumentEndpoints:
    def test_insert_update_delete_lifecycle(self, served):
        service, base = served
        health = get_json(base, "/healthz")
        documents = health["document_count"]
        assert health["index_epoch"] == 0

        status, report = request_json(
            base, "POST", "/documents", {"xml": NEW_AUTHOR}
        )
        assert status == 200
        assert report["op"] == "insert" and report["epoch"] == 1
        assert report["document_id"] == "web0"

        status, found = post_search(base, {"keywords": ["endpoint"], "k": 5})[:2]
        assert status == 200 and found["count"] == 1

        status, report = request_json(
            base,
            "PUT",
            "/documents/web0",
            {"xml": NEW_AUTHOR.replace("endpoint", "replaced")},
        )
        assert status == 200
        assert report["op"] == "update" and report["epoch"] == 2

        status, report = request_json(base, "DELETE", "/documents/web0")
        assert status == 200
        assert report["op"] == "delete" and report["epoch"] == 3

        health = get_json(base, "/healthz")
        assert health["index_epoch"] == 3
        assert health["document_count"] == documents
        assert health["last_mutation_at"] is not None

    def test_validation_maps_to_http_statuses(self, served):
        _, base = served
        status, payload = request_json(base, "POST", "/documents", {})
        assert status == 400 and "xml" in payload["error"]
        status, payload = request_json(
            base, "POST", "/documents", {"xml": "<paper id='x'"}
        )
        assert status == 400
        status, payload = request_json(base, "DELETE", "/documents/missing")
        assert status == 404
        status, payload = request_json(
            base, "PUT", "/documents/missing", {"xml": NEW_AUTHOR}
        )
        assert status == 404
        status, payload = request_json(base, "DELETE", "/other/route")
        assert status == 404

    def test_rejected_replace_leaves_index_unchanged(self, served):
        _, base = served
        before = get_json(base, "/healthz")
        status, payload = request_json(
            base, "PUT", "/documents/a1", {"xml": "<author id='a1'><aname>unclosed"}
        )
        assert status == 400 and "malformed" in payload["error"]
        after = get_json(base, "/healthz")
        assert after["index_epoch"] == before["index_epoch"] == 0
        assert after["document_count"] == before["document_count"]

    @pytest.mark.parametrize(
        ("xml", "error"),
        [
            pytest.param(BILLION_LAUGHS, "amplification factor", id="entity-expansion"),
            pytest.param(
                '<!DOCTYPE author [<!ENTITY xxe SYSTEM "file:///etc/hostname">]>'
                '<author id="xxe0"><aname id="xxe0n">&xxe;</aname></author>',
                "undefined entity",
                id="external-entity",
            ),
            pytest.param(
                '<paper id="dr0" ref="nosuch"><title id="dr0t">dangling</title></paper>',
                "dangling reference",
                id="dangling-idref",
            ),
            pytest.param(
                '<author id="a1"><aname id="a1dup">collision</aname></author>',
                "already exists",
                id="id-collision",
            ),
        ],
    )
    def test_hostile_bodies_answer_400_and_change_nothing(self, served, xml, error):
        service, base = served
        before = frozen_state(service.updates)
        started = time.perf_counter()
        status, payload = request_json(base, "POST", "/documents", {"xml": xml})
        elapsed = time.perf_counter() - started
        assert status == 400 and error in payload["error"]
        assert elapsed < 1.0
        assert frozen_state(service.updates) == before

    def test_metrics_expose_mutations_and_epoch(self, served):
        _, base = served
        request_json(base, "POST", "/documents", {"xml": NEW_AUTHOR})
        with urllib.request.urlopen(f"{base}/metrics", timeout=10.0) as response:
            text = response.read().decode()
        assert 'repro_mutations_total{op="insert"} 1' in text
        assert "repro_index_epoch 1" in text
        assert 'repro_mutation_seconds_count{op="insert"} 1' in text

    def test_a_write_drops_the_cache_over_http(self, served):
        _, base = served
        first = post_search(base, {"keywords": ["smith"], "k": 5})[1]
        assert first["cached"] is False
        assert post_search(base, {"keywords": ["smith"], "k": 5})[1]["cached"] is True
        _, report = request_json(base, "POST", "/documents", {"xml": NEW_AUTHOR})
        assert report["cache_entries_dropped"] == 1
        replay = post_search(base, {"keywords": ["smith"], "k": 5})[1]
        assert replay["cached"] is False


class TestUpdateCLI:
    def test_insert_replace_delete_verbs(self, served, tmp_path, capsys):
        _, base = served
        fragment = tmp_path / "author.xml"
        fragment.write_text(NEW_AUTHOR)

        assert cli_main(
            ["update", "insert", "--server", base, "--xml", str(fragment)]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["op"] == "insert" and report["document_id"] == "web0"

        fragment.write_text(NEW_AUTHOR.replace("endpoint", "cli"))
        assert cli_main(
            ["update", "replace", "--server", base, "web0", "--xml", str(fragment)]
        ) == 0
        assert json.loads(capsys.readouterr().out)["op"] == "update"

        assert cli_main(["update", "delete", "--server", base, "web0"]) == 0
        assert json.loads(capsys.readouterr().out)["op"] == "delete"

    def test_http_error_reported_on_stderr(self, served, capsys):
        _, base = served
        assert cli_main(["update", "delete", "--server", base, "missing"]) == 1
        captured = capsys.readouterr()
        assert "HTTP 404" in captured.err

    def test_unreachable_server_reported(self, capsys):
        assert cli_main(
            ["update", "delete", "--server", "http://127.0.0.1:9", "missing"]
        ) == 1
        assert "cannot reach" in capsys.readouterr().err
