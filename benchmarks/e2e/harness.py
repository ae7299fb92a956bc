"""The load side of the benchmark: server lifecycle, the HTTP clients,
the closed-loop window and the per-reply correctness checks."""

from __future__ import annotations

import http.client
import json
import os
import queue
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from measure import SSEParser, parse_exposition
from workloads import Op

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

LAUNCH_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0


class Server:
    """One ``python -m repro serve`` subprocess over a corpus file.

    A context manager: leaving it — normally, on a failed check, on
    Ctrl-C — terminates the process and waits for it (kill after 5 s).
    """

    def __init__(self, corpus_path: Path, workdir: Path) -> None:
        self._corpus_path = corpus_path
        self._stderr_path = workdir / "server.stderr"
        self._process: subprocess.Popen | None = None
        self.port = 0
        self.setup_s = 0.0

    def __enter__(self) -> "Server":
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        # The served configuration is part of the benchmark; an inherited
        # override would silently measure another engine.
        for name in ("REPRO_BACKEND", "REPRO_SHARDS", "REPRO_SANITIZE"):
            env.pop(name, None)
        command = [
            sys.executable, "-m", "repro", "serve",
            "--xml", str(self._corpus_path),
            "--decomposition", "xkeyword",
            "--port", "0",
            "--no-tracing",
        ]
        started = time.perf_counter()
        with open(self._stderr_path, "wb") as stderr:
            self._process = subprocess.Popen(
                command, cwd=ROOT, env=env, text=True,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=stderr,
            )
        try:
            self.port = self._await_listening(started + LAUNCH_TIMEOUT)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        self.setup_s = time.perf_counter() - started
        return self

    def _await_listening(self, deadline: float) -> int:
        lines: queue.Queue[str | None] = queue.Queue()

        def pump() -> None:
            # Keeps draining after start-up so the server never blocks on
            # a full pipe; ends at EOF, when the process exits.
            for line in self._process.stdout:
                lines.put(line)
            lines.put(None)

        threading.Thread(target=pump, daemon=True).start()
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise RuntimeError(
                    f"server not listening after {LAUNCH_TIMEOUT:.0f} s; "
                    f"stderr tail:\n{self._stderr_tail()}"
                ) from None
            if line is None:
                raise RuntimeError(
                    f"server exited with {self._process.wait()} before listening; "
                    f"stderr tail:\n{self._stderr_tail()}"
                )
            if "listening on" in line:
                return int(line.rsplit(":", 1)[1])

    def _stderr_tail(self) -> str:
        return self._stderr_path.read_text(errors="replace")[-2000:]

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``), in MB."""
        status = Path(f"/proc/{self._process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def __exit__(self, *exc_info) -> None:
        process = self._process
        if process is None or process.poll() is not None:
            return
        process.terminate()
        try:
            process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
@dataclass
class Reply:
    """What one operation returned and when."""

    op: Op
    started: float
    finished: float = 0.0
    first_result: float | None = None
    """When the first ranked result was in hand: the first ``event:
    result`` line of a streamed search, ``finished`` of a buffered one."""
    status: int = 0
    payload: dict = field(default_factory=dict)
    """The JSON body; for a streamed search the ``done`` summary with
    the result events gathered under ``results``."""
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.finished - self.started) * 1000.0

    @property
    def first_result_ms(self) -> float:
        return (self.first_result - self.started) * 1000.0


class Client:
    """One persistent HTTP/1.1 connection, one request at a time.

    With ``quick_ack`` the segments of a reply are acknowledged at once
    (``TCP_QUICKACK``, armed when the request is sent and again before
    each line of an event stream, because the kernel clears it).  The
    server writes a reply in pieces — headers then body, event by
    event — and holds each piece until the one before is acknowledged;
    left to the kernel's delayed-ACK heuristic that takes 40 ms on some
    connections and no time on others, so on one connection a whole
    run's median is decided by which it drew (``deep_topk``: 80 ms in
    three runs, 120 ms in the fourth).  The miss workloads ask for it;
    ``hot_zipf`` keeps the default, where the stall is the same on every
    request and is what the workload exposes.
    """

    def __init__(self, port: int, quick_ack: bool = False) -> None:
        self._connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT
        )
        self._quick_ack = quick_ack and hasattr(socket, "TCP_QUICKACK")

    def close(self) -> None:
        self._connection.close()

    def _acknowledge_at_once(self) -> None:
        sock = self._connection.sock  # None once a reply closed the connection
        if self._quick_ack and sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)

    def send(self, op: Op) -> Reply:
        body = None if op.body is None else json.dumps(op.body).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        reply = Reply(op, started=time.perf_counter())
        try:
            self._connection.request(op.method, op.path, body=body, headers=headers)
            self._acknowledge_at_once()
            response = self._connection.getresponse()
            reply.status = response.status
            if response.getheader("Content-Type", "").startswith("text/event-stream"):
                self._read_events(response, reply)
            else:
                data = response.read()
                reply.finished = time.perf_counter()
                reply.first_result = reply.finished
                reply.payload = json.loads(data)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            reply.finished = time.perf_counter()
            reply.error = f"{type(exc).__name__}: {exc}"
            self._connection.close()  # reconnects on the next request
        return reply

    def _read_events(self, response, reply: Reply) -> None:
        events = SSEParser()
        # readline() returns b"" after the terminating chunk, which must
        # be consumed for the connection to carry the next request.
        while True:
            self._acknowledge_at_once()
            line = response.readline()
            if not line:
                break
            events.feed(line, time.perf_counter())
        reply.finished = time.perf_counter()
        reply.first_result = events.first_result_at or reply.finished
        if events.error is not None or events.done is None:
            reply.error = f"stream ended without done: {events.error}"
            return
        reply.payload = dict(events.done, results=events.results)

    def scrape(self) -> dict[str, float]:
        self._connection.request("GET", "/metrics")
        return parse_exposition(self._connection.getresponse().read().decode())


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def answer_key(payload: dict) -> list:
    """The part of a ``/search`` answer the golden file pins."""
    return [
        [
            result["rank"],
            result["score"],
            result["network"],
            [[node["role"], node["target_object"]] for node in result["nodes"]],
        ]
        for result in payload["results"]
    ]


def check(reply: Reply, golden: dict | None = None) -> str | None:
    """Why ``reply`` is wrong, or ``None``.

    Every reply: transport error, status 200.  Searches: ``count`` is
    the number of results and at most ``k``, scores never decrease, and
    the answer equals the golden one when ``golden`` holds the query.
    """
    if reply.error is not None:
        return reply.error
    if reply.status != 200:
        return f"HTTP {reply.status}: {reply.payload.get('error', '')}"
    if reply.op.query_key is None:
        return None
    payload = reply.payload
    results = payload.get("results")
    if results is None or payload.get("count") != len(results):
        return "count does not match the results delivered"
    if len(results) > reply.op.body["k"]:
        return f"{len(results)} results for k={reply.op.body['k']}"
    scores = [result["score"] for result in results]
    if scores != sorted(scores):
        return "scores decrease"
    if golden is not None and reply.op.query_key in golden:
        if answer_key(payload) != golden[reply.op.query_key]:
            return "answer differs from the golden file"
    return None


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
def drive(
    port: int,
    sequences: list[Iterator[Op]],
    deadline: float | None = None,
    quick_ack: bool = False,
) -> list[Reply]:
    """Run one closed-loop client per sequence and gather every reply.

    Each client sends its next operation when the previous reply is
    fully read.  With ``deadline`` (a ``time.perf_counter`` instant) the
    clients stop taking operations once it has passed — an operation in
    flight is completed; without, each sequence is sent to its end.
    """
    replies: list[list[Reply]] = [[] for _ in sequences]
    failures: list[BaseException] = []

    def client_loop(index: int) -> None:
        client = Client(port, quick_ack)
        try:
            while deadline is None or time.perf_counter() < deadline:
                op = next(sequences[index], None)
                if op is None:
                    break
                replies[index].append(client.send(op))
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            failures.append(exc)
        finally:
            client.close()

    # Daemons, so Ctrl-C in the main thread ends the run at once instead
    # of waiting for clients that retry against a stopped server.
    threads = [
        threading.Thread(target=client_loop, args=(index,), daemon=True)
        for index in range(len(sequences))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return [reply for client_replies in replies for reply in client_replies]


def split(ops: list[Op], clients: int) -> list[Iterator[Op]]:
    """Deal a fixed list of operations round-robin to ``clients`` clients."""
    return [iter(ops[client::clients]) for client in range(clients)]
