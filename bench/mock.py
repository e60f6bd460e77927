"""In-process mock HTTP endpoints for the benchmark's `endpoint` workload.

Stdlib only. Every response is looked up in tables built before the server
starts, so handling a request costs a JSON decode, a dict lookup and a
fixed service latency; the mock's own CPU use stays small next to the
client it serves on the same cores. Nothing here injects faults: the
clients' retry backoff sleeps for unseeded random times, which would make
wall times irreproducible.

Each server counts what it saw: requests, pairs (scorer only), the peak
number of handlers running at once, and non-200 responses.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: How often serve_forever checks for shutdown; short so close() is quick.
POLL_INTERVAL_S = 0.01


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        server: MockEndpoint = self.server  # type: ignore[assignment]
        started = time.perf_counter()
        server.enter()
        status, pairs = 500, 0
        try:
            length = int(self.headers.get("Content-Length", "0"))
            status, data, pairs = server.respond(self.path, self.rfile.read(length))
            delay = started + server.latency_s - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        finally:
            server.leave(status, pairs)

    def log_message(self, *args):
        pass


class MockEndpoint(ThreadingHTTPServer):
    """Local HTTP server answering from a precomputed table.

    `respond(path, raw_body) -> (status, body_bytes, n_pairs)` is supplied
    by the subclass.
    """

    daemon_threads = True

    def __init__(self, latency_s: float):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.latency_s = latency_s
        self._lock = threading.Lock()
        self._active = 0
        self.reset()
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": POLL_INTERVAL_S}, daemon=True
        )
        self._thread.start()

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def reset(self) -> None:
        with self._lock:
            self.requests = 0
            self.pairs = 0
            self.peak_active = 0
            self.non_200 = 0

    def counters(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "pairs": self.pairs,
                "peak_active": self.peak_active,
                "non_200": self.non_200,
            }

    def enter(self) -> None:
        with self._lock:
            self._active += 1
            self.requests += 1
            self.peak_active = max(self.peak_active, self._active)

    def leave(self, status: int, pairs: int) -> None:
        with self._lock:
            self._active -= 1
            self.pairs += pairs
            if status != 200:
                self.non_200 += 1

    def respond(self, path: str, raw: bytes) -> tuple[int, bytes, int]:
        raise NotImplementedError

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)


def _error(status: int, message: str) -> tuple[int, bytes, int]:
    return status, json.dumps({"error": message}).encode("utf-8"), 0


class ChatCompletionsMock(MockEndpoint):
    """`POST /v1/chat/completions` answering from a table keyed by
    (query key, sample seed); greedy requests use the seed None. The query
    key is the first match of `key_pattern` in the user message, so the
    table does not depend on the client's prompt template."""

    def __init__(
        self, table: dict[tuple[str, int | None], bytes], key_pattern: str, latency_s: float
    ):
        self.table = table
        self.key_re = re.compile(key_pattern)
        super().__init__(latency_s)

    def respond(self, path, raw):
        if path != "/v1/chat/completions":
            return _error(404, f"unknown path {path}")
        try:
            payload = json.loads(raw)
            key = self.key_re.search(payload["messages"][-1]["content"]).group(0)
            seed = None if payload["temperature"] == 0 else payload["seed"]
            return 200, self.table[(key, seed)], 0
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            return _error(400, f"request not in the precomputed table: {exc!r}")


class ScorerMock(MockEndpoint):
    """`POST /score` answering each (a, b) pair from a table of score
    literals, so any batching of pairs gets the same per-pair scores."""

    def __init__(self, table: dict[tuple[str, str], str], latency_s: float):
        self.table = table
        super().__init__(latency_s)

    def respond(self, path, raw):
        if path != "/score":
            return _error(404, f"unknown path {path}")
        try:
            pairs = json.loads(raw)["pairs"]
            scores = [self.table[(a, b)] for a, b in pairs]
        except (ValueError, KeyError, TypeError) as exc:
            return _error(400, f"pair not in the precomputed table: {exc!r}")
        return 200, ('{"scores":[' + ",".join(scores) + "]}").encode("ascii"), len(pairs)
