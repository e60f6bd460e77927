"""Shared fixtures: in-process HTTP endpoints and sleepless retries."""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

import pytest


@dataclass
class Request:
    path: str
    headers: dict
    body: Any


# an app callable maps (request) -> (status_code, payload); payload may be a
# dict (sent as JSON) or raw bytes (sent verbatim, for malformed-body tests).
# A status of None sends the bytes as the whole response, status line and
# headers included, then closes the connection (for broken-server tests).
App = Callable[[Request], tuple[int | None, Any]]


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            body = raw
        request = Request(self.path, {k.lower(): v for k, v in self.headers.items()}, body)
        server: MockEndpoint = self.server  # type: ignore[assignment]
        with server.lock:
            server.requests.append(request)
        status, payload = server.app(request)
        if status is None:
            self.wfile.write(payload)
            return
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST  # a followed redirect would show up in the request log

    def log_message(self, *args):
        pass


class MockEndpoint(ThreadingHTTPServer):
    """Local HTTP endpoint with a pluggable app and a request log."""

    daemon_threads = True

    def __init__(self, app: App):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.app = app
        self.requests: list[Request] = []
        self.lock = threading.Lock()
        # a short poll keeps shutdown() in teardown from waiting up to 0.5 s
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self._thread.start()

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def close(self):
        self.shutdown()
        self.server_close()


@pytest.fixture
def endpoint():
    """Factory for mock endpoints; everything started is torn down after."""
    started: list[MockEndpoint] = []

    def start(app: App) -> MockEndpoint:
        server = MockEndpoint(app)
        started.append(server)
        return server

    yield start
    for server in started:
        server.close()


@pytest.fixture
def no_sleep(monkeypatch):
    """Replace retry sleeps with a recorder so backoff tests run instantly."""
    recorded: list[float] = []

    def fake_sleep(seconds: float):
        recorded.append(seconds)

    monkeypatch.setattr("curator.llm_client._sleep", fake_sleep)
    return recorded


def completion_body(
    text: str,
    logprobs: list[float] | None = None,
    tokens: list[str] | None = None,
    prompt_tokens: int = 120,
    completion_tokens: int = 40,
) -> dict:
    """A minimal chat-completions response body the client accepts."""
    choice: dict = {"message": {"role": "assistant", "content": text}}
    if logprobs is not None:
        toks = tokens if tokens is not None else [f"t{i}" for i in range(len(logprobs))]
        choice["logprobs"] = {
            "content": [{"token": t, "logprob": v} for t, v in zip(toks, logprobs)]
        }
    return {
        "choices": [choice],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }
