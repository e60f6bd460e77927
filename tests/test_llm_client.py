"""Chat-completions client: payload shapes, retries, trace assembly."""

from __future__ import annotations

import base64
import math
import os
import ssl
import threading
import time
import urllib.request

import pytest

from curator.config import generation_config, load_config
from curator.errors import EndpointError
from curator.llm_client import (
    SYSTEM_PROMPT,
    GenerationConfig,
    UsageCounters,
    _answer_span_logprobs,
    _completion_payload,
    build_prompt,
    generate_bundle,
    generate_dataset,
    in_order,
    post_json,
    sft_record,
)
from curator.model import ParseStatus, QueryTuple, SamplingParams
from curator import transport

from helpers import UP, mk_bundle, mk_query, trace_text
from conftest import MockEndpoint, completion_body


def cfg_for(server, **kw):
    kw.setdefault("model", "test-model")
    kw.setdefault("k", 2)
    return GenerationConfig(base_url=server.base_url, **kw)


def echo_app(text=None, logprobs=None):
    """Always answer with the same completion."""
    body = completion_body(text or trace_text(UP), logprobs)

    def app(request):
        return 200, body

    return app


class TestPrompts:
    def test_user_template_instance(self):
        query = QueryTuple(id="x", cell_type="K562", perturbation="ALG2", gene="PDIA6")
        system, user = build_prompt(query)
        assert system is SYSTEM_PROMPT
        assert user == (
            "Analyze the regulatory effect of knocking down the ALG2 gene on the "
            "PDIA6 gene in a single-cell K562 cell line using CRISPR interference."
        )

    def test_system_prompt_fixes_vocabulary(self):
        assert "'upregulated'" in SYSTEM_PROMPT
        assert "'downregulated'" in SYSTEM_PROMPT
        assert "'not differentially expressed'" in SYSTEM_PROMPT
        assert "<answer>" in SYSTEM_PROMPT


class TestPayloads:
    def cfg(self):
        return GenerationConfig(base_url="http://x", model="m", k=3)

    def test_greedy_payload_minimal(self):
        payload = _completion_payload(self.cfg(), mk_query(), SamplingParams(0.0), True)
        assert payload["temperature"] == 0.0
        assert payload["logprobs"] is True
        for absent in ("top_p", "top_k", "seed"):
            assert absent not in payload

    def test_sample_payload_carries_sampling_knobs(self):
        params = SamplingParams(1.0, 1.0, 50, seed=7)
        payload = _completion_payload(self.cfg(), mk_query(), params, False)
        assert payload["temperature"] == 1.0
        assert payload["top_p"] == 1.0
        assert payload["top_k"] == 50
        assert payload["seed"] == 7
        assert "logprobs" not in payload

    def test_top_k_suppressed_when_disabled(self):
        cfg = GenerationConfig(base_url="http://x", model="m", send_top_k=False)
        payload = _completion_payload(cfg, mk_query(), SamplingParams(1.0, 1.0, 50), False)
        assert "top_k" not in payload

    def test_messages_are_system_then_user(self):
        payload = _completion_payload(self.cfg(), mk_query(), SamplingParams(0.0), False)
        roles = [m["role"] for m in payload["messages"]]
        assert roles == ["system", "user"]


class TestGenerateBundle:
    def test_one_greedy_plus_k_samples(self, endpoint):
        server = endpoint(echo_app(logprobs=[-0.5, -0.25]))
        bundle = generate_bundle(cfg_for(server, k=4), mk_query())
        assert bundle.k == 4
        assert len(server.requests) == 5
        assert bundle.greedy.token_logprobs == (-0.5, -0.25)
        assert bundle.greedy.answer is UP

    def test_greedy_first_then_samples(self, endpoint):
        server = endpoint(echo_app())
        generate_bundle(cfg_for(server, k=2), mk_query())
        temps = [r.body["temperature"] for r in server.requests]
        assert temps == [0.0, 1.0, 1.0]

    def test_sample_seeds_offset_per_sample(self, endpoint):
        server = endpoint(echo_app())
        cfg = cfg_for(server, k=3, sample_params=SamplingParams(1.0, 1.0, 50, seed=100))
        generate_bundle(cfg, mk_query())
        seeds = [r.body.get("seed") for r in server.requests]
        assert seeds == [None, 100, 101, 102]

    def test_missing_logprobs_tolerated(self, endpoint):
        server = endpoint(echo_app())  # no logprobs in response
        bundle = generate_bundle(cfg_for(server, k=1), mk_query())
        assert bundle.greedy.token_logprobs is None

    def test_auth_header_from_env(self, endpoint):
        # the environment is read once, by the config layer
        server = endpoint(echo_app())
        env = {"CURATOR_LLM_API_KEY": "sk-llm", "CURATOR_LLM_BASE_URL": server.base_url,
               "CURATOR_LLM_MODEL": "test-model", "CURATOR_LLM_K": "0"}
        generate_bundle(generation_config(load_config(None, environ=env)), mk_query())
        assert server.requests[0].headers["authorization"] == "Bearer sk-llm"

    def test_retries_on_429_and_5xx(self, endpoint, no_sleep):
        state = {"n": 0}

        def app(request):
            state["n"] += 1
            if state["n"] == 1:
                return 429, {"error": "slow down"}
            if state["n"] == 2:
                return 502, {"error": "bad gateway"}
            return 200, completion_body(trace_text(UP))

        server = endpoint(app)
        counters = UsageCounters()
        bundle = generate_bundle(cfg_for(server, k=0), mk_query(), counters)
        assert bundle.greedy.answer is UP
        snap = counters.snapshot()
        assert snap["requests"] == 1 and snap["retried"] == 2 and snap["failed"] == 0

    def test_permanent_4xx_raises(self, endpoint, no_sleep):
        server = endpoint(lambda request: (400, {"error": "bad request"}))
        counters = UsageCounters()
        with pytest.raises(EndpointError, match="400"):
            generate_bundle(cfg_for(server, k=0, max_retries=4), mk_query(), counters)
        assert len(server.requests) == 1
        assert counters.snapshot()["failed"] == 1

    def test_exhausted_retries_raise(self, endpoint, no_sleep):
        server = endpoint(lambda request: (503, {"error": "down"}))
        with pytest.raises(EndpointError, match="after 3 attempts"):
            generate_bundle(cfg_for(server, k=0, max_retries=2), mk_query())

    def test_malformed_completion_raises(self, endpoint):
        server = endpoint(lambda request: (200, {"choices": []}))
        with pytest.raises(EndpointError, match="malformed"):
            generate_bundle(cfg_for(server, k=0), mk_query())

    def test_usage_tokens_accumulate(self, endpoint):
        server = endpoint(echo_app())
        counters = UsageCounters()
        generate_bundle(cfg_for(server, k=3), mk_query(), counters)
        snap = counters.snapshot()
        assert snap["requests"] == 4
        assert snap["prompt_tokens"] == 4 * 120
        assert snap["completion_tokens"] == 4 * 40


def post(url, payload=None, max_retries=2, retries=None):
    """post_json for a service named svc, appending to `retries` on each
    retry if it is given."""
    return post_json(url, {"x": 1} if payload is None else payload, api_key=None, timeout=5.0,
                     max_retries=max_retries, service="svc",
                     on_retry=(lambda: retries.append(1)) if retries is not None else lambda: None)


class TestPostJson:
    """The standard-library client against a real in-process server."""

    @pytest.mark.parametrize("raw", [
        b'HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{"ok"',
        b"garbage\r\n\r\n",
        b"",
        b'HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n10\r\n{"ok"',
        b"HTTP/1.1 200 OK\r\nX-Big: " + b"a" * 65536 + b"\r\nContent-Length: 2\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\n" + b"X-Many: 1\r\n" * 100 + b"Content-Length: 2\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",
    ], ids=["dropped-mid-body", "garbage-status-line", "closed-without-response",
            "truncated-chunked-body", "oversized-header-line", "too-many-headers",
            "closed-inside-headers"])
    def test_broken_response_is_retried_then_unreachable(self, endpoint, no_sleep, raw):
        server = endpoint(lambda request: (None, raw))
        retries = []
        with pytest.raises(EndpointError, match="svc unreachable after 3 attempts: network"):
            post(server.base_url + "/x", retries=retries)
        assert len(server.requests) == 3 and len(retries) == 2 and len(no_sleep) == 2

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_refused_not_followed(self, endpoint, no_sleep, status):
        raw = (f"HTTP/1.1 {status} Moved\r\nLocation: /elsewhere\r\nContent-Length: 5\r\n\r\n"
               "moved").encode()
        server = endpoint(lambda request: (None, raw))
        with pytest.raises(EndpointError, match=f"svc rejected request: HTTP {status}: moved"):
            post(server.base_url + "/x")
        assert [r.path for r in server.requests] == ["/x"]

    def test_4xx_body_text_is_in_the_error(self, endpoint, no_sleep):
        body = "no such model: m" + "." * 300
        server = endpoint(lambda request: (404, body.encode()))
        with pytest.raises(EndpointError) as info:
            post(server.base_url + "/x")
        assert str(info.value) == f"svc rejected request: HTTP 404: {body[:200]}"
        assert len(server.requests) == 1

    @pytest.mark.parametrize("raw", [
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b'5\r\n{"ok"\r\n6;ext=1\r\n: true\r\n1\r\n}\r\n0\r\nX-Trailer: 1\r\n\r\n',
        b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\n"
        b'HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n{"ok": true}',
        b'HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n{"ok": true}',
    ], ids=["chunked", "interim-responses-skipped", "read-to-close"])
    def test_body_framings(self, endpoint, raw):
        server = endpoint(lambda request: (None, raw))
        assert post(server.base_url + "/x") == {"ok": True}
        assert len(server.requests) == 1

    def test_request_head_is_urllibs(self, endpoint):
        server = endpoint(lambda request: (200, {"ok": True}))
        post_json(server.base_url + "/v1/x?q=1#frag", {}, api_key="k", timeout=5.0,
                  max_retries=0, service="svc")
        (request,) = server.requests
        assert (request.method, request.path) == ("POST", "/v1/x?q=1")
        port = server.server_address[1]
        assert request.headers == {
            "accept-encoding": "identity", "content-length": "2", "host": f"127.0.0.1:{port}",
            "user-agent": transport.USER_AGENT, "content-type": "application/json",
            "authorization": "Bearer k", "connection": "close"}
        assert list(request.headers) == ["accept-encoding", "content-length", "host",
                                         "user-agent", "content-type", "authorization",
                                         "connection"]

    def test_sends_json_with_its_content_type(self, endpoint):
        server = endpoint(lambda request: (200, {"ok": True}))
        assert post(server.base_url + "/x", {"text": "caf\u00e9", "n": [1, 2.5]}) == {"ok": True}
        (request,) = server.requests
        assert request.headers["content-type"] == "application/json"
        assert request.body == {"text": "caf\u00e9", "n": [1, 2.5]}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_payload_is_refused_before_any_request(self, endpoint, bad):
        server = endpoint(lambda request: (200, {"ok": True}))
        retries = []
        with pytest.raises(EndpointError, match="svc request is not valid JSON"):
            post(server.base_url + "/x", {"temperature": bad}, retries=retries)
        assert server.requests == [] and retries == []

    def test_environment_proxy_and_no_proxy_are_honoured(self, endpoint, monkeypatch):
        proxy = endpoint(lambda request: (200, {"via": "proxy"}))
        direct = endpoint(lambda request: (200, {"via": "direct"}))
        for name in ("no_proxy", "NO_PROXY", "HTTP_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("http_proxy", proxy.base_url)
        assert post(direct.base_url + "/x") == {"via": "proxy"}
        assert proxy.requests[0].path == direct.base_url + "/x" and direct.requests == []
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        assert post(direct.base_url + "/x") == {"via": "direct"}

    def test_proxy_credentials_become_proxy_authorization(self, endpoint, proxy_env):
        proxy = endpoint(lambda request: (200, {"via": "proxy"}))
        proxy_env.setenv("http_proxy", proxy.base_url.replace("//", "//u:p%40ss@"))
        assert post("http://example.invalid/x") == {"via": "proxy"}
        (request,) = proxy.requests
        assert request.path == "http://example.invalid/x"
        assert request.headers["host"] == "example.invalid"
        assert request.headers["proxy-authorization"] == "Basic " + base64.b64encode(
            b"u:p@ss").decode()

    def test_https_goes_through_a_connect_tunnel(self, endpoint, no_sleep, proxy_env):
        proxy = endpoint(lambda request: (
            None, b"HTTP/1.1 407 Proxy Authentication Required\r\nContent-Length: 0\r\n\r\n"))
        proxy_env.setenv("https_proxy", proxy.base_url.replace("//", "//u:p@"))
        with pytest.raises(EndpointError, match="svc unreachable after 3 attempts: network error: "
                                                "tunnel connection failed: 407"):
            post("https://127.0.0.1:8443/x")
        assert [(r.method, r.path) for r in proxy.requests] == [("CONNECT", "127.0.0.1:8443")] * 3
        assert proxy.requests[0].headers == {"host": "127.0.0.1:8443",
                                             "proxy-authorization": "Basic dTpw"}

    def test_https_to_a_listener_without_tls_is_a_network_error(self, endpoint, no_sleep,
                                                                 proxy_env):
        server = endpoint(lambda request: (200, {"ok": True}))
        with pytest.raises(EndpointError, match="svc unreachable after 3 attempts: network error"):
            post(server.base_url.replace("http://", "https://") + "/x")
        assert server.requests == []


@pytest.fixture
def proxy_env(monkeypatch):
    """monkeypatch, with every proxy variable and REQUEST_METHOD unset."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy") or name == "REQUEST_METHOD":
            monkeypatch.delenv(name)
    return monkeypatch


PROXY_ENVIRONMENTS = [
    {},
    {"http_proxy": "http://p:1"},
    {"HTTP_PROXY": "http://P:1", "http_proxy": "http://p:2"},
    {"HTTP_PROXY": "http://P:1"},
    {"HTTP_PROXY": "http://P:1", "REQUEST_METHOD": "GET"},
    {"http_proxy": "http://p:1", "REQUEST_METHOD": "GET"},
    {"HTTPS_PROXY": "http://P:1", "https_proxy": ""},
    {"Https_Proxy": "http://P:1", "HTTP_proxy": "http://p:2"},
    {"http_proxy": "http://p:1", "no_proxy": "*"},
    {"http_proxy": "http://p:1", "no_proxy": " .Example.com , localhost"},
    {"http_proxy": "http://p:1", "NO_PROXY": "example.com:8080,127.0.0.1"},
    {"http_proxy": "http://p:1", "no_proxy": "", "NO_PROXY": "example.com"},
    {"http_proxy": "http://p:1", "no_proxy": "[::1]:80,*.test"},
]
HOSTS = ["example.com", "EXAMPLE.com", "api.example.com", "example.com:8080",
         "example.com:9090", "notexample.com", "127.0.0.1:5000", "localhost", "localhost:",
         "[::1]:80", "[::1]", "a.test", "1234"]


@pytest.mark.parametrize("environ", PROXY_ENVIRONMENTS)
def test_proxy_choice_is_urllibs(proxy_env, environ):
    for name, value in environ.items():
        proxy_env.setenv(name, value)
    proxies = transport.getproxies_environment()
    assert proxies == urllib.request.getproxies_environment()
    assert ([transport.proxy_bypass_environment(host, proxies) for host in HOSTS]
            == [urllib.request.proxy_bypass_environment(host, proxies) for host in HOSTS])


class TestAnswerSpanPerplexity:
    def test_slices_logprobs_to_answer_tokens(self, endpoint):
        text = "<think>ab</think><answer>upregulated</answer>"
        tokens = ["<think>ab</think>", "<answer>", "upreg", "ulated", "</answer>"]
        values = [-2.0, -1.0, -0.5, -0.25, -0.125]
        server = endpoint(lambda request: (200, completion_body(text, values, tokens)))
        cfg = cfg_for(server, k=0, ppl_span="answer")
        bundle = generate_bundle(cfg, mk_query())
        assert bundle.greedy.token_logprobs == (-0.5, -0.25)

    def test_boundary_straddling_token_included(self):
        text = "<answer>up</answer>"
        tokens = ["<answer>u", "p</answer>"]
        kept = _answer_span_logprobs(text, tokens, [-0.3, -0.7])
        assert kept == (-0.3, -0.7)  # both overlap the 2-char content span

    def test_fallback_when_tokens_do_not_reassemble(self, endpoint, caplog):
        text = trace_text(UP)
        server = endpoint(
            lambda request: (200, completion_body(text, [-0.5, -0.5], ["mis", "match"]))
        )
        cfg = cfg_for(server, k=0, ppl_span="answer")
        with caplog.at_level("WARNING"):
            bundle = generate_bundle(cfg, mk_query())
        assert bundle.greedy.token_logprobs == (-0.5, -0.5)
        assert any("answer span" in r.message for r in caplog.records)

    def test_fallback_when_text_has_no_answer_tag(self, endpoint, caplog):
        text = "<think>no commitment</think>"
        server = endpoint(lambda request: (200, completion_body(text, [-0.5, -0.25],
                                                               ["<think>no ", "commitment</think>"])))
        cfg = cfg_for(server, k=0, ppl_span="answer")
        with caplog.at_level("WARNING"):
            bundle = generate_bundle(cfg, mk_query())
        assert bundle.greedy.token_logprobs == (-0.5, -0.25)
        assert any("answer span" in r.message for r in caplog.records)

    def test_full_span_is_default(self):
        assert GenerationConfig(base_url="http://x", model="m").ppl_span == "full"


class TestGenerateDataset:
    def test_yields_in_input_order(self, endpoint):
        server = endpoint(echo_app())
        queries = [mk_query(i) for i in range(9)]
        out = list(generate_dataset(cfg_for(server, k=1, max_in_flight=4), queries))
        assert [q.id for q, _, _ in out] == [q.id for q in queries]
        assert all(b is not None and e is None for _, b, e in out)

    def test_failures_isolated_per_query(self, endpoint, no_sleep):
        def app(request):
            user = request.body["messages"][1]["content"]
            if "the PERT1 gene" in user:
                return 400, {"error": "poisoned"}
            return 200, completion_body(trace_text(UP))

        server = endpoint(app)
        queries = [mk_query(i) for i in range(3)]
        out = list(generate_dataset(cfg_for(server, k=1, max_retries=0), queries))
        assert [e is None for _, _, e in out] == [True, False, True]
        assert out[1][1] is None and "400" in out[1][2]

    def test_counters_shared_across_workers(self, endpoint):
        server = endpoint(echo_app())
        counters = UsageCounters()
        queries = [mk_query(i) for i in range(6)]
        list(generate_dataset(cfg_for(server, k=2, max_in_flight=3), queries, counters))
        assert counters.snapshot()["requests"] == 6 * 3


class TestInOrder:
    # with max_in_flight=2, 4 * 2 = 8 items are read ahead of the one yielded

    def test_a_slow_item_does_not_stop_later_items_from_starting(self):
        started, release, last_started = [], threading.Event(), threading.Event()

        def fn(i):
            started.append(i)
            if i == 7:  # the last item of the first 8
                release.wait(5)
            if i == 14:
                last_started.set()
            return i

        results = in_order(fn, range(20), 2)
        assert [next(results) for _ in range(7)] == list(range(7))
        # item 7 holds one thread; the other runs the 7 items taken in its place
        assert last_started.wait(5)
        assert sorted(started) == list(range(15))
        release.set()
        assert list(results) == list(range(7, 20))

    def test_reads_at_most_four_times_max_in_flight_ahead(self):
        pulled = []

        def source():
            for i in range(50):
                pulled.append(i)
                yield i

        results = in_order(lambda i: i, source(), 2)
        for n in range(50):
            assert next(results) == n
            assert len(pulled) <= n + 1 + 4 * 2
        assert list(results) == [] and len(pulled) == 50

    def test_closing_early_cancels_unstarted_items_and_leaves_no_thread(self):
        before = threading.active_count()
        started = []

        def fn(i):
            started.append(i)
            time.sleep(0.3 if i else 0)
            return i

        results = in_order(fn, range(100), 2)
        assert next(results) == 0
        results.close()  # joins the (at most two) running items
        assert threading.active_count() == before
        # of the 9 items read by then, only those a thread had taken ever ran
        assert sorted(started) == list(range(len(started))) and len(started) <= 3


class TestSftRecord:
    def test_messages_triple(self):
        bundle = mk_bundle(5)
        record = sft_record(bundle)
        msgs = record["messages"]
        assert [m["role"] for m in msgs] == ["system", "user", "assistant"]
        assert msgs[0]["content"] == SYSTEM_PROMPT
        assert "PERT5" in msgs[1]["content"] and "GENE5" in msgs[1]["content"]
        assert msgs[2]["content"] == bundle.greedy.text

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(base_url="", model="m")
        with pytest.raises(ValueError):
            GenerationConfig(base_url="http://x", model="")
        with pytest.raises(ValueError):
            GenerationConfig(base_url="http://x", model="m", k=-1)
        with pytest.raises(ValueError):
            GenerationConfig(base_url="http://x", model="m", ppl_span="sideways")


#: a certificate for localhost and the CA that signed it, from CPython's own
#: test data (test/certdata since 3.11, test before)
CERTS = next((d for d in (os.path.join(os.path.dirname(os.__file__), "test", "certdata"),
                          os.path.join(os.path.dirname(os.__file__), "test"))
              if os.path.exists(os.path.join(d, "keycert3.pem"))), None)


class TLSEndpoint(MockEndpoint):
    """The mock endpoint behind TLS, with a certificate for localhost."""

    def get_request(self):
        sock, address = super().get_request()
        context = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
        context.load_cert_chain(os.path.join(CERTS, "keycert3.pem"))
        return context.wrap_socket(sock, server_side=True), address


@pytest.mark.skipif(CERTS is None, reason="this CPython ships no test certificates")
def test_https_verifies_the_certificate_and_hostname(proxy_env, no_sleep):
    server = TLSEndpoint(lambda request: (200, {"ok": True}))
    try:
        port = server.server_address[1]
        with pytest.raises(EndpointError, match="network error: .*CERTIFICATE_VERIFY_FAILED"):
            post(f"https://localhost:{port}/x", max_retries=0)
        proxy_env.setenv("SSL_CERT_FILE", os.path.join(CERTS, "pycacert.pem"))
        with pytest.raises(EndpointError, match="network error: .*CERTIFICATE_VERIFY_FAILED"):
            post(f"https://127.0.0.1:{port}/x", max_retries=0)  # not the certificate's name
        assert post(f"https://localhost:{port}/x") == {"ok": True}
        assert server.requests[-1].headers["host"] == f"localhost:{port}"
    finally:
        server.close()
