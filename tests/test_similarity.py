"""Similarity providers: lexical cosine, answer agreement, remote scorer."""

from __future__ import annotations

import math
import re
import threading
import time
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curator.config import load_config, scorer_config
from curator.errors import EndpointError, UnparsedTrace
from curator.similarity import (
    AnswerAgreementProvider,
    LexicalCosineProvider,
    RemoteScorerConfig,
    RemoteScorerProvider,
    _tf_vector,
    get_provider,
)
from curator.simulate import SimConfig, simulate_dataset

from helpers import DOWN, UP, trace_text

words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=8
)
texts = st.lists(words, max_size=12).map(" ".join)
#: every ASCII character, so both tokeniser paths are drawn, plus letters
#: whose lowercase differs in length or script
mixed_texts = st.text(alphabet=[chr(c) for c in range(128)] + ["É", "ß", "İ", " "])

_REFERENCE_WORDS = re.compile(r"[^\W_]+")


def reference_vector(text: str) -> tuple[Counter, float]:
    counts = Counter(_REFERENCE_WORDS.findall(text.lower()))
    return counts, math.sqrt(sum(c * c for c in counts.values()))


def lexical(a: str, b: str) -> float:
    return LexicalCosineProvider().score_many([(a, b)])[0]


def reference_cosine(a: str, b: str) -> float:
    """The lexical cosine by regex tokens and a per-token loop."""
    (ta, na), (tb, nb) = reference_vector(a), reference_vector(b)
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    dot = sum(c * tb[t] for t, c in ta.items() if t in tb)
    return min(1.0, max(0.0, dot / (na * nb)))


class TestLexicalCosine:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("gene up", "gene up", 1.0),
            ("", "anything", 0.0),
            ("anything", "", 0.0),
            ("", "", 1.0),
            ("a b", "a c", 0.5),  # (1,1,0)·(1,0,1) / (√2·√2)
            ("x y z", "p q r", 0.0),
        ],
    )
    def test_oracle_values(self, a, b, expected):
        assert lexical(a, b) == pytest.approx(expected, abs=1e-12)

    def test_case_and_punctuation_insensitive(self):
        assert lexical("Gene, up!", "gene up") == pytest.approx(1.0)

    def test_underscore_splits_tokens(self):
        # "a_b" tokenizes to {a, b}, not a single token
        assert lexical("a_b", "a b") == pytest.approx(1.0)

    @given(texts, texts)
    def test_symmetric_and_bounded(self, a, b):
        s = lexical(a, b)
        assert 0.0 <= s <= 1.0
        assert s == pytest.approx(lexical(b, a), abs=1e-12)

    @given(texts)
    def test_self_similarity_is_one(self, a):
        assert lexical(a, a) == pytest.approx(1.0)

    @given(texts, texts)
    def test_invariant_under_doubling(self, a, b):
        # TF cosine only sees direction, not magnitude
        doubled = (a + " " + a).strip()
        assert lexical(doubled, b) == pytest.approx(lexical(a, b), abs=1e-9)

    @given(mixed_texts)
    def test_tokens_are_the_regex_tokens(self, text):
        counts, norm = _tf_vector(text)
        want_counts, want_norm = reference_vector(text)
        assert counts == want_counts
        assert all(type(t) is str for t in counts)
        assert norm == want_norm

    @pytest.mark.parametrize("text", ["a_b", "X9y_Z", "tab\tnew\nline\x1fsep", "Ünïcode_É9 ok"])
    def test_tokens_on_separators_and_digits(self, text):
        assert _tf_vector(text)[0] == reference_vector(text)[0]

    def test_ascii_and_non_ascii_texts_share_tokens(self):
        # one shared token of two on each side; √2·√2 rounds one ulp above 2
        assert lexical("Gene UP", "gène up") == 1 / (math.sqrt(2) * math.sqrt(2))
        assert _tf_vector("Gene UP")[0].keys() & _tf_vector("gène up")[0].keys() == {"up"}

    def test_provider_matches_regex_reference_on_simulated_bundles(self):
        pairs = [
            (bundle.greedy.text, sample.text)
            for bundle in simulate_dataset(SimConfig(n_examples=60, seed=11))
            for sample in bundle.samples
        ]
        # a few non-ASCII texts, so both tokeniser paths meet in one call
        pairs += [(a, b.replace("e", "é", 2)) for a, b in pairs[:20]]
        got = LexicalCosineProvider().score_many(pairs)
        assert got == [reference_cosine(a, b) for a, b in pairs]


class TestAnswerAgreement:
    def test_provider_parses_raw_text(self):
        provider = AnswerAgreementProvider()
        pairs = [(trace_text(UP), trace_text(UP, "x")), (trace_text(UP), trace_text(DOWN))]
        assert provider.score_many(pairs) == [1.0, 0.0]
        assert provider.score_many([]) == []
        for pair in [(trace_text(UP), "mumble"), ("mumble", trace_text(UP))]:
            with pytest.raises(UnparsedTrace, match="parseable answers on both texts"):
                provider.score_many([pairs[0], pair])


def scorer_app(scores_fn):
    """App returning {"scores": scores_fn(pairs)} for each request."""

    def app(request):
        pairs = request.body["pairs"]
        return 200, {"scores": scores_fn(pairs)}

    return app


def cfg_for(server, **kw):
    return RemoteScorerConfig(base_url=server.base_url, **kw)


def remote_scores(cfg, pairs):
    return RemoteScorerProvider(cfg).score_many(pairs)


class TestRemoteScorer:
    def test_scores_in_order(self, endpoint):
        server = endpoint(scorer_app(lambda pairs: [0.1 * i for i in range(len(pairs))]))
        out = remote_scores(cfg_for(server), [("a", "b"), ("c", "d"), ("e", "f")])
        assert out == [0.0, 0.1, 0.2]

    def test_chunks_by_max_batch(self, endpoint):
        server = endpoint(scorer_app(lambda pairs: [0.5] * len(pairs)))
        pairs = [(f"a{i}", f"b{i}") for i in range(7)]
        # one request in flight, so the server sees the chunks in order
        remote_scores(cfg_for(server, max_batch=3, max_in_flight=1), pairs)
        sizes = [len(r.body["pairs"]) for r in server.requests]
        assert sizes == [3, 3, 1]
        sent = [p for r in server.requests for p in r.body["pairs"]]
        assert sent == [[a, b] for a, b in pairs]

    def test_clamps_out_of_range(self, endpoint):
        server = endpoint(scorer_app(lambda pairs: [1.7, -0.3]))
        assert remote_scores(cfg_for(server), [("a", "b"), ("c", "d")]) == [1.0, 0.0]

    def test_empty_pairs_send_no_request(self, endpoint):
        server = endpoint(scorer_app(lambda pairs: []))
        assert remote_scores(cfg_for(server), []) == []
        assert server.requests == []

    def test_retries_500_then_succeeds(self, endpoint, no_sleep):
        state = {"calls": 0}

        def app(request):
            state["calls"] += 1
            if state["calls"] <= 2:
                return 503, {"error": "busy"}
            return 200, {"scores": [0.4]}

        server = endpoint(app)
        out = remote_scores(cfg_for(server, max_retries=3), [("a", "b")])
        assert out == [0.4]
        assert state["calls"] == 3
        assert len(no_sleep) == 2  # one jittered sleep per retry

    def test_retries_429_then_succeeds(self, endpoint, no_sleep):
        state = {"calls": 0}

        def app(request):
            state["calls"] += 1
            if state["calls"] == 1:
                return 429, {"error": "slow down"}
            return 200, {"scores": [0.4]}

        server = endpoint(app)
        assert remote_scores(cfg_for(server, max_retries=3), [("a", "b")]) == [0.4]
        assert state["calls"] == 2
        assert len(no_sleep) == 1  # same backoff as a 5xx

    def test_gives_up_after_max_retries(self, endpoint, no_sleep):
        server = endpoint(lambda request: (500, {"error": "down"}))
        with pytest.raises(EndpointError, match="scorer unreachable after 3 attempts: HTTP 500"):
            remote_scores(cfg_for(server, max_retries=2), [("a", "b")])
        assert len(server.requests) == 3

    def test_4xx_is_permanent(self, endpoint, no_sleep):
        server = endpoint(lambda request: (422, {"error": "bad pairs"}))
        with pytest.raises(EndpointError, match="scorer rejected request: HTTP 422"):
            remote_scores(cfg_for(server, max_retries=5), [("a", "b")])
        assert len(server.requests) == 1  # no retry on a refused request
        assert no_sleep == []

    def test_network_error_retried_then_unavailable(self, no_sleep):
        cfg = RemoteScorerConfig(base_url="http://127.0.0.1:9", max_retries=1, timeout=0.2)
        with pytest.raises(EndpointError, match="scorer unreachable after 2 attempts: network"):
            remote_scores(cfg, [("a", "b")])

    @pytest.mark.parametrize(
        "payload",
        [
            {"notscores": [0.5]},
            {"scores": 0.5},
            {"scores": [0.5, 0.5]},  # wrong length for one pair
            {"scores": ["high"]},
            {"scores": [True]},
            {"scores": [10**400]},  # beyond a float's range
        ],
    )
    def test_malformed_response_is_protocol_error(self, endpoint, payload):
        server = endpoint(lambda request: (200, payload))
        with pytest.raises(EndpointError, match=r"^scorer (response has no|'scores' is not|returned)"):
            remote_scores(cfg_for(server), [("a", "b")])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_is_protocol_error(self, endpoint, value):
        # NaN must not be clamped into a confident 0.0 similarity
        server = endpoint(lambda request: (200, {"scores": [value]}))
        with pytest.raises(EndpointError, match="scorer returned a non-finite"):
            remote_scores(cfg_for(server), [("a", "b")])

    def test_non_json_body_is_protocol_error(self, endpoint):
        server = endpoint(lambda request: (200, b"<html>oops</html>"))
        with pytest.raises(EndpointError, match="scorer returned non-JSON body"):
            remote_scores(cfg_for(server), [("a", "b")])

    def test_api_key_sent_as_bearer(self, endpoint):
        server = endpoint(scorer_app(lambda pairs: [0.5] * len(pairs)))
        remote_scores(cfg_for(server, api_key="sk-test"), [("a", "b")])
        assert server.requests[0].headers["authorization"] == "Bearer sk-test"

    def test_api_key_from_environment(self, endpoint):
        # the environment is read once, by the config layer
        server = endpoint(scorer_app(lambda pairs: [0.5] * len(pairs)))
        env = {"CURATOR_SCORER_API_KEY": "sk-env", "CURATOR_SCORER_BASE_URL": server.base_url}
        remote_scores(scorer_config(load_config(None, environ=env)), [("a", "b")])
        assert server.requests[0].headers["authorization"] == "Bearer sk-env"

    def test_no_auth_header_without_key(self, endpoint, monkeypatch):
        monkeypatch.setenv("CURATOR_SCORER_API_KEY", "sk-ignored")  # only the config reads it
        server = endpoint(scorer_app(lambda pairs: [0.5] * len(pairs)))
        remote_scores(cfg_for(server), [("a", "b")])
        assert "authorization" not in server.requests[0].headers

    def test_provider_score_many_across_threads(self, endpoint):
        server = endpoint(scorer_app(lambda pairs: [0.25] * len(pairs)))
        provider = RemoteScorerProvider(cfg_for(server, max_batch=2, max_in_flight=2))
        results = {}

        def run(tag):
            results[tag] = provider.score_many([(f"{tag}{i}", "x") for i in range(5)])

        threads = [threading.Thread(target=run, args=(t,)) for t in "abc"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(results[t] == [0.25] * 5 for t in "abc")

    def test_requests_per_call_and_in_flight_cap(self, endpoint):
        lock = threading.Lock()
        state = {"active": 0, "peak": 0}

        def app(request):
            with lock:
                state["active"] += 1
                state["peak"] = max(state["peak"], state["active"])
            time.sleep(0.05)
            with lock:
                state["active"] -= 1
            return 200, {"scores": [0.5] * len(request.body["pairs"])}

        server = endpoint(app)
        provider = RemoteScorerProvider(cfg_for(server, max_batch=4, max_in_flight=2))
        assert provider.window_pairs == 8
        for n_pairs in (8, 7, 1):
            before = len(server.requests)
            assert provider.score_many([(f"g{i}", "s") for i in range(n_pairs)]) == [0.5] * n_pairs
            assert len(server.requests) - before == math.ceil(n_pairs / 4)
            assert all(len(r.body["pairs"]) <= 4 for r in server.requests)
        assert state["peak"] == 2  # the chunks of one call do overlap

        # three caller threads share the provider's cap
        results = {}

        def run(tag):
            results[tag] = provider.score_many([(tag, "s")] * 8)

        threads = [threading.Thread(target=run, args=(t,)) for t in "abc"]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert results == {t: [0.5] * 8 for t in "abc"}
        assert len(server.requests) == 5 + 6
        assert state["peak"] == 2

    def test_no_thread_outlives_a_call(self, endpoint):
        server = endpoint(scorer_app(lambda pairs: [0.5] * len(pairs)))
        provider = RemoteScorerProvider(cfg_for(server, max_batch=2, max_in_flight=3))
        before = client_threads()
        assert provider.score_many([(f"g{i}", "s") for i in range(6)]) == [0.5] * 6
        assert len(server.requests) == 3
        assert client_threads() == before

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RemoteScorerConfig(base_url="")
        with pytest.raises(ValueError):
            RemoteScorerConfig(base_url="http://x", max_batch=0)
        with pytest.raises(ValueError):
            RemoteScorerConfig(base_url="http://x", timeout=0)


def client_threads() -> list[threading.Thread]:
    """The live threads but the mock endpoints' request handlers, which may
    still be closing a connection after the client has read its response."""
    return [t for t in threading.enumerate() if not t.name.endswith("(process_request_thread)")]


class TestGetProvider:
    def test_names(self):
        assert get_provider("lexical").name == "lexical"
        assert get_provider("answer").name == "answer"
        cfg = RemoteScorerConfig(base_url="http://x")
        assert get_provider("remote", cfg).name == "remote"

    def test_remote_without_config_refused(self):
        with pytest.raises(ValueError):
            get_provider("remote")

    def test_unknown_name_refused(self):
        with pytest.raises(ValueError):
            get_provider("telepathy")
