"""Client for producing trace bundles from an OpenAI-compatible endpoint.

For each query the client issues one greedy request (temperature 0, with
token log-probabilities) plus k sampled requests, parses the committed
answer out of every completion, and assembles a TraceBundle. Failures are
isolated per query: a query that keeps failing is recorded and skipped,
never aborting the run.

Both HTTP clients (this one and the remote similarity scorer) share two
things. post_json is their one retry policy: exponential backoff with full
jitter (base 0.5 s, doubling per attempt); 429 and 5xx responses and
network errors are retried, and any other status, a 3xx included, is a
permanent request error. in_order is their one concurrency path: a thread
pool made for the call and gone when it returns, so no thread outlives it.
"""

from __future__ import annotations

import functools
import json
import logging
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from itertools import islice
from typing import Any, Callable, Iterable, Iterator
from urllib.parse import urlsplit

from .errors import EndpointError
from .model import (
    DEFAULT_SAMPLE_PARAMS,
    GREEDY_PARAMS,
    LOGPROB_TOLERANCE,
    QueryTuple,
    ReasoningTrace,
    SamplingParams,
    TraceBundle,
    checked,
    find_answer_span,
)

log = logging.getLogger(__name__)

#: The token spans perplexity may be taken over: the whole completion, or
#: only its <answer>...</answer> part.
PPL_SPANS = ("full", "answer")

_RETRY_BASE_SECONDS = 0.5

# test seam: patched out so retry tests do not sleep for real
_sleep = time.sleep

SYSTEM_PROMPT = (
    "You are an molecular and cellular biology expert analyzing gene regulation upon "
    "CRISPRi knockdown. First, provide your reasoning process within <think> </think> "
    "tags. Consider relevant pathways (e.g., cell-type specific biology, ribosome "
    "biogenesis, transcription, mitochondrial function, stress response), gene "
    "interactions, and cell-specific context. Then, choose one option from the "
    "following and place your choice within <answer> </answer> tags: 'upregulated', "
    "'downregulated', or 'not differentially expressed'. Example: <think> [Your "
    "reasoning here] </think><answer> [upregulated / downregulated / not "
    "differentially expressed] </answer>"
)

USER_TEMPLATE = (
    "Analyze the regulatory effect of knocking down the {perturbation} gene on the "
    "{gene} gene in a single-cell {cell_type} cell line using CRISPR interference."
)


def build_prompt(query: QueryTuple) -> tuple[str, str]:
    """Render the (system, user) message pair for one query.

    Pure string substitution; identical inputs give byte-identical prompts.
    """
    user = USER_TEMPLATE.format(
        perturbation=query.perturbation,
        gene=query.gene,
        cell_type=query.cell_type,
    )
    return SYSTEM_PROMPT, user


def check_endpoint(settings: dict) -> None:
    """Refuse, with a ValueError naming the key, an endpoint setting that
    post_json could not send. settings maps names, as the config keys and
    the two endpoint configs' fields have them, to values; other names
    pass. The URL and the key go into the request head that
    curator.transport writes, so both must be printable ASCII, and the
    message never shows the key."""
    for key, value in settings.items():
        if key == "base_url":
            try:
                url = urlsplit(value)
                url.port  # parsing the port refuses one out of range
            except ValueError as exc:
                raise ValueError(f"base_url {value!r} is not a URL: {exc}") from None
            if (url.scheme not in ("http", "https") or not url.hostname
                    or not all("!" <= c <= "~" for c in value)):
                raise ValueError("base_url must be an http or https URL with a host, in "
                                 f"printable ASCII without spaces, got {value!r}")
        elif key == "api_key" and value is not None and not all(" " <= c <= "~" for c in value):
            raise ValueError("api_key must be printable ASCII")
        elif key in ("request_timeout", "timeout") and value <= 0:
            raise ValueError(f"{key} must be positive, got {value}")
        elif key == "max_retries" and value < 0:
            raise ValueError(f"max_retries must be >= 0, got {value}")
        elif key in ("max_in_flight", "max_tokens", "max_batch") and value < 1:
            raise ValueError(f"{key} must be >= 1, got {value}")


@dataclass(frozen=True)
class GenerationConfig:
    base_url: str
    model: str
    api_key: str | None = None
    k: int = 8
    sample_params: SamplingParams = DEFAULT_SAMPLE_PARAMS
    max_tokens: int = 2048
    request_timeout: float = 60.0
    max_retries: int = 3
    max_in_flight: int = 8
    logprobs: bool = True
    send_top_k: bool = True
    ppl_span: str = "full"

    def __post_init__(self):
        check_endpoint(vars(self))
        if not self.model:
            raise ValueError("generation model must be non-empty")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.ppl_span not in PPL_SPANS:
            spans = " or ".join(map(repr, PPL_SPANS))
            raise ValueError(f"ppl_span must be {spans}, got {self.ppl_span!r}")


class UsageCounters:
    """Thread-safe, monotone counters for one generation run, in the key
    order of `.usage.json`: requests counts completed successful requests,
    and the token counts their tokens; retried counts retry attempts;
    failed counts requests that never succeeded."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(
            ("requests", "prompt_tokens", "completion_tokens", "retried", "failed"), 0)

    def add(self, **counts: int) -> None:
        with self._lock:
            for key, n in counts.items():
                self._counts[key] += n

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self._counts)


def _completion_payload(
    cfg: GenerationConfig, query: QueryTuple, params: SamplingParams, want_logprobs: bool
) -> dict:
    system, user = build_prompt(query)
    payload: dict = {
        "model": cfg.model,
        "messages": [
            {"role": "system", "content": system},
            {"role": "user", "content": user},
        ],
        "temperature": params.temperature,
        "max_tokens": cfg.max_tokens,
    }
    if not params.is_greedy:
        payload["top_p"] = params.top_p
        if cfg.send_top_k and params.top_k is not None:
            payload["top_k"] = params.top_k
    if params.seed is not None:
        payload["seed"] = params.seed
    if want_logprobs:
        payload["logprobs"] = True
    return payload


def post_json(
    url: str, payload: dict, *, api_key: str | None, timeout: float, max_retries: int,
    service: str, on_retry: Callable[[], None] = lambda: None,
) -> Any:
    """POST payload as JSON and return the decoded body of a 200 response.

    The client is `curator.transport`, HTTP/1.1 over a socket, imported
    on first use so that commands which never call an endpoint do not
    load it. TLS is verified against the system CA store, environment
    proxies and NO_PROXY apply, and redirects are not followed.

    Network errors (a failed connection, a timeout, a connection dropped
    mid-body, a garbled status line), 429 and 5xx are retried up to
    max_retries times, each after a jittered exponential backoff and a
    call to on_retry. Any other status (3xx included; the message carries
    the first 200 characters of its body), a 200 whose body is not JSON,
    or a payload that is not strict JSON (NaN, infinities; nothing is
    sent) raises EndpointError at once, as does running out of attempts.
    Messages start with `service`.
    """
    from .transport import post  # loaded only by the commands that call an endpoint

    try:
        data = json.dumps(payload, allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise EndpointError(f"{service} request is not valid JSON: {exc}") from None
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    last_error = "no attempt made"
    for attempt in range(max_retries + 1):
        try:
            status, body = post(url, data, headers, timeout)
        except OSError as exc:  # also a garbled or truncated response
            last_error = f"network error: {exc}"
        else:
            if status == 200:
                try:
                    return json.loads(body)
                except (ValueError, RecursionError):  # also nested too deeply to decode
                    raise EndpointError(f"{service} returned non-JSON body") from None
            if status != 429 and status < 500:
                # the request itself was refused; retrying cannot help
                text = body[:800].decode("utf-8", "replace")[:200]
                raise EndpointError(f"{service} rejected request: HTTP {status}: {text}")
            last_error = f"HTTP {status}"
        if attempt < max_retries:
            on_retry()
            _sleep(random.uniform(0, _RETRY_BASE_SECONDS * (2**attempt)))
    raise EndpointError(f"{service} unreachable after {max_retries + 1} attempts: {last_error}")


def _post_completion(
    cfg: GenerationConfig, payload: dict, counters: UsageCounters
) -> tuple[str, list[str] | None, list[float] | None]:
    """Post one completion request and return its parsed (text, tokens,
    logprobs). A response refused by the parser counts as failed, not as
    a success, and its tokens are not counted as spent."""
    try:
        body = post_json(
            cfg.base_url.rstrip("/") + "/v1/chat/completions", payload,
            api_key=cfg.api_key, timeout=cfg.request_timeout,
            max_retries=cfg.max_retries, service="endpoint",
            on_retry=functools.partial(counters.add, retried=1),
        )
        text, tokens, values, spent = _parse_completion(body)
    except EndpointError:
        counters.add(failed=1)
        raise
    counters.add(requests=1, **spent)
    return text, tokens, values


def _parse_completion(body: Any) -> tuple[str, list[str] | None, list[float] | None, dict]:
    """(text, tokens, logprobs, token counts) of a completion response.
    The body and `usage` must be objects and each count a non-negative
    integer; a missing `usage` or count is 0. The text and each logprob
    item's token must be strings and each logprob a finite number, under
    `model.checked`'s rule, and no logprob may be greater than
    LOGPROB_TOLERANCE."""
    try:
        checked(body, "completion response body", dict)
        usage = checked(body.get("usage"), "usage", dict, nullable=True) or {}
        counts = {}
        for key in ("prompt_tokens", "completion_tokens"):
            counts[key] = checked(usage.get(key, 0), key, int)
            if counts[key] < 0:
                raise ValueError(f"{key} must be non-negative, got {counts[key]}")
        try:
            choice = body["choices"][0]
            text = checked(choice["message"]["content"], "completion content", str)
        except (KeyError, IndexError, TypeError):
            raise EndpointError(f"malformed completion response: {str(body)[:200]}") from None
        tokens = values = None
        lp = choice.get("logprobs")
        if isinstance(lp, dict) and isinstance(lp.get("content"), list):
            tokens = [checked(item["token"], "logprob token", str) for item in lp["content"]]
            values = [checked(item["logprob"], "logprob", float) for item in lp["content"]]
    except (KeyError, TypeError):
        raise EndpointError("malformed logprobs in completion response") from None
    except ValueError as exc:
        raise EndpointError(f"malformed completion response: {str(exc)[:200]}") from None
    positive = [v for v in values or () if v > LOGPROB_TOLERANCE]
    if positive:
        raise EndpointError(
            f"malformed completion response: log-probability {positive[0]} is positive"
        )
    return text, tokens, values, counts


def _answer_span_logprobs(
    text: str, tokens: list[str], values: list[float]
) -> tuple[float, ...] | None:
    """Keep only the log-probabilities of tokens overlapping the committed
    answer content. Falls back to None when the span cannot be located or
    the token strings do not reassemble the text."""
    if "".join(tokens) != text:
        return None
    span = find_answer_span(text)
    if span is None:
        return None
    start, end = span
    kept = []
    offset = 0
    for token, value in zip(tokens, values):
        token_end = offset + len(token)
        if token_end > start and offset < end:
            kept.append(value)
        offset = token_end
    return tuple(kept) if kept else None


def generate_bundle(
    cfg: GenerationConfig, query: QueryTuple, counters: UsageCounters | None = None
) -> TraceBundle:
    """Generate one greedy trace plus cfg.k samples for a query.

    The greedy request carries temperature 0 and asks for token
    log-probabilities (unless disabled); sampled requests carry exactly
    cfg.sample_params, with seeds offset per sample when a seed is set.
    A greedy response missing log-probabilities is kept but flagged by the
    absence of token_logprobs.
    """
    if counters is None:
        counters = UsageCounters()
    text, tokens, values = _post_completion(
        cfg, _completion_payload(cfg, query, GREEDY_PARAMS, cfg.logprobs), counters
    )
    logprobs: tuple[float, ...] | None = None
    if values:
        logprobs = tuple(values)
        if cfg.ppl_span == "answer" and tokens is not None:
            sliced = _answer_span_logprobs(text, tokens, values)
            if sliced is None:
                log.warning(
                    "query %s: could not locate answer span in tokens; keeping full-trace "
                    "log-probabilities",
                    query.id,
                )
            else:
                logprobs = sliced
    elif cfg.logprobs:
        log.warning(
            "query %s: endpoint returned no log-probabilities for the greedy trace; "
            "perplexity will be unavailable",
            query.id,
        )
    greedy = ReasoningTrace(text, GREEDY_PARAMS, logprobs)

    samples = []
    for i in range(cfg.k):
        params = cfg.sample_params
        if params.seed is not None:
            params = replace(params, seed=params.seed + i)
        sample_text, _, sample_values = _post_completion(
            cfg, _completion_payload(cfg, query, params, False), counters
        )
        samples.append(
            ReasoningTrace(sample_text, params, tuple(sample_values) if sample_values else None)
        )
    return TraceBundle(query=query, greedy=greedy, samples=tuple(samples))


def in_order(fn: Callable[[Any], Any], items: Iterable, max_in_flight: int) -> Iterator:
    """fn of each item, yielded in input order, on at most max_in_flight
    threads of a pool made for this call. At most 4 * max_in_flight items
    are read ahead of the one yielded: one more is submitted as each result
    is taken. When the iterator ends or is closed, items not yet started
    are cancelled and the pool's threads are joined."""
    from concurrent.futures import ThreadPoolExecutor  # loaded only where threads run

    it = iter(items)
    pool = ThreadPoolExecutor(max_workers=max_in_flight)
    try:
        pending = deque(pool.submit(fn, item) for item in islice(it, 4 * max_in_flight))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, item) for item in islice(it, 1))
            yield result
    finally:
        pool.shutdown(cancel_futures=True)


def generate_dataset(
    cfg: GenerationConfig,
    queries: Iterable[QueryTuple],
    counters: UsageCounters | None = None,
) -> Iterator[tuple[QueryTuple, TraceBundle | None, str | None]]:
    """Generate bundles for a query stream with bounded concurrency.

    Yields (query, bundle, error) in input order; exactly one of bundle and
    error is set. At most cfg.max_in_flight requests are outstanding at any
    moment (each worker runs its query's requests sequentially).
    """
    if counters is None:
        counters = UsageCounters()

    def worker(query: QueryTuple):
        try:
            return query, generate_bundle(cfg, query, counters), None
        except EndpointError as exc:
            log.warning("query %s failed: %s", query.id, exc)
            return query, None, str(exc)

    yield from in_order(worker, queries, cfg.max_in_flight)


def sft_record(bundle: TraceBundle) -> dict:
    """Render one bundle as a supervised fine-tuning example.

    The user message is re-rendered through build_prompt, so exports match
    generation prompts byte for byte; the assistant turn is the greedy
    trace verbatim.
    """
    system, user = build_prompt(bundle.query)
    return {
        "messages": [
            {"role": "system", "content": system},
            {"role": "user", "content": user},
            {"role": "assistant", "content": bundle.greedy.text},
        ]
    }
