"""Trace-to-trace similarity providers feeding the consistency signal.

Three interchangeable providers, all returning scores in [0, 1]:

- lexical: term-frequency cosine over word tokens (offline default, no
  dependencies)
- answer: 1.0 when two traces commit to the same parsed answer, else 0.0
- remote: batched HTTP cross-encoder behind a tiny JSON protocol
  (POST {base_url}/score with {"pairs": [[a, b], ...]} returning
  {"scores": [...]}); out-of-range scores are clamped, non-finite scores
  and length mismatches refused

A provider's `window_pairs` is how many pairs it wants per `score_many`
call; `uncertainty.score_dataset` packs whole bundles up to that size.

Scores are not assumed symmetric; callers decide argument order.

A lexical token is a maximal run of letters and digits after lowercasing,
so `_`, punctuation and whitespace all split. ASCII text, the common
case, is tokenised by one translate table (letters lowered, digits kept,
every other character a space) and `str.split`, which yields exactly the
tokens of the regex `[^\\W_]+` on the lowered text; other text goes
through that regex. Both yield `str` tokens, so an ASCII and a non-ASCII
text share their common words.
"""

from __future__ import annotations

import re
import threading
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from math import sqrt
from operator import mul
from typing import Sequence

from .errors import EndpointError, UnparsedTrace
from .llm_client import check_endpoint, in_order, post_json
from .model import ClassLabel, ParseStatus, checked, extract_answer


class SimilarityProvider:
    """score_many(pairs) -> one similarity in [0, 1] per (a, b) pair, in
    pair order."""

    name = "abstract"
    #: pairs per score_many call that score_dataset aims for; at least one
    #: whole bundle is always sent
    window_pairs = 1

    def score_many(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        raise NotImplementedError


_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)
#: _WORD_RE after lower() on ASCII text, as a translate table for str.split
_ASCII_WORDS = str.maketrans({chr(c): chr(c).lower() if chr(c).isalnum() else " "
                              for c in range(128)})


def _tf_vector(text: str) -> tuple[Counter, float]:
    if text.isascii():
        counts = Counter(text.translate(_ASCII_WORDS).split())
    else:
        counts = Counter(_WORD_RE.findall(text.lower()))
    return counts, sqrt(sum(map(mul, counts.values(), counts.values())))


def _cosine(va: tuple[Counter, float], vb: tuple[Counter, float]) -> float:
    """Cosine similarity of two texts' term-frequency vectors (`_tf_vector`).
    Two empty token vectors are identical (1.0); empty versus non-empty
    shares nothing (0.0)."""
    (ta, na), (tb, nb) = va, vb
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    if len(tb) < len(ta):
        ta, tb = tb, ta
    # counts are integers, so the dot product is exact in any order
    dot = sum(map(mul, ta.values(), map(tb.get, ta, repeat(0))))
    return min(1.0, max(0.0, dot / (na * nb)))


class LexicalCosineProvider(SimilarityProvider):
    name = "lexical"

    def score_many(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        # a bundle's greedy text is in every one of its pairs: each distinct
        # text is tokenised once per call, and no vector outlives the call
        vectors = {text: _tf_vector(text) for text in {t for pair in pairs for t in pair}}
        return [_cosine(vectors[a], vectors[b]) for a, b in pairs]


def _parsed_answer(text: str) -> ClassLabel:
    label, status = extract_answer(text)
    if status is not ParseStatus.OK:
        raise UnparsedTrace("answer agreement needs parseable answers on both texts")
    return label


class AnswerAgreementProvider(SimilarityProvider):
    """Agreement of the final committed answers, parsed from raw text."""

    name = "answer"

    def score_many(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        return [1.0 if _parsed_answer(a) == _parsed_answer(b) else 0.0 for a, b in pairs]


@dataclass(frozen=True)
class RemoteScorerConfig:
    base_url: str
    api_key: str | None = None
    timeout: float = 30.0
    max_retries: int = 3
    max_batch: int = 32
    max_in_flight: int = 8

    def __post_init__(self):
        check_endpoint(vars(self))


def _parse_score_response(body, expected: int) -> list[float]:
    if not isinstance(body, dict) or "scores" not in body:
        raise EndpointError("scorer response has no 'scores' field")
    scores = body["scores"]
    if not isinstance(scores, list):
        raise EndpointError("scorer 'scores' is not a list")
    if len(scores) != expected:
        raise EndpointError(
            f"scorer returned {len(scores)} scores for {expected} pairs; refusing to truncate"
        )
    try:
        return [min(1.0, max(0.0, checked(v, "score", float))) for v in scores]
    except ValueError as exc:
        raise EndpointError(f"scorer returned a non-finite or non-numeric score: "
                            f"{str(exc)[:200]}") from None


class RemoteScorerProvider(SimilarityProvider):
    """Remote cross-encoder. Each score_many call is cut into max_batch-pair
    requests, run through llm_client.in_order, so no thread outlives the
    call. Each request, retries included, holds one of max_in_flight
    slots the provider owns, so the cap holds across every thread sharing
    the provider."""

    name = "remote"

    def __init__(self, cfg: RemoteScorerConfig):
        self.cfg = cfg
        self.window_pairs = cfg.max_batch * cfg.max_in_flight
        self._slots = threading.BoundedSemaphore(cfg.max_in_flight)

    def _score_chunk(self, chunk: Sequence[tuple[str, str]]) -> list[float]:
        """One scoring request, retried under llm_client.post_json's policy."""
        cfg = self.cfg
        with self._slots:
            body = post_json(cfg.base_url.rstrip("/") + "/score",
                             {"pairs": [[a, b] for a, b in chunk]}, api_key=cfg.api_key,
                             timeout=cfg.timeout, max_retries=cfg.max_retries, service="scorer")
        return _parse_score_response(body, len(chunk))

    def score_many(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        size = self.cfg.max_batch
        chunks = [pairs[i : i + size] for i in range(0, len(pairs), size)]
        out: list[float] = []
        for scores in in_order(self._score_chunk, chunks, self.cfg.max_in_flight):
            out.extend(scores)
        return out


#: The providers by the name the config and the CLI give them, in the
#: order error messages list them.
PROVIDERS = {
    p.name: p for p in (LexicalCosineProvider, AnswerAgreementProvider, RemoteScorerProvider)
}


def get_provider(name: str, scorer_cfg: RemoteScorerConfig | None = None) -> SimilarityProvider:
    """Look up a provider by its PROVIDERS name."""
    if name not in PROVIDERS:
        raise ValueError(f"unknown similarity provider {name!r}")
    if name != RemoteScorerProvider.name:
        return PROVIDERS[name]()
    if scorer_cfg is None:
        raise ValueError("remote provider needs a scorer config")
    return RemoteScorerProvider(scorer_cfg)
