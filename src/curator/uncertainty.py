"""Uncertainty scoring for trace bundles.

Three signals, all oriented so that higher means more uncertain:

- perplexity: exp of the token-mean negative log-likelihood of the greedy
  trace, over all of its generated tokens (natural log)
- inconsistency: mean dissimilarity (1 - sim) between the greedy trace and
  each sampled trace, similarity order fixed as sim(greedy, sample)
- cocoa: 2 * inconsistency * perplexity, the hybrid used for curation

A metric variant selects which signal later ranks examples; the other
signals are still recorded when their inputs exist so scored files stay
complete.

score_dataset holds the rules for rejected, missing and failing bundles.
The `score` command with a local provider (lexical, answer) runs it on
one bundle at a time in worker processes, one per usable CPU and with no
setting (curator.score_workers), and writes the same bytes as running it
over the whole stream in one process; the remote provider scores in the
one process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, fsum, isinf
from typing import Iterable, Iterator, Sequence

from .errors import CuratorError, EmptyLogProbs, MissingScoreInputs, UnparsedTrace
from .model import (
    LOGPROB_TOLERANCE,
    MetricVariant,
    ParseStatus,
    ScoredExample,
    TraceBundle,
    UncertaintyScores,
)
from .similarity import SimilarityProvider


def perplexity(logprobs: Sequence[float]) -> float:
    """exp(-mean(logprobs)) over every generated token.

    Raises EmptyLogProbs on an empty sequence, and CuratorError when any
    value exceeds zero beyond tolerance or the result overflows a float.
    The result is always >= 1.
    """
    if not logprobs:
        raise EmptyLogProbs("perplexity needs at least one token log-probability")
    top = max(logprobs)
    if top > LOGPROB_TOLERANCE:  # name the first positive value
        for v in logprobs:
            if v > LOGPROB_TOLERANCE:
                raise CuratorError(f"log-probability {v} is positive")
    n = len(logprobs)
    try:
        # clamping changes the sum only when some value is above 0.0
        total = fsum(logprobs) if top <= 0.0 else fsum(min(v, 0.0) for v in logprobs)
        return exp(-(total / n))
    except OverflowError:  # exp's, or fsum's when the sum is beyond a float
        mean = fsum(min(v, 0.0) / n for v in logprobs)
        raise CuratorError(
            f"perplexity overflows a float: mean token log-probability {mean:g} is too low"
        ) from None


def inconsistency(bundle: TraceBundle, provider: SimilarityProvider) -> float:
    """Mean of (1 - sim(greedy, sample)) over the bundle's samples.

    The greedy trace is always the first argument to the provider. The
    result is clamped to [0, 1].
    """
    if bundle.k == 0:
        raise CuratorError(f"bundle {bundle.query.id} has no sampled traces")
    return _mean_dissimilarity(provider.score_many(_pairs(bundle)), bundle.k)


def _pairs(bundle: TraceBundle) -> list[tuple[str, str]]:
    return [(bundle.greedy.text, s.text) for s in bundle.samples]


def _mean_dissimilarity(sims: Sequence[float], k: int) -> float:
    dissim = [1.0 - min(1.0, max(0.0, s)) for s in sims]
    return min(1.0, max(0.0, fsum(dissim) / k))


def cocoa(inconsistency_value: float, ppl: float) -> float:
    """Hybrid uncertainty: 2 * inconsistency * perplexity; CuratorError
    when that overflows a float. UncertaintyScores checks the ranges."""
    value = 2.0 * inconsistency_value * ppl
    if isinf(value):
        raise CuratorError(f"cocoa overflows a float: perplexity {ppl:g} is too high")
    return value


def score_bundle(
    bundle: TraceBundle,
    provider: SimilarityProvider,
    variant: MetricVariant = MetricVariant.COCOA,
) -> ScoredExample:
    """Score one bundle under the given metric variant.

    The bundle must be scoreable (k >= 1, greedy answer parsed). Perplexity
    is computed whenever log-probabilities exist but is only required when
    the variant ranks by it.
    """
    ppl = _checked_perplexity(bundle, variant)
    return _scored(bundle, ppl, provider.score_many(_pairs(bundle)))


def _checked_perplexity(bundle: TraceBundle, variant: MetricVariant) -> float | None:
    """Perplexity, or None when absent and not needed; raises if unscoreable."""
    if bundle.greedy.parse_status is not ParseStatus.OK:
        raise UnparsedTrace(f"bundle {bundle.query.id} has no parsed greedy answer")
    if bundle.k == 0:
        raise CuratorError(f"bundle {bundle.query.id} has no sampled traces")
    logprobs = bundle.greedy.token_logprobs
    if not logprobs and variant in (MetricVariant.COCOA, MetricVariant.PERPLEXITY):
        raise EmptyLogProbs(
            f"bundle {bundle.query.id} lacks token log-probabilities required by {variant.value}"
        )
    try:
        return perplexity(logprobs) if logprobs else None
    except CuratorError as exc:  # say which row to fix
        raise type(exc)(f"bundle {bundle.query.id}: {exc}") from None


def _scored(bundle: TraceBundle, ppl: float | None, sims: Sequence[float]) -> ScoredExample:
    inc = _mean_dissimilarity(sims, bundle.k)
    try:
        hybrid = None if ppl is None else cocoa(inc, ppl)
    except CuratorError as exc:
        raise CuratorError(f"bundle {bundle.query.id}: {exc}") from None
    return ScoredExample(
        bundle=bundle,
        scores=UncertaintyScores(ppl=ppl, inconsistency=inc, cocoa=hybrid),
    )


@dataclass
class ScoreStats:
    """What scoring a dataset stream set aside: the number of bundles
    rejected as unscoreable, and the ids of scoreable bundles that lack an
    input the variant requires, with the reasons."""

    rejected: int = 0
    missing: list[str] = field(default_factory=list)
    reasons: set[str] = field(default_factory=set)

    def add_missing(self, ids: Iterable[str], reason: str) -> None:
        self.missing.extend(ids)
        self.reasons.add(reason)

    def raise_missing(self) -> None:
        """MissingScoreInputs naming every missing id, if there is one."""
        if self.missing:
            raise MissingScoreInputs(self.missing, "; ".join(sorted(self.reasons)))


def score_dataset(
    bundles: Iterable[TraceBundle],
    provider: SimilarityProvider,
    variant: MetricVariant = MetricVariant.COCOA,
    stats: ScoreStats | None = None,
) -> Iterator[ScoredExample]:
    """Score a bundle stream, preserving input order.

    Bundles that are not scoreable (no samples, or an unparsed greedy
    answer) are skipped and tallied as rejected in stats. Bundles that are
    scoreable but lack inputs the variant requires abort the run at the end
    of the stream with MissingScoreInputs listing the offending query ids.

    Scoreable bundles are gathered into windows of at least
    provider.window_pairs (greedy, sample) pairs, or the stream's tail, and
    each window is one score_many call. Only one window's bundles are held
    at a time, and the window size never changes the output.
    """
    if stats is None:
        stats = ScoreStats()

    def flush(window: list[tuple[TraceBundle, float | None]]) -> Iterator[ScoredExample]:
        try:
            sims = provider.score_many([p for bundle, _ in window for p in _pairs(bundle)])
        except UnparsedTrace as exc:
            # answer agreement refuses unparsed samples; it scores one bundle
            # per window, so the refusal names exactly that bundle
            stats.add_missing([bundle.query.id for bundle, _ in window], str(exc))
            return
        start = 0
        for bundle, ppl in window:
            yield _scored(bundle, ppl, sims[start : start + bundle.k])
            start += bundle.k

    window: list[tuple[TraceBundle, float | None]] = []
    n_pairs = 0
    for bundle in bundles:
        if not bundle.scoreable:
            stats.rejected += 1
            continue
        try:
            window.append((bundle, _checked_perplexity(bundle, variant)))
        except EmptyLogProbs as exc:
            stats.add_missing([bundle.query.id], str(exc))
            continue
        n_pairs += bundle.k
        if n_pairs >= provider.window_pairs:
            yield from flush(window)
            window, n_pairs = [], 0
    if window:
        yield from flush(window)
    stats.raise_missing()
