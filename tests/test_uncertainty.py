"""Uncertainty arithmetic and the dataset scoring loop."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curator.errors import (
    CuratorError,
    EmptyLogProbs,
    MissingScoreInputs,
    NoSamples,
    PositiveLogProb,
    UnparsedTrace,
)
from curator.model import MetricVariant
from curator.similarity import (
    AnswerAgreementProvider,
    LexicalCosineProvider,
    SimilarityProvider,
)
from curator.uncertainty import (
    LOGPROB_TOLERANCE,
    ScoreStats,
    cocoa,
    inconsistency,
    perplexity,
    score_bundle,
    score_dataset,
)

from helpers import DOWN, NONREG, UP, mk_bundle


class StubProvider(SimilarityProvider):
    """Returns canned similarities in call order."""

    name = "stub"

    def __init__(self, values):
        self.values = list(values)
        self.calls = []

    def score_many(self, pairs):
        self.calls.extend(pairs)
        return [self.values.pop(0) for _ in pairs]


class TestPerplexity:
    def test_half_probability_tokens(self):
        # two tokens at p=1/2: ppl = exp(mean(ln 2)) = 2
        assert perplexity((math.log(0.5), math.log(0.5))) == pytest.approx(2.0, rel=1e-12)

    def test_quarter_probability_token(self):
        assert perplexity((math.log(0.25),)) == pytest.approx(4.0, rel=1e-12)

    def test_certain_tokens_give_one(self):
        assert perplexity((0.0, 0.0, 0.0)) == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptyLogProbs):
            perplexity(())

    def test_overflow_is_a_curator_error(self):
        with pytest.raises(CuratorError, match="overflow"):
            perplexity((-800.0,))

    def test_positive_beyond_tolerance_raises(self):
        with pytest.raises(PositiveLogProb):
            perplexity((0.1,))

    def test_tiny_positive_clamped_to_zero(self):
        assert perplexity((LOGPROB_TOLERANCE,)) == 1.0

    @given(st.lists(st.floats(min_value=-20, max_value=0), min_size=1, max_size=60))
    def test_at_least_one_and_mean_based(self, lps):
        got = perplexity(tuple(lps))
        assert got >= 1.0
        assert got == pytest.approx(math.exp(-sum(lps) / len(lps)), rel=1e-12)

    @given(st.lists(st.floats(min_value=-10, max_value=-0.01), min_size=1, max_size=30))
    def test_repetition_invariance(self, lps):
        # ppl is a per-token mean: concatenating a sequence with itself is a no-op
        assert perplexity(tuple(lps * 2)) == pytest.approx(perplexity(tuple(lps)), rel=1e-9)


class TestInconsistency:
    def test_mean_of_one_minus_sim(self):
        bundle = mk_bundle(sample_labels=(UP, UP, DOWN))
        provider = StubProvider([1.0, 0.5, 0.0])
        assert inconsistency(bundle, provider) == pytest.approx(0.5)

    def test_greedy_is_first_argument(self):
        bundle = mk_bundle(sample_labels=(DOWN,))
        provider = StubProvider([0.3])
        inconsistency(bundle, provider)
        (call,) = provider.calls
        assert call[0] == bundle.greedy.text
        assert call[1] == bundle.samples[0].text

    def test_no_samples_raises(self):
        with pytest.raises(NoSamples):
            inconsistency(mk_bundle(sample_labels=()), StubProvider([]))

    def test_provider_outputs_clamped(self):
        bundle = mk_bundle(sample_labels=(UP, UP))
        assert inconsistency(bundle, StubProvider([1.4, -0.2])) == pytest.approx(0.5)


class TestCocoa:
    def test_twice_product(self):
        assert cocoa(0.25, 3.0) == pytest.approx(1.5, rel=1e-12)

    def test_zero_inconsistency_zeroes_cocoa(self):
        assert cocoa(0.0, 9.9) == 0.0

    def test_overflow_is_a_curator_error(self):
        with pytest.raises(CuratorError, match="overflow"):
            cocoa(1.0, 1e308)

    @pytest.mark.parametrize("inc,ppl", [(-0.1, 2.0), (1.1, 2.0), (0.5, 0.5)])
    def test_domain_checked(self, inc, ppl):
        with pytest.raises(ValueError):
            cocoa(inc, ppl)

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=1, max_value=100),
        st.floats(min_value=1.001, max_value=4.0),
    )
    def test_monotone_in_ppl(self, inc, ppl, factor):
        assert cocoa(inc, ppl * factor) >= cocoa(inc, ppl)


class TestScoreBundle:
    def test_full_triple(self):
        bundle = mk_bundle(
            sample_labels=(UP, DOWN), logprobs=(math.log(0.5), math.log(0.5))
        )
        scored = score_bundle(bundle, StubProvider([1.0, 0.0]))
        assert scored.scores.ppl == pytest.approx(2.0)
        assert scored.scores.inconsistency == pytest.approx(0.5)
        assert scored.scores.cocoa == pytest.approx(2.0)
        assert scored.predicted_label is UP

    def test_missing_logprobs_leaves_null_pair(self):
        scored = score_bundle(
            mk_bundle(logprobs=None), LexicalCosineProvider(), MetricVariant.CONSISTENCY
        )
        assert scored.scores.ppl is None and scored.scores.cocoa is None
        assert 0.0 <= scored.scores.inconsistency <= 1.0

    def test_missing_logprobs_refused_when_variant_needs_ppl(self):
        with pytest.raises(EmptyLogProbs):
            score_bundle(mk_bundle(logprobs=None), LexicalCosineProvider())

    def test_unparsed_greedy_raises(self):
        with pytest.raises(UnparsedTrace):
            score_bundle(mk_bundle(greedy_label=None), LexicalCosineProvider())

    def test_no_samples_raises(self):
        with pytest.raises(NoSamples):
            score_bundle(mk_bundle(sample_labels=()), LexicalCosineProvider())

    def test_score_for_tracks_variant(self):
        bundle = mk_bundle(sample_labels=(UP,), logprobs=(-1.0,))
        scored = score_bundle(bundle, StubProvider([0.25]))
        assert scored.score_for(MetricVariant.CONSISTENCY) == pytest.approx(0.75)
        assert scored.score_for(MetricVariant.PERPLEXITY) == pytest.approx(math.e)
        assert scored.score_for(MetricVariant.COCOA) == pytest.approx(1.5 * math.e)


class TestScoreDataset:
    def bundles(self):
        return [
            mk_bundle(0, greedy_label=UP, sample_labels=(UP, UP)),
            mk_bundle(1, greedy_label=None),  # unparseable -> rejected
            mk_bundle(2, greedy_label=DOWN, sample_labels=(DOWN,)),
            mk_bundle(3, greedy_label=NONREG, sample_labels=()),  # no samples -> rejected
        ]

    def test_rejects_tallied_and_skipped(self):
        stats = ScoreStats()
        out = list(score_dataset(self.bundles(), LexicalCosineProvider(), stats=stats))
        assert [s.bundle.query.id for s in out] == ["q-0000", "q-0002"]
        assert stats.rejected == 2

    def test_missing_logprobs_fatal_for_cocoa(self):
        bundles = [
            mk_bundle(0),
            mk_bundle(1, logprobs=None),
            mk_bundle(2, logprobs=None),
        ]
        with pytest.raises(MissingScoreInputs) as err:
            list(score_dataset(bundles, LexicalCosineProvider()))
        assert "q-0001" in str(err.value) and "q-0002" in str(err.value)

    def test_missing_logprobs_fine_for_consistency(self):
        bundles = [mk_bundle(0, logprobs=None)]
        out = list(
            score_dataset(bundles, LexicalCosineProvider(), variant=MetricVariant.CONSISTENCY)
        )
        assert len(out) == 1 and out[0].scores.ppl is None

    def test_stream_yields_before_failing(self):
        # scoreable examples still come through; the error arrives at the end
        bundles = [mk_bundle(0), mk_bundle(1, logprobs=None), mk_bundle(2)]
        seen = []
        gen = score_dataset(bundles, LexicalCosineProvider())
        with pytest.raises(MissingScoreInputs):
            for item in gen:
                seen.append(item.bundle.query.id)
        assert seen == ["q-0000", "q-0002"]

    def test_answer_provider_refusal_names_its_bundle(self):
        bundles = [
            mk_bundle(0, sample_labels=(UP, UP)),
            mk_bundle(1, sample_labels=(UP, None)),  # unparsed sample
            mk_bundle(2, sample_labels=(DOWN,)),
        ]
        seen = []
        with pytest.raises(MissingScoreInputs) as err:
            for ex in score_dataset(bundles, AnswerAgreementProvider()):
                seen.append(ex.bundle.query.id)
        assert seen == ["q-0000", "q-0002"]
        assert err.value.ids == ["q-0001"]

    def test_window_size_does_not_change_output(self):
        bundles = [mk_bundle(i, sample_labels=(UP, DOWN, UP)) for i in range(40)]
        one = list(score_dataset(bundles, LexicalCosineProvider()))
        for window_pairs in (2, 3, 7, 1000):
            provider = WindowedLexical(window_pairs)
            assert list(score_dataset(bundles, provider)) == one

    def test_windows_hold_whole_scoreable_bundles(self):
        bundles = [
            mk_bundle(0, sample_labels=(UP, UP, UP)),
            mk_bundle(1, greedy_label=None),  # rejected, never sent
            mk_bundle(2, sample_labels=(UP, DOWN)),
            mk_bundle(3, logprobs=None),  # missing logprobs, never sent
            mk_bundle(4, sample_labels=(DOWN,)),
            mk_bundle(5, sample_labels=(UP, UP, UP, UP)),
        ]
        provider = WindowedLexical(4)
        with pytest.raises(MissingScoreInputs):
            list(score_dataset(bundles, provider))
        # 3 + 2 pairs reach the window; 1 + 4 do too; nothing is left over
        assert provider.call_sizes == [5, 5]


class WindowedLexical(LexicalCosineProvider):
    """Lexical cosine asking for a given window, recording each call's size."""

    def __init__(self, window_pairs):
        self.window_pairs = window_pairs
        self.call_sizes = []

    def score_many(self, pairs):
        self.call_sizes.append(len(pairs))
        return super().score_many(pairs)
