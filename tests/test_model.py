"""Core domain objects: labels, answer extraction, traces, bundles, scores."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curator.model import (
    DEFAULT_SAMPLE_PARAMS,
    GREEDY_PARAMS,
    LABEL_ORDER,
    ClassLabel,
    MetricVariant,
    ParseStatus,
    QueryTuple,
    ReasoningTrace,
    SamplingParams,
    TraceBundle,
    UncertaintyScores,
    extract_answer,
    find_answer_span,
    parse_class_label,
)

from helpers import DOWN, NONREG, UP, mk_bundle, mk_query, trace_text


class TestClassLabel:
    def test_canonical_values(self):
        assert UP.value == "upregulated"
        assert DOWN.value == "downregulated"
        assert NONREG.value == "not differentially expressed"

    def test_label_order_is_up_down_nonreg(self):
        assert LABEL_ORDER == (UP, DOWN, NONREG)

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("upregulated", UP),
            ("downregulated", DOWN),
            ("not differentially expressed", NONREG),
            ("up", UP),
            ("down", DOWN),
            ("non-regulated", NONREG),
            ("nonregulated", NONREG),
            ("  Upregulated \n", UP),
            ("NOT   differentially\texpressed", NONREG),
        ],
    )
    def test_parse_accepts(self, raw, expected):
        assert parse_class_label(raw) is expected

    @pytest.mark.parametrize("raw", ["", "sideways", "upregulated!", "up regulated", "none"])
    def test_parse_rejects(self, raw):
        with pytest.raises(ValueError, match="not a class label"):
            parse_class_label(raw)

    def test_parse_then_serialize_is_identity(self):
        for label in LABEL_ORDER:
            assert parse_class_label(label.value) is label


class TestAnswerExtraction:
    # (text, expected label, expected status) — worked out by hand
    CASES = [
        ("<answer>upregulated</answer>", UP, ParseStatus.OK),
        ("<think>x</think><answer> down </answer>", DOWN, ParseStatus.OK),
        ("no tags at all", None, ParseStatus.MISSING_ANSWER_TAG),
        ("<answer>upregulated", None, ParseStatus.MISSING_ANSWER_TAG),
        ("upregulated</answer>", None, ParseStatus.MISSING_ANSWER_TAG),
        ("<answer>gibberish</answer>", None, ParseStatus.UNKNOWN_ANSWER_STRING),
        ("<answer></answer>", None, ParseStatus.UNKNOWN_ANSWER_STRING),
        # the last well-formed span wins
        (
            "<answer>upregulated</answer> then <answer>downregulated</answer>",
            DOWN,
            ParseStatus.OK,
        ),
        # trailing unclosed tag: fall back to the last closed one
        (
            "<answer>downregulated</answer><answer>oops",
            DOWN,
            ParseStatus.OK,
        ),
        # nested opener inside a span: inner-most close pairs the right-most open
        ("<answer><answer>up</answer>", UP, ParseStatus.OK),
        ("<answer>not differentially expressed</answer> trailing prose", NONREG, ParseStatus.OK),
    ]

    @pytest.mark.parametrize("text,label,status", CASES)
    def test_oracle_table(self, text, label, status):
        assert extract_answer(text) == (label, status)

    def test_span_offsets_point_at_content(self):
        text = "<think>t</think><answer>up</answer>"
        start, end = find_answer_span(text)
        assert text[start:end] == "up"

    def test_span_none_when_unclosed(self):
        assert find_answer_span("<answer>up") is None

    @given(st.text(max_size=300))
    def test_total_on_arbitrary_text(self, text):
        label, status = extract_answer(text)
        assert (label is not None) == (status is ParseStatus.OK)
        assert status in ParseStatus

    @given(st.sampled_from(LABEL_ORDER), st.text(max_size=80))
    def test_roundtrips_any_label(self, label, prefix):
        text = prefix.replace("<answer>", "") + f"<answer>{label.value}</answer>"
        got, status = extract_answer(text)
        assert status is ParseStatus.OK
        assert got is label


class TestSamplingParams:
    def test_greedy_constant(self):
        assert GREEDY_PARAMS.temperature == 0.0
        assert GREEDY_PARAMS.is_greedy

    def test_default_sample_params(self):
        assert DEFAULT_SAMPLE_PARAMS.temperature == 1.0
        assert DEFAULT_SAMPLE_PARAMS.top_p == 1.0
        assert DEFAULT_SAMPLE_PARAMS.top_k == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": -0.1},
            {"temperature": 1.0, "top_p": 0.0},
            {"temperature": 1.0, "top_p": 1.5},
            {"temperature": 1.0, "top_k": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SamplingParams(**kwargs)


class TestTraces:
    def test_trace_derives_answer(self):
        trace = ReasoningTrace(trace_text(UP), GREEDY_PARAMS, (-0.5,))
        assert trace.answer is UP
        assert trace.parse_status is ParseStatus.OK
        assert trace.token_logprobs == (-0.5,)

    def test_trace_unparsed(self):
        trace = ReasoningTrace("no commitment", DEFAULT_SAMPLE_PARAMS)
        assert trace.answer is None
        assert trace.parse_status is ParseStatus.MISSING_ANSWER_TAG

    def test_text_is_the_only_source_of_the_answer(self):
        trace = ReasoningTrace(trace_text(UP), GREEDY_PARAMS)
        assert (trace.answer, trace.parse_status) == (UP, ParseStatus.OK)
        with pytest.raises(TypeError):
            ReasoningTrace(trace_text(UP), GREEDY_PARAMS, answer=DOWN)
        with pytest.raises(TypeError):
            ReasoningTrace("no commitment", GREEDY_PARAMS, parse_status=ParseStatus.OK)

    def test_logprobs_coerced_to_tuple(self):
        trace = ReasoningTrace(trace_text(UP), GREEDY_PARAMS, [-0.1, -0.2])
        assert isinstance(trace.token_logprobs, tuple)


class TestQueryTuple:
    def test_requires_nonempty_fields(self):
        with pytest.raises(ValueError):
            QueryTuple(id="", cell_type="K562", perturbation="P", gene="G")
        with pytest.raises(ValueError):
            QueryTuple(id="q", cell_type="K562", perturbation="", gene="G")

    def test_gold_optional(self):
        assert mk_query(1).gold_label is None
        assert mk_query(1, gold=DOWN).gold_label is DOWN


class TestTraceBundle:
    def test_greedy_must_be_greedy(self):
        sampled = ReasoningTrace(trace_text(UP), DEFAULT_SAMPLE_PARAMS)
        with pytest.raises(ValueError):
            TraceBundle(query=mk_query(), greedy=sampled, samples=())

    def test_k_counts_samples(self):
        assert mk_bundle(sample_labels=(UP, UP, DOWN)).k == 3
        assert mk_bundle(sample_labels=()).k == 0

    def test_scoreable_needs_parsed_greedy_and_samples(self):
        assert mk_bundle().scoreable
        assert not mk_bundle(greedy_label=None).scoreable
        assert not mk_bundle(sample_labels=()).scoreable


class TestUncertaintyScores:
    def test_product_invariant_enforced(self):
        with pytest.raises(ValueError):
            UncertaintyScores(ppl=2.0, inconsistency=0.5, cocoa=1.0)  # should be 2.0

    def test_ppl_and_cocoa_absent_together(self):
        scores = UncertaintyScores(ppl=None, inconsistency=0.25, cocoa=None)
        assert scores.ppl is None and scores.cocoa is None
        with pytest.raises(ValueError):
            UncertaintyScores(ppl=None, inconsistency=0.25, cocoa=1.0)
        with pytest.raises(ValueError):
            UncertaintyScores(ppl=2.0, inconsistency=0.25, cocoa=None)

    def test_ppl_at_least_one(self):
        with pytest.raises(ValueError):
            UncertaintyScores(ppl=0.5, inconsistency=0.5, cocoa=0.5)

    def test_inconsistency_bounds(self):
        for inc in (1.2, -0.1):
            with pytest.raises(ValueError):
                UncertaintyScores(ppl=None, inconsistency=inc, cocoa=None)

    def test_value_for_each_variant(self):
        scores = UncertaintyScores(ppl=3.0, inconsistency=0.5, cocoa=3.0)
        assert scores.value_for(MetricVariant.COCOA) == 3.0
        assert scores.value_for(MetricVariant.PERPLEXITY) == 3.0
        assert scores.value_for(MetricVariant.CONSISTENCY) == 0.5

    @given(
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_any_consistent_triple_accepted(self, ppl, inc):
        scores = UncertaintyScores(ppl=ppl, inconsistency=inc, cocoa=2.0 * inc * ppl)
        assert math.isclose(scores.cocoa, 2.0 * inc * ppl, rel_tol=1e-9, abs_tol=1e-12)
