"""Synthetic dataset generator: determinism, stream independence, knob semantics."""

import math
from statistics import fmean, pstdev

import pytest

from curator.errors import InvalidConfig
from curator.model import ClassLabel, LABEL_ORDER, ParseStatus, extract_answer
from curator.simulate import SIM_PRNG, SimConfig, _substream, simulate_bundle, simulate_dataset
from helpers import DOWN, NONREG, UP, write_jsonl


def dump(cfg: SimConfig, out) -> bytes:
    write_jsonl(str(out), simulate_dataset(cfg))
    return out.read_bytes()


def prior(up: float, down: float, nonreg: float) -> dict:
    return {UP: up, DOWN: down, NONREG: nonreg}


def scale(up: float = 1.0, down: float = 1.0, nonreg: float = 1.0) -> dict:
    return {UP: up, DOWN: down, NONREG: nonreg}


def test_prng_scheme_name_is_frozen():
    assert SIM_PRNG == "mt19937-per-example-substreams"


# --- determinism ---


def test_same_config_is_byte_identical(tmp_path):
    cfg = SimConfig(n_examples=60, k=4, seed=123)
    assert dump(cfg, tmp_path / "a") == dump(cfg, tmp_path / "b")


def test_different_seeds_differ(tmp_path):
    a = SimConfig(n_examples=20, seed=1)
    b = SimConfig(n_examples=20, seed=2)
    assert dump(a, tmp_path / "a") != dump(b, tmp_path / "b")


def test_bundle_depends_only_on_config_and_index():
    # Example i must not care how many examples surround it.
    cfg = SimConfig(n_examples=50, k=3, seed=9)
    streamed = list(simulate_dataset(cfg))
    for i in (0, 7, 49):
        assert simulate_bundle(cfg, i) == streamed[i]


def test_distinct_pairs_draw_distinct_streams():
    # a key packed as (seed << 64) | index would give these two one stream
    assert _substream(1, 0).random() != _substream(0, 2**64).random()
    assert len({_substream(s, i).random() for s in range(20) for i in range(20)}) == 400


def test_adjacent_indices_are_not_correlated():
    cfg = SimConfig(n_examples=2, seed=0)
    a, b = simulate_dataset(cfg)
    assert a.query.id != b.query.id
    assert a.greedy.token_logprobs != b.greedy.token_logprobs


# --- query scaffolding ---


def test_query_fields_follow_index():
    q = simulate_bundle(SimConfig(n_examples=10, seed=0), 7).query
    assert q.id == "sim-000007"
    assert q.cell_type == "C2"
    assert q.perturbation == "P7"
    assert q.gene == "G7"
    assert q.gold_label in LABEL_ORDER


def test_every_trace_parses_and_is_scoreable():
    for bundle in simulate_dataset(SimConfig(n_examples=40, k=5, seed=3)):
        assert bundle.scoreable
        assert extract_answer(bundle.greedy.text) == (bundle.greedy.answer, ParseStatus.OK)
        for s in bundle.samples:
            assert s.answer is not None


def test_sample_count_matches_k():
    for k in (1, 2, 8):
        bundle = simulate_bundle(SimConfig(n_examples=1, k=k), 0)
        assert len(bundle.samples) == k


def test_sampling_params_are_the_canonical_ones():
    bundle = simulate_bundle(SimConfig(n_examples=1), 0)
    assert bundle.greedy.sampling.temperature == 0.0
    assert bundle.greedy.token_logprobs is not None
    for s in bundle.samples:
        assert (s.sampling.temperature, s.sampling.top_p, s.sampling.top_k) == (1.0, 1.0, 50)
        assert s.token_logprobs is None


# --- fabricated logprobs ---


def test_logprob_length_and_sign():
    cfg = SimConfig(n_examples=15, trace_tokens=17, seed=5)
    for bundle in simulate_dataset(cfg):
        lp = bundle.greedy.token_logprobs
        assert len(lp) == 17
        assert all(v < 0 for v in lp)


def test_zero_gain_pins_token_mean_nll_to_base():
    # With no difficulty coupling the mean NLL is exactly the base rate.
    cfg = SimConfig(n_examples=25, perplexity_base=0.7, perplexity_gain=0.0, seed=11)
    for bundle in simulate_dataset(cfg):
        assert -fmean(bundle.greedy.token_logprobs) == pytest.approx(0.7, rel=1e-12)


def test_perplexity_grows_with_gain():
    lo = SimConfig(n_examples=30, perplexity_gain=0.0, seed=4)
    hi = SimConfig(n_examples=30, perplexity_gain=5.0, seed=4)
    mean_lo = fmean([-fmean(b.greedy.token_logprobs) for b in simulate_dataset(lo)])
    mean_hi = fmean([-fmean(b.greedy.token_logprobs) for b in simulate_dataset(hi)])
    assert mean_hi > mean_lo


# --- calibration / agreement knobs ---


def test_zero_calibration_means_greedy_always_correct():
    cfg = SimConfig(n_examples=80, calibration=0.0, seed=2)
    for bundle in simulate_dataset(cfg):
        assert bundle.greedy.answer == bundle.query.gold_label


def test_positive_calibration_produces_errors():
    cfg = SimConfig(n_examples=300, calibration=1.5, seed=2)
    wrong = sum(
        b.greedy.answer != b.query.gold_label for b in simulate_dataset(cfg)
    )
    assert wrong > 0


def test_zero_agreement_gain_means_unanimous_samples():
    cfg = SimConfig(n_examples=60, k=6, agreement_gain=0.0, seed=7)
    for bundle in simulate_dataset(cfg):
        assert all(s.answer == bundle.greedy.answer for s in bundle.samples)


def test_large_agreement_gain_produces_dissent():
    cfg = SimConfig(n_examples=60, k=6, agreement_gain=3.0, seed=7)
    dissent = sum(
        s.answer != b.greedy.answer
        for b in simulate_dataset(cfg)
        for s in b.samples
    )
    assert dissent > 0


def test_class_prior_is_respected():
    n = 3000
    cfg = SimConfig(n_examples=n, class_prior=prior(0.5, 0.25, 0.25), seed=13)
    counts = {label: 0 for label in LABEL_ORDER}
    for bundle in simulate_dataset(cfg):
        counts[bundle.query.gold_label] += 1
    # ~5.5 sigma slack on a binomial draw: flaky odds are negligible.
    assert abs(counts[UP] - 1500) < 150
    assert abs(counts[DOWN] - 750) < 150


def test_degenerate_prior_yields_one_class():
    cfg = SimConfig(n_examples=50, class_prior=prior(0.0, 0.0, 1.0), seed=1)
    assert all(b.query.gold_label is NONREG for b in simulate_dataset(cfg))


# --- class_scale keys on the asserted label, not the gold one ---


def test_class_scale_follows_the_predicted_label():
    base = SimConfig(n_examples=400, calibration=1.2, seed=21)
    scaled = SimConfig(n_examples=400, calibration=1.2, seed=21, class_scale=scale(up=3.0))
    seen_gold_up_pred_other = 0
    seen_gold_other_pred_up = 0
    for a, b in zip(simulate_dataset(base), simulate_dataset(scaled)):
        # The scale knob never touches the label draws themselves.
        assert a.greedy.answer == b.greedy.answer
        assert a.query.gold_label == b.query.gold_label
        pred, gold = a.greedy.answer, a.query.gold_label
        if pred is UP:
            assert -fmean(b.greedy.token_logprobs) > -fmean(a.greedy.token_logprobs)
            if gold is not UP:
                seen_gold_other_pred_up += 1
        else:
            assert b.greedy.token_logprobs == a.greedy.token_logprobs
            if gold is UP:
                seen_gold_up_pred_other += 1
    # Both disagreement quadrants must actually occur for this test to bite.
    assert seen_gold_up_pred_other > 0
    assert seen_gold_other_pred_up > 0


def test_scaled_class_mean_nll_scales_exactly():
    base = SimConfig(n_examples=100, perplexity_base=0.5, perplexity_gain=1.0, seed=8)
    tripled = SimConfig(
        n_examples=100,
        perplexity_base=0.5,
        perplexity_gain=1.0,
        seed=8,
        class_scale=scale(up=3.0),
    )
    for a, b in zip(simulate_dataset(base), simulate_dataset(tripled)):
        if a.greedy.answer is not UP:
            continue
        excess_a = -fmean(a.greedy.token_logprobs) - 0.5
        excess_b = -fmean(b.greedy.token_logprobs) - 0.5
        assert excess_b == pytest.approx(3.0 * excess_a, rel=1e-9)


# --- independent noise ---


def test_independent_noise_changes_the_stream(tmp_path):
    tied = SimConfig(n_examples=30, seed=6, independent_noise=False)
    split = SimConfig(n_examples=30, seed=6, independent_noise=True)
    assert dump(tied, tmp_path / "a") != dump(split, tmp_path / "b")


def test_independent_noise_decouples_fluency_from_answers():
    # With tied noise, zero answer difficulty would force zero excess NLL;
    # independent noise keeps the fluency draw alive even for easy answers.
    cfg = SimConfig(
        n_examples=500,
        seed=6,
        independent_noise=True,
        calibration=0.0,
        agreement_gain=0.0,
        perplexity_base=0.05,
        perplexity_gain=2.0,
    )
    excesses = [-fmean(b.greedy.token_logprobs) - 0.05 for b in simulate_dataset(cfg)]
    assert pstdev(excesses) > 0.1


def test_independent_noise_still_deterministic(tmp_path):
    cfg = SimConfig(n_examples=25, seed=17, independent_noise=True)
    assert dump(cfg, tmp_path / "a") == dump(cfg, tmp_path / "b")


# --- validation ---


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_examples": -1},
        {"n_examples": 1, "k": 0},
        {"n_examples": 1, "calibration": -0.1},
        {"n_examples": 1, "class_prior": {UP: 0.5, DOWN: 0.5}},
        {"n_examples": 1, "class_prior": prior(0.5, 0.6, -0.1)},
        {"n_examples": 1, "class_prior": prior(0.4, 0.4, 0.4)},
        {"n_examples": 1, "class_scale": {UP: 1.0, DOWN: 1.0}},
        {"n_examples": 1, "class_scale": scale(up=0.0)},
        {"n_examples": 1, "class_scale": scale(down=-2.0)},
        {"n_examples": 1, "difficulty_alpha": 0.0},
        {"n_examples": 1, "difficulty_beta": -1.0},
        {"n_examples": 1, "agreement_gain": -0.5},
        {"n_examples": 1, "perplexity_base": 0.0},
        {"n_examples": 1, "perplexity_gain": -1.0},
        {"n_examples": 1, "trace_tokens": 0},
    ],
)
def test_bad_config_is_refused(kwargs):
    with pytest.raises(InvalidConfig):
        SimConfig(**kwargs)


def test_prior_sum_is_checked_exactly_on_every_python():
    # the builtin sum gives 1.000000001 before Python 3.12, which the
    # tolerance refuses, and 1.0000000009999999 from 3.12 on
    weights = prior(0.11438111063522632, 0.47263534777696115, 0.41298354258781245)
    assert SimConfig(n_examples=1, class_prior=weights).class_prior == weights


def test_zero_examples_is_legal_and_empty():
    assert list(simulate_dataset(SimConfig(n_examples=0))) == []


def test_default_prior_is_skewed_toward_nonreg():
    cfg = SimConfig(n_examples=1)
    assert cfg.class_prior[NONREG] == pytest.approx(0.8)
    assert math.isclose(sum(cfg.class_prior.values()), 1.0)
