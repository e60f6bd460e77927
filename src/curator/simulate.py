"""Synthetic bundle generator with controllable difficulty.

Each example draws a latent difficulty d in [0, 1] that drives everything
observable: the greedy answer is wrong with probability
min(0.9, calibration * d), sampled answers disagree with the greedy answer
with probability rising in d, and fabricated log-probabilities give the
greedy trace perplexity increasing in d * class_scale[answer], where the
scale is keyed by the label the greedy trace asserts — filtering pools are
built from predicted labels, so a per-class uncertainty scale has to follow
the prediction for the pools to feel it uniformly. Trace texts
share a per-bundle stem and differ in answer-marker words, so lexical
cosine between the greedy trace and a sample tracks answer agreement.

With calibration 0 the answer channel decouples from difficulty entirely,
so uncertainty carries no information about correctness. With
independent_noise the answer channel and the fluency channel draw separate
difficulties, each feeding only its own signal, and errors depend on both;
only the hybrid score sees the full picture there.

Every bundle is produced from its own substream derived from (seed, i), so
generation order and worker count can never change the output; one seed
always means one byte-identical dataset. The substreams are the standard
library's Mersenne Twister, and every float sum is a `math.fsum`, so every
supported Python writes the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import fsum, isfinite
from typing import Iterator, Mapping

from .model import (
    DEFAULT_SAMPLE_PARAMS,
    GREEDY_PARAMS,
    LABEL_ORDER,
    ClassLabel,
    QueryTuple,
    ReasoningTrace,
    TraceBundle,
)

#: Substream scheme recorded in manifests of simulated datasets.
SIM_PRNG = "mt19937-per-example-substreams"

DEFAULT_CLASS_PRIOR = {
    ClassLabel.UP: 0.1,
    ClassLabel.DOWN: 0.1,
    ClassLabel.NON_REGULATED: 0.8,
}

UNIT_CLASS_SCALE = {label: 1.0 for label in LABEL_ORDER}

_MARKERS = {
    ClassLabel.UP: "induction",
    ClassLabel.DOWN: "attenuation",
    ClassLabel.NON_REGULATED: "equilibrium",
}


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one synthetic dataset; defaults mimic a skewed three-class
    perturbation corpus."""

    n_examples: int
    k: int = 8
    seed: int = 0
    calibration: float = 1.0
    class_prior: Mapping[ClassLabel, float] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_PRIOR)
    )
    class_scale: Mapping[ClassLabel, float] = field(
        default_factory=lambda: dict(UNIT_CLASS_SCALE)
    )
    difficulty_alpha: float = 2.0
    difficulty_beta: float = 2.0
    agreement_gain: float = 1.0
    perplexity_base: float = 0.05
    perplexity_gain: float = 2.0
    independent_noise: bool = False
    trace_tokens: int = 24

    def __post_init__(self):
        for name, value, least in (
            ("n", self.n_examples, 0), ("k", self.k, 1), ("trace_tokens", self.trace_tokens, 1),
            ("calibration", self.calibration, 0), ("agreement_gain", self.agreement_gain, 0),
            ("perplexity_gain", self.perplexity_gain, 0),
        ):
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        for name, value in (("difficulty_alpha", self.difficulty_alpha),
                            ("difficulty_beta", self.difficulty_beta),
                            ("perplexity_base", self.perplexity_base)):
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        for name, weights in (("class_prior", self.class_prior), ("class_scale", self.class_scale)):
            if set(weights) != set(LABEL_ORDER):
                raise ValueError(f"{name} must be given for all three classes, got {len(weights)}")
        prior, scale = self.class_prior.values(), self.class_scale.values()
        if not all(0 <= p <= 1 for p in prior):  # so fsum cannot overflow
            raise ValueError(f"class_prior must be in [0, 1] for each class, got {list(prior)}")
        if abs(fsum(prior) - 1.0) > 1e-9:
            raise ValueError(f"class_prior must sum to 1, got {fsum(prior)}")
        if min(scale) <= 0:
            raise ValueError(f"class_scale must be > 0 for each class, got {min(scale)}")
        peak_nll = self.perplexity_base + self.perplexity_gain * max(scale)
        if not isfinite(peak_nll):  # a trace's mean negative log-probability at most
            raise ValueError("perplexity_base + perplexity_gain * max(class_scale) overflows")


def _substream(seed: int, index: int) -> random.Random:
    """Stream number `index` of a non-negative `seed`: bundle `index` of a
    simulated dataset draws from it alone. The key is the Cantor pairing of
    the two, distinct for every pair with no bound on either. It is an int
    because seeding with a str imports a hash module on Python 3.13, after
    the output has opened, where a SIGTERM can leave the temp file behind."""
    return random.Random((seed + index) * (seed + index + 1) // 2 + index)


def _pick_label(rng: random.Random, weights: list[float]) -> ClassLabel:
    u = rng.random()
    acc = 0.0
    for label, w in zip(LABEL_ORDER, weights):
        acc += w
        if u < acc:
            return label
    return LABEL_ORDER[-1]


def _other_label(rng: random.Random, label: ClassLabel) -> ClassLabel:
    others = [l for l in LABEL_ORDER if l is not label]
    return others[rng.randrange(2)]


def _trace_text(query: QueryTuple, label: ClassLabel, draw: int) -> str:
    marker = _MARKERS[label]
    return (
        f"<think>pathway review {query.id} in {query.cell_type} perturbing "
        f"{query.perturbation} target {query.gene} suggests {marker} {marker} {marker} "
        f"outcome draw{draw}</think><answer>{label.value}</answer>"
    )


def _fabricated_logprobs(
    rng: random.Random, mean_nll: float, n_tokens: int
) -> tuple[float, ...]:
    # jitter is centered so the token-mean NLL stays exactly on target
    eps = [rng.uniform(-1.0, 1.0) for _ in range(n_tokens)]
    mean = fsum(eps) / n_tokens
    amp = min(0.02, mean_nll / 4)
    return tuple(-(mean_nll + (e - mean) * amp) for e in eps)


def simulate_bundle(cfg: SimConfig, index: int) -> TraceBundle:
    """Produce bundle number `index`; depends only on (cfg, index)."""
    rng = _substream(cfg.seed, index)
    weights = [cfg.class_prior[label] for label in LABEL_ORDER]
    gold = _pick_label(rng, weights)
    d_answer = rng.betavariate(cfg.difficulty_alpha, cfg.difficulty_beta)
    if cfg.independent_noise:
        d_fluency = rng.betavariate(cfg.difficulty_alpha, cfg.difficulty_beta)
        d_error = (d_answer + d_fluency) / 2
    else:
        d_fluency = d_answer
        d_error = d_answer

    query = QueryTuple(
        id=f"sim-{index:06d}",
        cell_type=f"C{index % 5}",
        perturbation=f"P{index}",
        gene=f"G{index}",
        gold_label=gold,
    )

    p_wrong = min(0.9, cfg.calibration * d_error)
    greedy_label = gold if rng.random() >= p_wrong else _other_label(rng, gold)
    mean_nll = cfg.perplexity_base + cfg.perplexity_gain * d_fluency * cfg.class_scale[greedy_label]
    greedy = ReasoningTrace(
        _trace_text(query, greedy_label, 0),
        GREEDY_PARAMS,
        _fabricated_logprobs(rng, mean_nll, cfg.trace_tokens),
    )

    p_disagree = min(0.9, cfg.agreement_gain * d_answer)
    samples = []
    for j in range(1, cfg.k + 1):
        if rng.random() >= p_disagree:
            label = greedy_label
        else:
            label = _other_label(rng, greedy_label)
        samples.append(ReasoningTrace(_trace_text(query, label, j), DEFAULT_SAMPLE_PARAMS))
    return TraceBundle(query=query, greedy=greedy, samples=tuple(samples))


def simulate_dataset(cfg: SimConfig) -> Iterator[TraceBundle]:
    """Stream cfg.n_examples synthetic bundles, deterministic in cfg.seed."""
    for index in range(cfg.n_examples):
        yield simulate_bundle(cfg, index)
