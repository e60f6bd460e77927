"""Factories shared across the test modules.

Everything here builds valid domain objects cheaply; invariant-violating
construction stays inline in the tests that exercise it.
"""

from __future__ import annotations

import random

from curator.model import (
    DEFAULT_SAMPLE_PARAMS,
    GREEDY_PARAMS,
    ClassLabel,
    QueryTuple,
    ReasoningTrace,
    SamplingParams,
    ScoredRow,
    TraceBundle,
    UncertaintyScores,
)
from curator.storage import bundle_to_record, dumps
from curator.uncertainty import ScoredExample

UP = ClassLabel.UP
DOWN = ClassLabel.DOWN
NONREG = ClassLabel.NON_REGULATED


def trace_text(label: ClassLabel | None, body: str = "reasoning here") -> str:
    if label is None:
        return f"<think>{body}</think> no commitment"
    return f"<think>{body}</think><answer>{label.value}</answer>"


def mk_query(i: int = 0, gold: ClassLabel | None = None) -> QueryTuple:
    return QueryTuple(
        id=f"q-{i:04d}",
        cell_type="K562",
        perturbation=f"PERT{i}",
        gene=f"GENE{i}",
        gold_label=gold,
    )


def mk_bundle(
    i: int = 0,
    greedy_label: ClassLabel | None = UP,
    sample_labels: tuple[ClassLabel | None, ...] = (UP, UP),
    logprobs: tuple[float, ...] | None = (-0.5, -0.5),
    gold: ClassLabel | None = None,
    greedy_body: str = "reasoning here",
) -> TraceBundle:
    greedy = ReasoningTrace(trace_text(greedy_label, greedy_body), GREEDY_PARAMS, logprobs)
    samples = tuple(
        ReasoningTrace(trace_text(lab, f"sample {j}"), DEFAULT_SAMPLE_PARAMS)
        for j, lab in enumerate(sample_labels)
    )
    return TraceBundle(query=mk_query(i, gold), greedy=greedy, samples=samples)


def write_jsonl(path, rows, to_dict=bundle_to_record) -> None:
    """Write fixture rows in the dataset line format: bundles by default,
    queries with to_dict=query_to_dict."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(dumps(to_dict(row)) + "\n")


def mk_scored(
    i: int,
    pred: ClassLabel,
    cocoa: float,
    gold: ClassLabel | None = None,
) -> ScoredExample:
    """A scored example whose cocoa equals the requested value exactly.

    ppl = max(1, cocoa) and inconsistency = cocoa / (2 ppl) keep the triple
    self-consistent for any cocoa >= 0.
    """
    ppl = max(1.0, cocoa)
    inc = cocoa / (2.0 * ppl)
    bundle = mk_bundle(i, greedy_label=pred, sample_labels=(pred,), gold=gold)
    return ScoredExample(
        bundle=bundle,
        scores=UncertaintyScores(ppl=ppl, inconsistency=inc, cocoa=cocoa),
    )


def rows_of(examples, first_line: int = 1) -> list[ScoredRow]:
    """The rows read_scored yields for these scored examples written one
    per line from line first_line on: what ranking and evaluation take."""
    return [
        ScoredRow(ex.bundle.query.id, ex.bundle.query.gold_label, ex.bundle.greedy.answer,
                  ex.scores, lineno)
        for lineno, ex in enumerate(examples, start=first_line)
    ]


_LABELS: tuple[ClassLabel | None, ...] = (UP, DOWN, NONREG, None)

_WORDS = (
    "ribosome", "stress", "knockdown", "pathway", "flux", "Δ-node", "零",
    "mito", "chromatin", "feedback", "arrest", "baseline",
)


def rand_bundle(rng: random.Random, i: int) -> TraceBundle:
    """A randomized but always-valid bundle for round-trip properties."""
    gold = rng.choice(_LABELS)
    greedy_label = rng.choice(_LABELS)
    body = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(0, 8)))
    if greedy_label is None and rng.random() < 0.3:
        # unparseable in a different way: tags present but garbage inside
        greedy_text = f"<think>{body}</think><answer>maybe?</answer>"
    else:
        greedy_text = trace_text(greedy_label, body)
    logprobs = None
    if rng.random() < 0.7:
        logprobs = tuple(-rng.uniform(0.0, 4.0) for _ in range(rng.randint(1, 30)))
    greedy = ReasoningTrace(greedy_text, GREEDY_PARAMS, logprobs)

    k = rng.randint(0, 5)
    samples = []
    for j in range(k):
        params = SamplingParams(
            temperature=rng.choice((0.7, 1.0, 1.3)),
            top_p=rng.choice((0.9, 1.0)),
            top_k=rng.choice((None, 20, 50)),
            seed=rng.choice((None, rng.randint(0, 10**6))),
        )
        samples.append(ReasoningTrace(trace_text(rng.choice(_LABELS), f"s{j} {body}"), params))
    query = QueryTuple(
        id=f"rt-{i:05d}",
        cell_type=rng.choice(("K562", "RPE1", "jurkat")),
        perturbation=rng.choice(("ALG2", "POLR2B", "xyz-1")),
        gene=rng.choice(("PDIA6", "HSPA5", "g 7")),
        gold_label=gold,
    )
    return TraceBundle(query=query, greedy=greedy, samples=tuple(samples))
