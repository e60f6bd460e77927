"""Acceptance gate: one test per shipping criterion, each with a runtime budget.

Run with `pytest -v tests/test_acceptance.py` to get one PASSED/FAILED line
per criterion. Each test also prints its measured numbers, so `-rA` (or a
failure) shows how much margin a criterion passed with.
"""

import math
import random
import re
import time

from curator.filtering import FilterSpec, FilterStrategy, apply_filter, decile_stratify
from curator.llm_client import GenerationConfig, UsageCounters, generate_dataset
from curator.metrics import evaluate
from curator.model import (
    DEFAULT_SAMPLE_PARAMS,
    GREEDY_PARAMS,
    MetricVariant,
    ParseStatus,
    ReasoningTrace,
    TraceBundle,
)
from curator.similarity import LexicalCosineProvider, RemoteScorerConfig, get_provider
from curator.simulate import SimConfig, simulate_dataset
from curator.storage import read_bundles, write_scored
from curator.uncertainty import score_bundle, score_dataset

from conftest import completion_body
from helpers import DOWN, NONREG, UP, mk_query, mk_scored, rows_of, trace_text, write_jsonl

SEEDS = (0, 1, 2)

LEXICAL = get_provider("lexical")


def subset_accuracy(subset) -> float:
    return sum(row.predicted_label is row.gold_label for row in subset) / len(subset)


def predicted_counts(rows) -> dict:
    counts: dict = {}
    for row in rows:
        counts[row.predicted_label] = counts.get(row.predicted_label, 0) + 1
    return counts


def floor_quota(fraction: float, n: int) -> int:
    return 0 if n == 0 else max(1, math.floor(fraction * n + 1e-9))


def simulate_and_score(cfg: SimConfig):
    return rows_of(score_dataset(simulate_dataset(cfg), LEXICAL, MetricVariant.COCOA))


def coverage_f1(subset, population, label) -> float:
    """F1 of a retained subset's coverage of one class.

    Precision is over the subset's predictions; recall counts the whole
    population's gold examples of the class, so dropping true examples of
    the class costs recall even though they were filtered, not misread.
    """
    tp = sum(1 for row in subset if row.predicted_label is label and row.gold_label is label)
    fp = sum(1 for row in subset if row.predicted_label is label and row.gold_label is not label)
    gold_total = sum(1 for row in population if row.gold_label is label)
    denom = 2 * tp + fp + (gold_total - tp)
    return 0.0 if denom == 0 else 2 * tp / denom


def average_ranks(values) -> list:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2 + 1
        for t in range(i, j + 1):
            ranks[order[t]] = rank
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    rx, ry = average_ranks(xs), average_ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    sy = math.sqrt(sum((b - my) ** 2 for b in ry))
    if sx == 0 or sy == 0:
        return 0.0
    return cov / (sx * sy)


# --- 1. scoring arithmetic matches a direct evaluation ---


def rand_scoreable(rng: random.Random, i: int) -> TraceBundle:
    words = ("flux", "stress", "arrest", "pathway", "ribosome", "baseline", "feedback")
    labels = (UP, DOWN, NONREG)

    def body() -> str:
        return " ".join(rng.choice(words) for _ in range(rng.randint(1, 10)))

    greedy = ReasoningTrace(
        trace_text(rng.choice(labels), body()),
        GREEDY_PARAMS,
        tuple(-rng.uniform(0.01, 4.0) for _ in range(rng.randint(1, 30))),
    )
    samples = tuple(
        ReasoningTrace(trace_text(rng.choice(labels), body()), DEFAULT_SAMPLE_PARAMS)
        for _ in range(rng.randint(1, 8))
    )
    return TraceBundle(query=mk_query(i), greedy=greedy, samples=samples)


def test_criterion_1_scoring_matches_brute_force():
    t0 = time.perf_counter()
    rng = random.Random(7)
    worst = 0.0
    for i in range(1000):
        bundle = rand_scoreable(rng, i)
        computed = score_bundle(bundle, LEXICAL, MetricVariant.COCOA).scores.cocoa
        lp = bundle.greedy.token_logprobs
        ppl = math.exp(-math.fsum(lp) / len(lp))
        sims = LEXICAL.score_many([(bundle.greedy.text, s.text) for s in bundle.samples])
        brute = (2.0 / len(sims)) * math.fsum((1.0 - s) * ppl for s in sims)
        err = abs(computed - brute) / abs(brute) if brute else abs(computed)
        worst = max(worst, err)
        assert err <= 1e-12, f"bundle {i}: colinearity {computed} vs {brute}"
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: worst relative error {worst:.3e} over 1000 bundles, {elapsed:.2f}s")
    assert elapsed < 5.0


# --- 2. retention counts under per-class filtering ---


def test_criterion_2_retention_counts():
    t0 = time.perf_counter()
    preds = [UP] * 6000 + [DOWN] * 6000 + [NONREG] * 36000
    scored = rows_of(mk_scored(i, pred, cocoa=i * 1e-3, gold=pred) for i, pred in enumerate(preds))
    expected = {0.2: 9600, 0.1: 4800, 0.05: 2400, 0.01: 480}
    got = {}
    for fraction, want in expected.items():
        spec = FilterSpec(strategy=FilterStrategy.PER_CLASS, fraction=fraction)
        got[fraction] = len(apply_filter(scored, spec))
        assert got[fraction] == want, f"fraction {fraction}: {got[fraction]} != {want}"

    # indivisible pools fall back to the floor rule, one quota per class
    ragged = rows_of(
        [mk_scored(i, UP, cocoa=float(i)) for i in range(7)]
        + [mk_scored(100 + i, DOWN, cocoa=float(i)) for i in range(11)]
        + [mk_scored(200 + i, NONREG, cocoa=float(i)) for i in range(13)]
    )
    subset = apply_filter(ragged, FilterSpec(strategy=FilterStrategy.PER_CLASS, fraction=0.1))
    counts = predicted_counts(subset)
    for label, pool in ((UP, 7), (DOWN, 11), (NONREG, 13)):
        assert counts.get(label, 0) == floor_quota(0.1, pool)
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: retained {got} on 48,000 examples, {elapsed:.2f}s")
    assert elapsed < 10.0


# --- 3. subset accuracy falls as retention grows ---


def test_criterion_3_monotone_quality_trend():
    t0 = time.perf_counter()
    fractions = (0.01, 0.05, 0.1, 0.2, 1.0)
    gaps = []
    for seed in SEEDS:
        scored = simulate_and_score(SimConfig(n_examples=5000, seed=seed, calibration=1.0))
        accs = {}
        for fraction in fractions:
            spec = FilterSpec(strategy=FilterStrategy.PER_CLASS, fraction=fraction)
            accs[fraction] = subset_accuracy(apply_filter(scored, spec))
        for lo, hi in zip(fractions, fractions[1:]):
            assert accs[lo] >= accs[hi] - 1e-12, (
                f"seed {seed}: accuracy rose from {accs[lo]:.4f} at {lo} "
                f"to {accs[hi]:.4f} at {hi}"
            )
        gap = accs[0.1] - accs[1.0]
        gaps.append(gap)
        assert gap >= 0.05, f"seed {seed}: accuracy gap {gap:.4f} < 0.05"
    elapsed = time.perf_counter() - t0
    print(
        "criterion 3: accuracy(0.1) - accuracy(1.0) = "
        + ", ".join(f"{g:.3f}" for g in gaps)
        + f" across seeds {SEEDS}, {elapsed:.2f}s"
    )
    assert elapsed < 30.0


# --- 4. per-class protects expensive minorities; global starves them ---


def test_criterion_4_per_class_vs_global():
    t0 = time.perf_counter()
    minority_scale = {UP: 3.0, DOWN: 3.0, NONREG: 1.0}
    fraction = 0.1
    for seed in SEEDS:
        cfg = SimConfig(
            n_examples=5000, seed=seed, calibration=1.0, class_scale=minority_scale
        )
        scored = simulate_and_score(cfg)
        pools = predicted_counts(scored)
        per_class = apply_filter(
            scored, FilterSpec(strategy=FilterStrategy.PER_CLASS, fraction=fraction)
        )
        global_ = apply_filter(
            scored, FilterSpec(strategy=FilterStrategy.GLOBAL, fraction=fraction)
        )
        per_counts = predicted_counts(per_class)
        glob_counts = predicted_counts(global_)
        for label in (UP, DOWN):
            quota = floor_quota(fraction, pools[label])
            assert per_counts.get(label, 0) == quota, (
                f"seed {seed}, {label.value}: per-class retained "
                f"{per_counts.get(label, 0)}, quota {quota}"
            )
            assert glob_counts.get(label, 0) < 0.5 * quota, (
                f"seed {seed}, {label.value}: global retained "
                f"{glob_counts.get(label, 0)} >= half of quota {quota}"
            )
            f1_per = coverage_f1(per_class, scored, label)
            f1_glob = coverage_f1(global_, scored, label)
            assert f1_per > f1_glob, (
                f"seed {seed}, {label.value}: coverage F1 {f1_per:.4f} (per-class) "
                f"vs {f1_glob:.4f} (global)"
            )
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: minority quotas exact, global under half, F1 ordered, {elapsed:.2f}s")
    assert elapsed < 30.0


# --- 5. the combined signal beats either alone under split noise ---


def test_criterion_5_hybrid_beats_single_signals():
    t0 = time.perf_counter()
    rows = []
    for seed in SEEDS:
        cfg = SimConfig(
            n_examples=5000,
            seed=seed,
            calibration=1.0,
            independent_noise=True,
            agreement_gain=1.5,
        )
        scored = simulate_and_score(cfg)
        accs = {}
        for key in (MetricVariant.COCOA, MetricVariant.PERPLEXITY, MetricVariant.CONSISTENCY):
            spec = FilterSpec(strategy=FilterStrategy.PER_CLASS, fraction=0.1, ranking_key=key)
            accs[key] = subset_accuracy(apply_filter(scored, spec))
        assert accs[MetricVariant.COCOA] >= accs[MetricVariant.PERPLEXITY], (
            f"seed {seed}: combined {accs[MetricVariant.COCOA]:.4f} < "
            f"perplexity-only {accs[MetricVariant.PERPLEXITY]:.4f}"
        )
        assert accs[MetricVariant.COCOA] >= accs[MetricVariant.CONSISTENCY], (
            f"seed {seed}: combined {accs[MetricVariant.COCOA]:.4f} < "
            f"consistency-only {accs[MetricVariant.CONSISTENCY]:.4f}"
        )
        rows.append(
            f"seed {seed}: {accs[MetricVariant.COCOA]:.3f} vs "
            f"ppl {accs[MetricVariant.PERPLEXITY]:.3f} / "
            f"cons {accs[MetricVariant.CONSISTENCY]:.3f}"
        )
    elapsed = time.perf_counter() - t0
    print(f"criterion 5: {'; '.join(rows)}, {elapsed:.2f}s")
    assert elapsed < 60.0


# --- 6. uncertainty deciles order minority quality ---


def test_criterion_6_decile_trend():
    t0 = time.perf_counter()
    rhos = []
    for seed in SEEDS:
        scored = simulate_and_score(SimConfig(n_examples=5000, seed=seed, calibration=1.0))
        report = decile_stratify(scored, key=MetricVariant.COCOA)
        xs = [float(b.index) for b in report.bins]
        ys = [b.statistics[3] for b in report.bins]  # UP F1
        rho = spearman(xs, ys)
        rhos.append(rho)
        assert rho <= -0.6, f"seed {seed}: Spearman(decile, Up F1) = {rho:.3f} > -0.6"
    elapsed = time.perf_counter() - t0
    print(
        "criterion 6: Spearman(decile, Up F1) = "
        + ", ".join(f"{r:.3f}" for r in rhos)
        + f", {elapsed:.2f}s"
    )
    assert elapsed < 30.0


# --- 7. bootstrap standard errors behave ---


def test_criterion_7_bootstrap_fidelity():
    t0 = time.perf_counter()
    coin = [(UP, UP)] * 50 + [(UP, DOWN)] * 50  # accuracy 0.5 on n=100
    ses = []
    for seed in SEEDS:
        summary = evaluate(coin, n_resamples=5000, seed=seed).accuracy
        assert summary.point == 0.5
        assert 0.04 <= summary.se <= 0.06, f"seed {seed}: SE {summary.se:.4f}"
        ses.append(summary.se)

    constant = evaluate([(UP, UP)] * 100, n_resamples=5000, seed=0).accuracy
    assert constant.se == 0.0  # exactly: no estimator noise on a constant

    a = evaluate(coin, n_resamples=1000, seed=9).to_dict()
    b = evaluate(coin, n_resamples=1000, seed=9).to_dict()
    assert a == b
    elapsed = time.perf_counter() - t0
    print(
        "criterion 7: Bernoulli SE = "
        + ", ".join(f"{se:.4f}" for se in ses)
        + f"; constant SE 0.0; reports reproducible, {elapsed:.2f}s"
    )
    assert elapsed < 10.0


# --- 8. wire protocol and answer-tag parsing ---

PARSE_CASES = [
    ("<answer>upregulated</answer>", UP, ParseStatus.OK),
    ("<think>x</think><answer> down </answer>", DOWN, ParseStatus.OK),
    ("<think>why</think><answer>not differentially expressed</answer>", NONREG, ParseStatus.OK),
    ("<answer>UPREGULATED</answer>", UP, ParseStatus.OK),
    ("<answer>down\n</answer>", DOWN, ParseStatus.OK),
    ("<answer>Down</answer>", DOWN, ParseStatus.OK),
    ("<answer>not differentially expressed</answer> trailing prose", NONREG, ParseStatus.OK),
    ("<answer>upregulated</answer> then <answer>downregulated</answer>", DOWN, ParseStatus.OK),
    ("<answer>not differentially expressed</answer><answer>upregulated</answer>", UP, ParseStatus.OK),
    ("<answer>downregulated</answer><answer>oops", DOWN, ParseStatus.OK),
    ("<answer><answer>up</answer>", UP, ParseStatus.OK),
    ("no tags at all", None, ParseStatus.MISSING_ANSWER_TAG),
    ("", None, ParseStatus.MISSING_ANSWER_TAG),
    ("<answer>upregulated", None, ParseStatus.MISSING_ANSWER_TAG),
    ("upregulated</answer>", None, ParseStatus.MISSING_ANSWER_TAG),
    ("<ANSWER>up</ANSWER>", None, ParseStatus.MISSING_ANSWER_TAG),
    ("<answer>gibberish</answer>", None, ParseStatus.UNKNOWN_ANSWER_STRING),
    ("<answer></answer>", None, ParseStatus.UNKNOWN_ANSWER_STRING),
    ("<answer>downregulated extra words</answer>", None, ParseStatus.UNKNOWN_ANSWER_STRING),
    ("text <answer>up</answer> more <answer>garbage</answer>", None, ParseStatus.UNKNOWN_ANSWER_STRING),
]


def test_criterion_8_generation_protocol(endpoint):
    t0 = time.perf_counter()
    assert len(PARSE_CASES) == 20

    def protocol_app(request):
        return 200, completion_body(trace_text(UP, "steady"), logprobs=[-0.1, -0.2])

    server = endpoint(protocol_app)
    cfg = GenerationConfig(base_url=server.base_url, model="m", k=8, max_in_flight=1)
    results = list(generate_dataset(cfg, [mk_query(0, gold=UP)], UsageCounters()))
    assert len(results) == 1 and results[0][1] is not None
    assert len(server.requests) == 9, f"expected 9 requests, saw {len(server.requests)}"
    greedy = server.requests[0].body
    assert greedy["temperature"] == 0.0
    assert greedy["logprobs"] is True
    assert "top_p" not in greedy and "top_k" not in greedy
    for later in server.requests[1:]:
        body = later.body
        assert body["temperature"] == 1.0
        assert body["top_p"] == 1.0
        assert body["top_k"] == 50
        assert "logprobs" not in body

    def parse_app(request):
        user = request.body["messages"][1]["content"]
        index = int(re.search(r"the PERT(\d+) gene", user).group(1))
        return 200, completion_body(PARSE_CASES[index][0], logprobs=[-0.1])

    parse_server = endpoint(parse_app)
    cfg = GenerationConfig(base_url=parse_server.base_url, model="m", k=1)
    queries = [mk_query(i, gold=UP) for i in range(len(PARSE_CASES))]
    for i, (query, bundle, error) in enumerate(
        generate_dataset(cfg, queries, UsageCounters())
    ):
        text, label, status = PARSE_CASES[i]
        assert error is None, f"case {i}: {error}"
        assert bundle.greedy.text == text
        assert bundle.greedy.answer is label, f"case {i}: {text!r}"
        assert bundle.greedy.parse_status is status, f"case {i}: {text!r}"
    elapsed = time.perf_counter() - t0
    print(f"criterion 8: 9 requests for k=8, 20/20 canned parses, {elapsed:.2f}s")
    assert elapsed < 10.0


# --- 9. determinism and lossless round-trips ---


def test_criterion_9_determinism_and_round_trip(tmp_path, endpoint):
    t0 = time.perf_counter()

    # the remote scorer's batch size and concurrency never change the output:
    # a mock serving lexical cosine must reproduce the lexical provider exactly
    bundles = list(simulate_dataset(SimConfig(n_examples=300, seed=3)))
    server = endpoint(lambda request: (
        200, {"scores": LexicalCosineProvider().score_many(request.body["pairs"])}
    ))
    providers = {
        "lexical.jsonl": LEXICAL,
        "b1-f1.jsonl": get_provider("remote", RemoteScorerConfig(
            base_url=server.base_url, max_batch=1, max_in_flight=1)),
        "b32-f8.jsonl": get_provider("remote", RemoteScorerConfig(
            base_url=server.base_url, max_batch=32, max_in_flight=8)),
    }
    for name, provider in providers.items():
        write_scored(str(tmp_path / name), score_dataset(bundles, provider, MetricVariant.COCOA))
    expected = (tmp_path / "lexical.jsonl").read_bytes()
    assert (tmp_path / "b1-f1.jsonl").read_bytes() == expected
    assert (tmp_path / "b32-f8.jsonl").read_bytes() == expected
    n_pairs = sum(b.k for b in bundles if b.scoreable)
    assert sum(len(r.body["pairs"]) for r in server.requests) == 2 * n_pairs

    rng = random.Random(11)
    from helpers import rand_bundle

    originals = [rand_bundle(rng, i) for i in range(1000)]
    first = tmp_path / "rt1.jsonl"
    write_jsonl(str(first), originals)
    recovered = list(read_bundles(str(first)))
    assert recovered == originals
    second = tmp_path / "rt2.jsonl"
    write_jsonl(str(second), recovered)
    assert first.read_bytes() == second.read_bytes()

    for name in ("sim-a.jsonl", "sim-b.jsonl"):
        write_jsonl(str(tmp_path / name), simulate_dataset(SimConfig(n_examples=200, seed=5)))
    assert (tmp_path / "sim-a.jsonl").read_bytes() == (tmp_path / "sim-b.jsonl").read_bytes()

    scored = list(score_dataset(bundles, LEXICAL, MetricVariant.COCOA))
    spec = FilterSpec(strategy=FilterStrategy.RANDOM_UNIFORM, fraction=0.1, seed=42)
    for name in ("rf-a.jsonl", "rf-b.jsonl"):
        kept = {row.query_id for row in apply_filter(rows_of(scored), spec)}
        write_scored(str(tmp_path / name), (ex for ex in scored if ex.bundle.query.id in kept))
    assert (tmp_path / "rf-a.jsonl").read_bytes() == (tmp_path / "rf-b.jsonl").read_bytes()

    elapsed = time.perf_counter() - t0
    print(f"criterion 9: scorer batching, round-trips, and seeds all agree, {elapsed:.2f}s")
    assert elapsed < 20.0
