"""Subset selection: quotas, strategies, random baselines, deciles."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curator.errors import CuratorError
from curator.filtering import (
    RANDOM_FILTER_PRNG,
    DecileReport,
    FilterSpec,
    FilterStrategy,
    _quota,
    apply_filter,
    decile_stratify,
    subset_quality_sweep,
)
from curator.metrics import confusion, pairs_from_scored, statistics
from curator.model import MetricVariant, UncertaintyScores
from curator.uncertainty import ScoredExample

from helpers import DOWN, NONREG, UP, mk_bundle, mk_scored, rows_of

PER_CLASS = FilterStrategy.PER_CLASS
GLOBAL = FilterStrategy.GLOBAL
RANDOM = FilterStrategy.RANDOM_UNIFORM
RANDOM_STRATIFIED = FilterStrategy.RANDOM_STRATIFIED


class TestQuota:
    @pytest.mark.parametrize(
        "fraction,n,expected",
        [
            (0.1, 48000, 4800),
            (0.2, 48000, 9600),
            (0.05, 48000, 2400),
            (0.01, 48000, 480),
            (0.1, 5, 1),      # floor(0.5) = 0, bumped to the minimum of 1
            (0.01, 3, 1),
            (1.0, 7, 7),
            (0.5, 7, 3),
            (0.1, 0, 0),      # empty pool stays empty
            (0.3, 10, 3),     # 0.3*10 = 2.9999... in floats; nudge keeps it 3
        ],
    )
    def test_oracle(self, fraction, n, expected):
        assert _quota(fraction, n) == expected


def scored_set():
    """Nine examples, three per class, with distinct cocoa scores.

    Per class ascending by score: UP q0 (1.0) < q1 (2.0) < q2 (3.0),
    DOWN q3 (1.5) < q4 (2.5) < q5 (3.5), NONREG q6 (0.5) < q7 (4.0) < q8 (5.0).
    """
    spec = [
        (UP, 1.0), (UP, 2.0), (UP, 3.0),
        (DOWN, 1.5), (DOWN, 2.5), (DOWN, 3.5),
        (NONREG, 0.5), (NONREG, 4.0), (NONREG, 5.0),
    ]
    return rows_of(mk_scored(i, label, score) for i, (label, score) in enumerate(spec))


def ids(subset):
    return [row.query_id for row in subset]


class TestPerClass:
    def test_keeps_lowest_per_class(self):
        subset = apply_filter(scored_set(), FilterSpec(PER_CLASS, 1 / 3))
        assert ids(subset) == ["q-0000", "q-0003", "q-0006"]

    def test_output_preserves_input_order(self):
        items = scored_set()[::-1]
        subset = apply_filter(items, FilterSpec(PER_CLASS, 1 / 3))
        assert ids(subset) == ["q-0006", "q-0003", "q-0000"]

    def test_min_one_per_nonempty_class(self):
        subset = apply_filter(scored_set(), FilterSpec(PER_CLASS, 0.01))
        assert len(subset) == 3  # one per class

    def test_fraction_one_keeps_everything(self):
        assert ids(apply_filter(scored_set(), FilterSpec(PER_CLASS, 1.0))) == ids(scored_set())

    def test_ties_break_by_query_id(self):
        items = rows_of(mk_scored(i, UP, 2.0) for i in (3, 1, 2))
        assert ids(apply_filter(items, FilterSpec(PER_CLASS, 1 / 3))) == ["q-0001"]

    def test_ranks_by_requested_variant(self):
        # equal cocoa, different inconsistency: CONSISTENCY picks the calmer one
        a = ScoredExample(
            bundle=mk_bundle(0, greedy_label=UP, sample_labels=(UP,)),
            scores=UncertaintyScores(ppl=4.0, inconsistency=0.25, cocoa=2.0),
        )
        b = ScoredExample(
            bundle=mk_bundle(1, greedy_label=UP, sample_labels=(UP,)),
            scores=UncertaintyScores(ppl=2.0, inconsistency=0.5, cocoa=2.0),
        )
        spec = FilterSpec(PER_CLASS, 0.5, MetricVariant.CONSISTENCY)
        subset = apply_filter(rows_of([a, b]), spec)
        assert ids(subset) == ["q-0000"]

    def test_missing_score_raises(self):
        broken = ScoredExample(
            bundle=mk_bundle(0, sample_labels=(UP,)),
            scores=UncertaintyScores(ppl=None, inconsistency=0.5, cocoa=None),
        )
        with pytest.raises(CuratorError, match="example q-0000 has no cocoa score; re-score"):
            apply_filter(rows_of([broken]), FilterSpec(PER_CLASS, 0.5))


class TestGlobal:
    def test_one_pooled_ranking(self):
        subset = apply_filter(scored_set(), FilterSpec(GLOBAL, 1 / 3))
        # lowest three scores overall: 0.5 (q6), 1.0 (q0), 1.5 (q3)
        assert ids(subset) == ["q-0000", "q-0003", "q-0006"]

    def test_can_starve_a_class(self):
        items = [mk_scored(i, UP, 1.0 + i) for i in range(5)]
        items += [mk_scored(10 + i, DOWN, 100.0 + i) for i in range(5)]
        subset = apply_filter(rows_of(items), FilterSpec(GLOBAL, 0.4))
        assert all(row.predicted_label is UP for row in subset)

    def test_monotone_transform_of_scores_changes_nothing(self):
        items = scored_set()
        before = ids(apply_filter(items, FilterSpec(GLOBAL, 0.5)))
        squashed = [
            replace(row, scores=UncertaintyScores(
                ppl=None, inconsistency=math.tanh(row.scores.cocoa) / 2, cocoa=None
            ))
            for row in items
        ]
        after = ids(apply_filter(squashed, FilterSpec(GLOBAL, 0.5, MetricVariant.CONSISTENCY)))
        assert before == after


class TestRandom:
    def test_deterministic_for_seed(self):
        items = scored_set()
        a = apply_filter(items, FilterSpec(RANDOM, 0.5, seed=9))
        b = apply_filter(items, FilterSpec(RANDOM, 0.5, seed=9))
        assert ids(a) == ids(b)

    def test_different_seeds_differ_somewhere(self):
        items = rows_of(mk_scored(i, UP, float(i) + 1) for i in range(40))
        picks = {
            tuple(ids(apply_filter(items, FilterSpec(RANDOM, 0.25, seed=s)))) for s in range(6)
        }
        assert len(picks) > 1

    def test_prefix_nesting_across_fractions(self):
        items = rows_of(mk_scored(i, UP, float(i) + 1) for i in range(30))
        small = set(ids(apply_filter(items, FilterSpec(RANDOM, 0.1, seed=3))))
        big = set(ids(apply_filter(items, FilterSpec(RANDOM, 0.5, seed=3))))
        assert small <= big

    def test_ignores_scores_entirely(self):
        items = rows_of(mk_scored(i, UP, float(i) + 1) for i in range(20))
        rescored = [
            replace(row, scores=UncertaintyScores(ppl=None, inconsistency=0.1, cocoa=None))
            for row in items
        ]
        spec = FilterSpec(RANDOM, 0.3, seed=1)
        assert ids(apply_filter(items, spec)) == ids(apply_filter(rescored, spec))

    def test_stratified_takes_quota_per_class(self):
        items = scored_set()
        subset = apply_filter(items, FilterSpec(RANDOM_STRATIFIED, 1 / 3, seed=0))
        counts = {label: 0 for label in (UP, DOWN, NONREG)}
        for row in subset:
            counts[row.predicted_label] += 1
        assert counts == {UP: 1, DOWN: 1, NONREG: 1}

    def test_prng_constant_documented(self):
        assert RANDOM_FILTER_PRNG == "mt19937-fisher-yates-prefix"


class TestApplyFilter:
    def test_dispatches_each_strategy(self):
        items = scored_set()
        for strategy in FilterStrategy:
            spec = FilterSpec(strategy=strategy, fraction=1 / 3, seed=5)
            subset = apply_filter(items, spec)
            assert len(subset) == 3

    def test_random_requires_seed(self):
        with pytest.raises(ValueError):
            FilterSpec(strategy=FilterStrategy.RANDOM_UNIFORM, fraction=0.5, seed=None)

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            FilterSpec(strategy=FilterStrategy.PER_CLASS, fraction=0.0)
        with pytest.raises(ValueError):
            FilterSpec(strategy=FilterStrategy.PER_CLASS, fraction=1.2)


def test_empty_dataset_refused():
    for strategy in FilterStrategy:
        with pytest.raises(CuratorError, match="cannot filter an empty dataset"):
            apply_filter([], FilterSpec(strategy, 0.5, seed=0))


@settings(max_examples=30)
@given(
    n_per_class=st.tuples(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=12),
    ),
    fraction=st.sampled_from((0.01, 0.1, 0.25, 0.5, 1.0)),
)
def test_per_class_retention_matches_quota_rule(n_per_class, fraction):
    items = []
    i = 0
    for label, n in zip((UP, DOWN, NONREG), n_per_class):
        for _ in range(n):
            items.append(mk_scored(i, label, 1.0 + 0.1 * i))
            i += 1
    subset = apply_filter(rows_of(items), FilterSpec(PER_CLASS, fraction))
    by_label = {label: 0 for label in (UP, DOWN, NONREG)}
    for row in subset:
        by_label[row.predicted_label] += 1
    for label, n in zip((UP, DOWN, NONREG), n_per_class):
        assert by_label[label] == _quota(fraction, n)


@settings(max_examples=30)
@given(
    n=st.integers(min_value=1, max_value=60),
    f1=st.sampled_from((0.05, 0.1, 0.3)),
    f2=st.sampled_from((0.5, 0.8, 1.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_subset_nesting_property(n, f1, f2, seed):
    items = rows_of(mk_scored(i, UP, 1.0 + i) for i in range(n))
    small = set(ids(apply_filter(items, FilterSpec(RANDOM, f1, seed=seed))))
    big = set(ids(apply_filter(items, FilterSpec(RANDOM, f2, seed=seed))))
    assert small <= big


@settings(max_examples=60)
@given(
    examples=st.lists(
        st.tuples(
            st.sampled_from((UP, DOWN, NONREG)),
            st.sampled_from((0.25, 0.5, 1.0, 2.0, 3.0)),  # few values: many ties
            st.sampled_from((UP, DOWN, NONREG)),
        ),
        min_size=1,
        max_size=40,
    ),
    fractions=st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True), min_size=1, max_size=6
    ),
    strategy=st.sampled_from(FilterStrategy),
    key=st.sampled_from(MetricVariant),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sweep_rows_match_apply_filter_and_subsets_nest(examples, fractions, strategy, key, seed):
    # repeated ids: query ids need not be unique in memory, and ties fall to input order
    items = rows_of(
        mk_scored(i % 7, pred, score, gold=gold) for i, (pred, score, gold) in enumerate(examples)
    )
    rows = subset_quality_sweep(items, fractions, strategy=strategy, key=key, seed=seed)
    subsets = {}
    for fraction, row in zip(fractions, rows, strict=True):
        subset = apply_filter(items, FilterSpec(strategy, fraction, key, seed))
        assert row.fraction == fraction
        assert row.n_retained == len(subset)
        expected = statistics(confusion(pairs_from_scored(subset)))
        assert row.statistics == expected
        subsets[fraction] = [id(row) for row in subset]
    ordered = [set(subsets[f]) for f in sorted(subsets)]
    for small, big in zip(ordered, ordered[1:]):
        assert small <= big


class TestDeciles:
    def gold_set(self, n=100):
        # half correct, half wrong; score increases with index
        items = []
        for i in range(n):
            pred = UP if i % 2 == 0 else DOWN
            gold = pred if i < n // 2 else (DOWN if pred is UP else UP)
            items.append(mk_scored(i, pred, 1.0 + i, gold=gold))
        return rows_of(items)

    def test_ten_bins_with_extras_up_front(self):
        report = decile_stratify(self.gold_set(105))
        sizes = [b.count for b in report.bins]
        assert sizes == [11] * 5 + [10] * 5
        assert [b.index for b in report.bins] == list(range(1, 11))

    def test_bins_ordered_by_score(self):
        report = decile_stratify(self.gold_set(100))
        means = [b.mean_score for b in report.bins]
        assert means == sorted(means)
        assert report.bins[0].mean_score == pytest.approx(sum(range(1, 11)) / 10 + 0.0)

    def test_requires_ten_gold_examples(self):
        with pytest.raises(CuratorError, match="needs >= 10 gold-labeled examples, got 9"):
            decile_stratify(self.gold_set(9))

    def test_unlabeled_examples_refused(self):
        items = self.gold_set(20) + rows_of(mk_scored(100 + i, UP, 0.1) for i in range(30))
        with pytest.raises(CuratorError, match="30 of 50 examples lack gold labels"):
            decile_stratify(items)

    def test_per_bin_metrics_reflect_correctness(self):
        # first half all correct, second half all wrong
        report = decile_stratify(self.gold_set(100))
        first, last = report.bins[0], report.bins[-1]
        # statistics: accuracy, then (precision, recall, F1) per class; UP first
        assert first.statistics[3] == pytest.approx(1.0)
        assert last.statistics[3] == pytest.approx(0.0)

    def test_csv_shape(self):
        report = decile_stratify(self.gold_set(100))
        lines = report.csv_lines()
        assert lines[0] == DecileReport.CSV_HEADER == (
            "bin,count,mean_score,"
            "up_p,up_r,up_f1,down_p,down_r,down_f1,nonreg_p,nonreg_r,nonreg_f1"
        )
        assert len(lines) == 11
        row = lines[1].split(",")
        assert row[0] == "1" and row[1] == "10"
