"""Confusion counts, the statistics computed from them, and the stratified
bootstrap behind `evaluate`."""

from __future__ import annotations

import json
import math
import random
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curator import metrics
from curator.errors import CuratorError
from curator.filtering import SWEEP_CSV_HEADER, subset_quality_sweep, sweep_csv_lines
from curator.metrics import (
    DEFAULT_RESAMPLES,
    BootstrapSummary,
    confusion,
    evaluate,
    pairs_from_scored,
    statistics,
)
from curator.model import LABEL_ORDER

from helpers import DOWN, NONREG, UP, mk_scored, rows_of

labels = st.sampled_from(LABEL_ORDER)
pair_lists = st.lists(st.tuples(labels, labels), min_size=1, max_size=80)


def cell(cm, gold, pred) -> int:
    return cm[3 * LABEL_ORDER.index(gold) + LABEL_ORDER.index(pred)]


def reference_statistics(counts) -> np.ndarray:
    """`statistics` as numpy computes it, over any stack of (..., 3, 3)
    counts: the reference the plain-Python version must equal."""
    counts = np.asarray(counts)

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros(np.shape(den)), where=den != 0)

    tp = np.diagonal(counts, axis1=-2, axis2=-1)
    precision = ratio(tp, counts.sum(axis=-2))
    recall = ratio(tp, counts.sum(axis=-1))
    f1 = ratio(2 * precision * recall, precision + recall)
    acc = ratio(tp.sum(axis=-1), counts.sum(axis=(-2, -1)))
    per_class = np.stack((precision, recall, f1), axis=-1).reshape(*acc.shape, 9)
    return np.concatenate((acc[..., None], per_class), axis=-1)


def class_stats(counts, label) -> tuple[float, float, float]:
    """(precision, recall, f1) of one class from `statistics`."""
    start = 1 + 3 * LABEL_ORDER.index(label)
    return tuple(statistics(counts)[start : start + 3])


class TestConfusion:
    def test_counts_land_in_cells(self):
        pairs = [(UP, UP), (UP, DOWN), (DOWN, DOWN), (NONREG, UP), (NONREG, NONREG)]
        cm = confusion(pairs)
        assert len(cm) == 9
        assert cell(cm, UP, UP) == 1
        assert cell(cm, UP, DOWN) == 1
        assert cell(cm, DOWN, DOWN) == 1
        assert cell(cm, NONREG, UP) == 1
        assert cell(cm, NONREG, NONREG) == 1
        assert cell(cm, DOWN, UP) == 0
        assert sum(cm) == 5
        assert cm[0] + cm[4] + cm[8] == 3

    def test_marginals(self):
        pairs = [(UP, DOWN), (UP, DOWN), (DOWN, DOWN), (NONREG, UP)]
        cm = confusion(pairs)
        assert [sum(cm[3 * g : 3 * g + 3]) for g in range(3)] == [2, 1, 1]  # gold totals
        assert [sum(cm[p::3]) for p in range(3)] == [1, 3, 0]  # predicted totals

    def test_empty_refused(self):
        with pytest.raises(CuratorError, match="cannot build a confusion matrix from zero pairs"):
            confusion([])

    @settings(max_examples=40)
    @given(pair_lists)
    def test_recount_matches_brute_force(self, pairs):
        cm = confusion(pairs)
        for gold in LABEL_ORDER:
            for pred in LABEL_ORDER:
                assert cell(cm, gold, pred) == sum(
                    1 for g, p in pairs if g is gold and p is pred
                )
        assert statistics(cm)[0] == pytest.approx(
            sum(1 for g, p in pairs if g is p) / len(pairs)
        )


class TestClassMetrics:
    def test_hand_worked_example(self):
        # UP: TP=2, FP=6, FN=2 -> precision 0.25, recall 0.5, F1 1/3
        pairs = (
            [(UP, UP)] * 2
            + [(DOWN, UP)] * 6
            + [(UP, DOWN)] * 2
            + [(DOWN, DOWN)] * 2
        )
        precision, recall, f1 = class_stats(confusion(pairs), UP)
        assert precision == pytest.approx(0.25)
        assert recall == pytest.approx(0.5)
        assert f1 == pytest.approx(1 / 3)

    def test_zero_denominators_give_zero(self):
        pairs = [(DOWN, DOWN), (NONREG, NONREG)]  # UP never appears
        assert class_stats(confusion(pairs), UP) == (0.0, 0.0, 0.0)
        assert statistics([0] * 9) == [0.0] * 10

    def test_perfect_class(self):
        assert class_stats(confusion([(UP, UP), (DOWN, DOWN)]), UP) == (1.0, 1.0, 1.0)

    @settings(max_examples=40)
    @given(st.lists(st.tuples(labels, labels), min_size=1, max_size=60))
    def test_f1_is_harmonic_mean(self, pairs):
        cm = confusion(pairs)
        for label in LABEL_ORDER:
            precision, recall, f1 = class_stats(cm, label)
            if precision + recall > 0:
                expected = 2 * precision * recall / (precision + recall)
                assert f1 == pytest.approx(expected)
            else:
                assert f1 == 0.0

    @settings(max_examples=40)
    @given(pair_lists)
    def test_matches_scalar_formulas_exactly(self, pairs):
        cm = confusion(pairs)
        expected = [sum(g is p for g, p in pairs) / len(pairs)]
        for label in LABEL_ORDER:
            tp = sum(g is label and p is label for g, p in pairs)
            predicted = sum(p is label for _, p in pairs)
            gold = sum(g is label for g, _ in pairs)
            precision = tp / predicted if predicted else 0.0
            recall = tp / gold if gold else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            expected.extend((precision, recall, f1))
        assert statistics(cm) == expected

    def test_stacked_counts_match_one_at_a_time(self):
        stack = np.array([
            confusion([(UP, UP), (DOWN, UP)]),
            [0] * 9,
            confusion([(NONREG, DOWN), (DOWN, DOWN), (UP, NONREG)]),
        ]).reshape(3, 3, 3)
        values = reference_statistics(stack)
        assert values.shape == (3, 10)
        for counts, row in zip(stack, values):
            assert row.tolist() == statistics(counts.reshape(9).tolist())
        assert reference_statistics(stack.reshape(1, 3, 3, 3)).shape == (1, 3, 10)

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 10**6), min_size=9, max_size=9),
           st.sets(st.integers(0, 2)), st.sets(st.integers(0, 2)))
    def test_plain_python_equals_the_numpy_reference(self, counts, zero_rows, zero_cols):
        """`==`, not approx: both divide the same integers and combine the
        same floats in the same order. Whole zero rows and columns cover
        every zero denominator."""
        counts = [0 if i // 3 in zero_rows or i % 3 in zero_cols else c
                  for i, c in enumerate(counts)]
        want = reference_statistics(np.array(counts, dtype=np.int64).reshape(3, 3)).tolist()
        assert statistics(counts) == want


def bernoulli_pairs(n_correct=50, n_wrong=50):
    return [(NONREG, NONREG)] * n_correct + [(NONREG, UP)] * n_wrong


def boot_accuracy(pairs, n_resamples, seed) -> BootstrapSummary:
    return evaluate(pairs, n_resamples=n_resamples, seed=seed).accuracy


#: (seed, n, p, six draws, the next random()) as Python 3.12's
#: Random(seed).binomialvariate(n, p) makes them, generated once with
#:   python3.12 -c "import random; r = random.Random(SEED);
#:     print([r.binomialvariate(N, P) for _ in range(6)], r.random())"
#: (Python 3.12.1). The rows cover n in {0, 1}, p in {0, 1}, p > 0.5 (drawn
#: as n - Bin(n, 1 - p)), the geometric method (n*p < 10), BTRS (n*p >= 10),
#: a p whose log2(1 - p) is 0, and a seed beyond 64 bits; the next random()
#: shows that each draw used as many uniforms as the standard library's.
BINOMIAL_DRAWS = [
    (0, 0, 0.3, [0, 0, 0, 0, 0, 0], 0.7837985890347726),
    (1, 1, 0.3, [1, 0, 0, 1, 0, 0], 0.651592972722763),
    (2, 1, 0.7, [0, 0, 1, 1, 0, 0], 0.6697304014402209),
    (3, 10, 0.0, [0, 0, 0, 0, 0, 0], 0.23796462709189137),
    (4, 10, 1.0, [10, 10, 10, 10, 10, 10], 0.23604808973743452),
    (5, 20, 0.1, [6, 4, 1, 2, 1, 2], 0.7971469914312045),
    (6, 12, 0.8, [9, 12, 9, 8, 10, 8], 0.8442823247961649),
    (7, 9, 0.5, [3, 4, 2, 3, 5, 3], 0.30848182410193437),
    (8, 100, 0.3, [24, 22, 26, 29, 30, 35], 0.23418295948970536),
    (9, 1000, 0.75, [751, 767, 729, 748, 784, 742], 0.725065368582209),
    (10, 10**6, 0.01, [10020, 10022, 10100, 10044, 10006, 10123], 0.3816059859191179),
    (11, 100, 1e-20, [0, 0, 0, 0, 0, 0], 0.4523795535098186),
    (2**64, 50, 0.4, [20, 21, 19, 17, 22, 19], 0.3396865976710618),
    (12, 37, 0.27, [6, 11, 8, 9, 10, 11], 0.8225676183334251),
]

#: (seed, n, p, the sum of 5000 draws, the next random()), made the same way
#: with sum(r.binomialvariate(N, P) for _ in range(5000)): long runs reach
#: the branches that six draws rarely take, such as BTRS's full
#: acceptance test after a squeeze miss.
BINOMIAL_RUNS = [
    (13, 40, 0.3, 59865, 0.7448626946409375),
    (14, 500, 0.6, 1499376, 0.8538531887443335),
    (15, 10**5, 0.02, 9996272, 0.4058282179025293),
    (16, 25, 0.96, 120055, 0.5616088703532461),
]


class TestBinomial:
    @pytest.mark.parametrize("seed, n, p, draws, after", BINOMIAL_DRAWS)
    def test_draws_equal_python_312s_binomialvariate(self, seed, n, p, draws, after):
        rnd = random.Random(seed)
        assert [metrics._binomial(rnd, n, p) for _ in draws] == draws
        assert rnd.random() == after

    @pytest.mark.parametrize("seed, n, p, total, after", BINOMIAL_RUNS)
    def test_long_runs_equal_python_312s_binomialvariate(self, seed, n, p, total, after):
        rnd = random.Random(seed)
        assert sum(metrics._binomial(rnd, n, p) for _ in range(5000)) == total
        assert rnd.random() == after

    @pytest.mark.parametrize("n, p", [(20, 0.3), (30, 0.9), (200, 0.3), (200, 0.8)],
                             ids=["geometric", "geometric-flipped", "btrs", "btrs-flipped"])
    def test_counts_fit_the_binomial_pmf(self, n, p):
        """Pearson's chi-square over 20 000 draws at a fixed seed, with tail
        cells pooled until each expects at least 5 draws, against the
        1e-4 upper quantile (Wilson-Hilferty)."""
        draws = 20_000
        rnd = random.Random(2024)
        observed = [0] * (n + 1)
        for _ in range(draws):
            observed[metrics._binomial(rnd, n, p)] += 1
        expected = [draws * math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
        cells, obs, exp = [], 0, 0.0
        for o, e in zip(observed, expected):
            obs, exp = obs + o, exp + e
            if exp >= 5:
                cells.append((obs, exp))
                obs, exp = 0, 0.0
        if exp:  # the upper tail joins the last cell
            o, e = cells.pop()
            cells.append((o + obs, e + exp))
        chi2 = sum((o - e) ** 2 / e for o, e in cells)
        df = len(cells) - 1
        z = NormalDist().inv_cdf(1 - 1e-4)
        critical = df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3
        assert df >= 5 and chi2 < critical, (chi2, critical, df)


class TestStratifiedBootstrap:
    def test_point_is_statistic_of_original(self):
        s = boot_accuracy(bernoulli_pairs(), n_resamples=50, seed=0)
        assert s.point == pytest.approx(0.5)

    def test_se_matches_binomial_theory(self):
        # sqrt(p(1-p)/n) = 0.05 for p=0.5, n=100
        s = boot_accuracy(bernoulli_pairs(), n_resamples=5000, seed=0)
        assert 0.04 <= s.se <= 0.06

    def test_constant_statistic_has_exactly_zero_se(self):
        s = boot_accuracy([(NONREG, NONREG)] * 40, n_resamples=200, seed=0)
        assert s.se == 0.0
        assert s.ci_low == s.ci_high == 1.0

    def test_same_seed_identical(self):
        a = boot_accuracy(bernoulli_pairs(), n_resamples=300, seed=11)
        b = boot_accuracy(bernoulli_pairs(), n_resamples=300, seed=11)
        assert a == b

    def test_different_seed_differs(self):
        a = boot_accuracy(bernoulli_pairs(), n_resamples=300, seed=1)
        b = boot_accuracy(bernoulli_pairs(), n_resamples=300, seed=2)
        assert a != b

    def test_single_resample_se_zero(self):
        s = boot_accuracy(bernoulli_pairs(), n_resamples=1, seed=0)
        assert s.se == 0.0

    def test_strata_sizes_preserved_in_every_resample(self, monkeypatch):
        pairs = [(UP, UP)] * 7 + [(DOWN, DOWN)] * 13 + [(NONREG, UP)] * 29
        gold_totals = []

        def spy(counts):
            gold_totals.append(tuple(sum(counts[3 * g : 3 * g + 3]) for g in range(3)))
            return statistics(counts)

        monkeypatch.setattr(metrics, "statistics", spy)
        evaluate(pairs, n_resamples=40, seed=5)
        # 40 resamples plus the point estimate on the original pairs
        assert len(gold_totals) == 41
        assert set(gold_totals) == {(7, 13, 29)}

    def test_ci_bounds_are_percentiles(self):
        s = boot_accuracy(bernoulli_pairs(), n_resamples=4000, seed=0)
        assert s.ci_low <= s.point <= s.ci_high
        assert s.ci_low >= 0.3 and s.ci_high <= 0.7

    @settings(max_examples=100)
    @given(st.one_of(st.integers(1, 2), st.integers(1, 6000)),
           st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=20),
           st.randoms(use_true_random=False))
    def test_percentile_equals_numpys_bit_for_bit(self, n, pool, rnd):
        """The CI bounds as np.percentile computes them, by float.hex: the
        same linear interpolation in the same float operations. The column
        repeats values of the pool (ties) and scales others; -0.0 is left
        out, whose sign the order of tied zeros decides, and which no
        statistic takes."""
        column = [rnd.choice(pool) * (1 if rnd.random() < 0.5 else rnd.uniform(0.5, 2))
                  for _ in range(n)]
        column = [v + 0.0 for v in column]  # -0.0 becomes 0.0
        ranked = sorted(column)
        for q in (0, 2.5, 50, 97.5, 100):
            want = float(np.percentile(np.array(column), q))
            assert metrics._percentile(ranked, q).hex() == want.hex(), (n, q)

    def test_empty_pairs_refused(self):
        with pytest.raises(CuratorError, match="cannot evaluate zero pairs"):
            evaluate([], n_resamples=10, seed=0)

    def test_negative_seed_refused(self):
        # random.Random would draw the stream of seed 1
        with pytest.raises(ValueError, match="bootstrap seed must be >= 0, got -1"):
            evaluate(bernoulli_pairs(), 10, seed=-1)

    def test_default_resample_budget(self):
        assert DEFAULT_RESAMPLES == 5000

    def test_to_dict_shape(self):
        d = BootstrapSummary(point=0.5, se=0.01, ci_low=0.4, ci_high=0.6).to_dict()
        assert d == {"point": 0.5, "se": 0.01, "ci": [0.4, 0.6]}


#: evaluate(GOLDEN_PAIRS, 500, seed=3), pinned so the resample stream
#: ("mt19937-binomial-per-gold-stratum": per resample, two conditional
#: binomials per non-empty gold stratum in label order, from
#: random.Random(3)) cannot drift silently. The points are those the
#: earlier "pcg64-multinomial-per-gold-stratum" report held.
GOLDEN_PAIRS = (
    bernoulli_pairs(30, 20)
    + [(UP, UP)] * 10 + [(UP, DOWN)] * 5
    + [(DOWN, DOWN)] * 7 + [(DOWN, NONREG)] * 3
)
GOLDEN_REPORT = (
    '{"n": 75, "seed": 3, "prng": "mt19937-binomial-per-gold-stratum", "n_resamples": 500, '
    '"accuracy": {"point": 0.6266666666666667, "se": 0.056599998505058785, "ci": [0.52, '
    '0.7333333333333333]}, "per_class": {"upregulated": {"precision": {"point": '
    '0.3333333333333333, "se": 0.0582374403320746, "ci": [0.21803668478260868, '
    '0.4444444444444444]}, "recall": {"point": 0.6666666666666666, "se": '
    '0.11974618745467838, "ci": [0.4, 0.8666666666666667]}, "f1": {"point": '
    '0.4444444444444444, "se": 0.07323778405690702, "ci": [0.29336441893830706, '
    '0.5777777777777778]}}, "downregulated": {"precision": {"point": 0.5833333333333334, '
    '"se": 0.10396683350063621, "ci": [0.4, 0.8]}, "recall": {"point": 0.7, "se": '
    '0.14001145100607185, "ci": [0.4, 1.0]}, "f1": {"point": 0.6363636363636365, "se": '
    '0.10366312198223075, "ci": [0.4210526315789474, 0.8333333333333333]}}, "not '
    'differentially expressed": {"precision": {"point": 0.9090909090909091, "se": '
    '0.04021518391877873, "ci": [0.8308333333333334, 1.0]}, "recall": {"point": 0.6, "se": '
    '0.07161827108711165, "ci": [0.44, 0.72]}, "f1": {"point": 0.7228915662650602, "se": '
    '0.05685840198422753, "ci": [0.5999377334993774, 0.8161733615221987]}}}}'
)


class TestEvaluate:
    def test_golden_report(self):
        assert json.dumps(evaluate(GOLDEN_PAIRS, 500, seed=3).to_dict()) == GOLDEN_REPORT

    def test_report_dict_keys(self):
        report = evaluate(bernoulli_pairs(), n_resamples=20, seed=0)
        d = report.to_dict()
        assert set(d) == {"n", "seed", "prng", "n_resamples", "accuracy", "per_class"}
        assert d["prng"] == metrics.BOOTSTRAP_PRNG
        assert set(d["per_class"]) == {label.value for label in LABEL_ORDER}
        assert set(d["per_class"]["upregulated"]) == {"precision", "recall", "f1"}
        assert set(d["accuracy"]) == {"point", "se", "ci"}

    def test_n_recorded(self):
        report = evaluate(bernoulli_pairs(), n_resamples=10, seed=0)
        assert report.n == 100 and report.n_resamples == 10 and report.seed == 0


class TestPairsFromScored:
    def test_extracts_gold_and_predicted(self):
        items = rows_of([mk_scored(0, UP, 1.0, gold=DOWN), mk_scored(1, DOWN, 2.0, gold=DOWN)])
        assert pairs_from_scored(items) == [(DOWN, UP), (DOWN, DOWN)]

    def test_missing_gold_fatal_with_count_and_id(self):
        items = rows_of([mk_scored(0, UP, 1.0, gold=UP), mk_scored(1, UP, 1.5),
                         mk_scored(2, UP, 2.0)])
        with pytest.raises(CuratorError, match=r"2 of 3.*q-0001"):
            pairs_from_scored(items)


class TestSweep:
    def scored(self):
        items = []
        for i in range(30):
            gold = UP if i % 3 == 0 else DOWN
            pred = gold if i < 20 else (UP if gold is DOWN else DOWN)
            items.append(mk_scored(i, pred, 1.0 + i, gold=gold))
        return rows_of(items)

    def test_rows_cover_fractions(self):
        rows = subset_quality_sweep(self.scored(), (0.1, 0.5, 1.0))
        assert [r.fraction for r in rows] == [0.1, 0.5, 1.0]
        assert rows[-1].n_retained == 30

    def test_full_fraction_matches_direct_evaluation(self):
        items = self.scored()
        row = subset_quality_sweep(items, (1.0,))[0]
        direct = statistics(confusion(pairs_from_scored(items)))
        assert row.statistics == direct
        assert row.statistics[0] == pytest.approx(20 / 30)

    def test_csv_golden_header_and_formatting(self):
        rows = subset_quality_sweep(self.scored(), (0.5,))
        lines = sweep_csv_lines(rows)
        assert lines[0] == SWEEP_CSV_HEADER == (
            "fraction,n_retained,"
            "up_p,up_r,up_f1,down_p,down_r,down_f1,nonreg_p,nonreg_r,nonreg_f1,acc"
        )
        cells = lines[1].split(",")
        assert cells[0] == "0.5"
        assert len(cells) == 12
        # all metric cells carry six decimals
        assert all("." in c and len(c.split(".")[1]) == 6 for c in cells[2:])
        assert cells[-1] == f"{rows[0].statistics[0]:.6f}"  # accuracy goes last
