"""Evaluation metrics: confusion matrices, per-class scores, and a
stratified bootstrap for uncertainty-aware reporting.

The bootstrap resamples with replacement inside each gold-class stratum,
preserving stratum sizes, so class balance never drifts across resamples.
Reported numbers follow the usual conventions: the point estimate is the
statistic on the original data (never a resample mean), the standard error
is the sample standard deviation across resamples, and the 95% interval
takes the 2.5th/97.5th percentiles with linear interpolation.

Each resample draws from its own substream derived from (seed, resample
index), so results are independent of evaluation order and worker count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptyEvalSet, MissingGoldLabels
from .model import LABEL_ORDER, ClassLabel, MetricVariant, ScoredExample
from .simulate import _substream

log = logging.getLogger(__name__)

DEFAULT_RESAMPLES = 5000

_LABEL_INDEX = {label: i for i, label in enumerate(LABEL_ORDER)}

#: A (gold, predicted) pair, the atom of evaluation.
Pair = tuple[ClassLabel, ClassLabel]


@dataclass(frozen=True)
class ConfusionMatrix:
    """3x3 counts indexed (gold, predicted) in canonical label order."""

    counts: tuple[tuple[int, int, int], ...]

    def count(self, gold: ClassLabel, predicted: ClassLabel) -> int:
        return self.counts[_LABEL_INDEX[gold]][_LABEL_INDEX[predicted]]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def correct(self) -> int:
        return sum(self.counts[i][i] for i in range(3))

    def gold_total(self, label: ClassLabel) -> int:
        return sum(self.counts[_LABEL_INDEX[label]])

    def predicted_total(self, label: ClassLabel) -> int:
        j = _LABEL_INDEX[label]
        return sum(row[j] for row in self.counts)


def confusion(pairs: Sequence[Pair]) -> ConfusionMatrix:
    """Tally (gold, predicted) pairs into a confusion matrix."""
    if not pairs:
        raise EmptyEvalSet("cannot build a confusion matrix from zero pairs")
    counts = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for gold, pred in pairs:
        counts[_LABEL_INDEX[gold]][_LABEL_INDEX[pred]] += 1
    return ConfusionMatrix(counts=tuple(tuple(row) for row in counts))


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


def class_metrics(cm: ConfusionMatrix, label: ClassLabel) -> ClassMetrics:
    """Precision/recall/F1 for one class; zero denominators yield 0.0."""
    tp = cm.count(label, label)
    predicted = cm.predicted_total(label)
    gold = cm.gold_total(label)
    precision = tp / predicted if predicted else 0.0
    recall = tp / gold if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ClassMetrics(precision=precision, recall=recall, f1=f1)


def accuracy(cm: ConfusionMatrix) -> float:
    return cm.correct / cm.total if cm.total else 0.0


def _encode(pairs: Sequence[Pair]) -> tuple[np.ndarray, np.ndarray]:
    golds = np.array([_LABEL_INDEX[g] for g, _ in pairs], dtype=np.int64)
    preds = np.array([_LABEL_INDEX[p] for _, p in pairs], dtype=np.int64)
    return golds, preds


def _resampled_confusions(
    golds: np.ndarray, preds: np.ndarray, n_resamples: int, seed: int
) -> Iterator[ConfusionMatrix]:
    strata = [preds[golds == i] for i in range(3)]
    for r in range(n_resamples):
        rng = _substream(seed, r)
        rows = []
        for i, stratum in enumerate(strata):
            if len(stratum) == 0:
                rows.append((0, 0, 0))
                continue
            picks = stratum[rng.integers(0, len(stratum), size=len(stratum))]
            rows.append(tuple(int(c) for c in np.bincount(picks, minlength=3)))
        yield ConfusionMatrix(counts=tuple(rows))


@dataclass(frozen=True)
class BootstrapSummary:
    point: float
    se: float
    ci_low: float
    ci_high: float

    def to_dict(self) -> dict:
        return {"point": self.point, "se": self.se, "ci": [self.ci_low, self.ci_high]}


def _summarize(point: float, values: np.ndarray) -> BootstrapSummary:
    if len(values) < 2:
        se = 0.0
    else:
        se = float(np.std(values, ddof=1))
    lo, hi = np.percentile(values, [2.5, 97.5])
    return BootstrapSummary(point=point, se=se, ci_low=float(lo), ci_high=float(hi))


def stratified_bootstrap(
    pairs: Sequence[Pair],
    statistic: Callable[[ConfusionMatrix], float],
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> BootstrapSummary:
    """Bootstrap one statistic of the confusion matrix.

    The statistic is any callable on a ConfusionMatrix, e.g. ``accuracy``
    or ``lambda cm: class_metrics(cm, label).f1``.
    """
    if not pairs:
        raise EmptyEvalSet("cannot bootstrap zero pairs")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    if n_resamples < 2:
        log.warning("fewer than 2 resamples: standard errors degenerate to 0")
    golds, preds = _encode(pairs)
    point = statistic(confusion(pairs))
    values = np.fromiter(
        (statistic(cm) for cm in _resampled_confusions(golds, preds, n_resamples, seed)),
        dtype=float,
        count=n_resamples,
    )
    return _summarize(point, values)


@dataclass
class EvalReport:
    """Accuracy plus per-class precision/recall/F1, each with bootstrap
    uncertainty."""

    n: int
    seed: int
    n_resamples: int
    accuracy: BootstrapSummary
    per_class: dict[ClassLabel, dict[str, BootstrapSummary]]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "seed": self.seed,
            "n_resamples": self.n_resamples,
            "accuracy": self.accuracy.to_dict(),
            "per_class": {
                label.value: {
                    name: summary.to_dict() for name, summary in metrics.items()
                }
                for label, metrics in self.per_class.items()
            },
        }


def _all_statistics(cm: ConfusionMatrix) -> list[float]:
    values = [accuracy(cm)]
    for label in LABEL_ORDER:
        m = class_metrics(cm, label)
        values.extend((m.precision, m.recall, m.f1))
    return values


def evaluate(
    pairs: Sequence[Pair],
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> EvalReport:
    """Full evaluation report over (gold, predicted) pairs.

    Every statistic shares the same resample stream, so single-statistic
    calls to stratified_bootstrap with the same seed reproduce these
    numbers exactly.
    """
    if not pairs:
        raise EmptyEvalSet("cannot evaluate zero pairs")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    if n_resamples < 2:
        log.warning("fewer than 2 resamples: standard errors degenerate to 0")
    golds, preds = _encode(pairs)
    points = _all_statistics(confusion(pairs))
    values = np.empty((n_resamples, len(points)), dtype=float)
    for r, cm in enumerate(_resampled_confusions(golds, preds, n_resamples, seed)):
        values[r] = _all_statistics(cm)
    summaries = [_summarize(p, values[:, i]) for i, p in enumerate(points)]
    per_class: dict[ClassLabel, dict[str, BootstrapSummary]] = {}
    pos = 1
    for label in LABEL_ORDER:
        per_class[label] = {
            "precision": summaries[pos],
            "recall": summaries[pos + 1],
            "f1": summaries[pos + 2],
        }
        pos += 3
    return EvalReport(
        n=len(pairs),
        seed=seed,
        n_resamples=n_resamples,
        accuracy=summaries[0],
        per_class=per_class,
    )


def pairs_from_scored(scored: Iterable[ScoredExample]) -> list[Pair]:
    """Extract (gold, predicted) pairs, requiring gold labels throughout."""
    pairs: list[Pair] = []
    missing: list[str] = []
    for ex in scored:
        gold = ex.bundle.query.gold_label
        if gold is None:
            missing.append(ex.bundle.query.id)
        else:
            pairs.append((gold, ex.predicted_label))
    if missing:
        raise MissingGoldLabels(
            f"{len(missing)} of {len(missing) + len(pairs)} examples lack gold labels "
            f"(first: {missing[0]})"
        )
    return pairs


@dataclass(frozen=True)
class SweepRow:
    fraction: float
    n_retained: int
    per_class: dict[ClassLabel, ClassMetrics]
    accuracy: float


SWEEP_CSV_HEADER = (
    "fraction,n_retained,"
    "up_p,up_r,up_f1,down_p,down_r,down_f1,nonreg_p,nonreg_r,nonreg_f1,acc"
)


def sweep_csv_lines(rows: Sequence[SweepRow]) -> list[str]:
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        cells = [str(row.fraction), str(row.n_retained)]
        for label in LABEL_ORDER:
            m = row.per_class[label]
            cells.extend(f"{v:.6f}" for v in (m.precision, m.recall, m.f1))
        cells.append(f"{row.accuracy:.6f}")
        lines.append(",".join(cells))
    return lines


def subset_quality_sweep(
    scored: Sequence[ScoredExample],
    fractions: Sequence[float],
    strategy=None,
    key: MetricVariant = MetricVariant.COCOA,
    seed: int | None = None,
) -> list[SweepRow]:
    """Point metrics of retained subsets across a grid of fractions.

    Filters the same scored dataset at each fraction under one strategy
    (default per-class) and evaluates the greedy predictions of whatever
    was retained against gold labels.
    """
    # imported here: filtering builds on metrics, not the other way round
    from .filtering import FilterSpec, FilterStrategy, apply_filter

    if strategy is None:
        strategy = FilterStrategy.PER_CLASS
    rows: list[SweepRow] = []
    for fraction in fractions:
        spec = FilterSpec(strategy=strategy, fraction=fraction, ranking_key=key, seed=seed)
        subset = apply_filter(scored, spec)
        cm = confusion(pairs_from_scored(subset))
        rows.append(
            SweepRow(
                fraction=fraction,
                n_retained=len(subset),
                per_class={label: class_metrics(cm, label) for label in LABEL_ORDER},
                accuracy=accuracy(cm),
            )
        )
    return rows
