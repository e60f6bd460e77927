"""Uncertainty-based subset selection, decile stratification and
retention sweeps.

All strategies keep the lowest-uncertainty examples and preserve the input
file order of whatever they retain. Ranking sorts ascending by
(score, query id) so ties break deterministically.

Retention quotas use floor(fraction * n) with a minimum of one per
non-empty group; the floor gets a 1e-9 nudge so exact products like
0.1 * 4800 never round down through float representation.

Random selection exists as a size-matched control. It shuffles indices
with a Mersenne Twister Fisher-Yates shuffle (integer-only, stable across
platforms and Python versions) and takes a prefix, which also makes
same-seed subsets nested across fractions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from math import fsum
from typing import TYPE_CHECKING, Sequence

from .errors import EmptyDataset, MissingScore, TooFewExamples
from .metrics import confusion, pairs_from_scored, statistics
from .model import LABEL_ORDER, ClassLabel, MetricVariant, ScoredExample

if TYPE_CHECKING:
    import numpy as np

#: Name of the shuffle algorithm recorded in manifests of random subsets.
RANDOM_FILTER_PRNG = "mt19937-fisher-yates-prefix"


class FilterStrategy(Enum):
    PER_CLASS = "per-class"
    GLOBAL = "global"
    RANDOM_UNIFORM = "random"
    RANDOM_STRATIFIED = "random-stratified"

    @property
    def is_random(self) -> bool:
        return self in (FilterStrategy.RANDOM_UNIFORM, FilterStrategy.RANDOM_STRATIFIED)


@dataclass(frozen=True)
class FilterSpec:
    """A complete description of one filtering run."""

    strategy: FilterStrategy
    fraction: float
    ranking_key: MetricVariant = MetricVariant.COCOA
    seed: int | None = None

    def __post_init__(self):
        if not 0 < self.fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.strategy.is_random and self.seed is None:
            raise ValueError(f"strategy {self.strategy.value} requires a seed")


def _quota(fraction: float, n: int) -> int:
    if n == 0:
        return 0
    return max(1, math.floor(fraction * n + 1e-9))


def _score_of(ex: ScoredExample, key: MetricVariant) -> float:
    value = ex.score_for(key)
    if value is None:
        raise MissingScore(
            f"example {ex.bundle.query.id} has no {key.value} score; "
            "re-score the dataset with a variant that produces it"
        )
    return value


def _require_nonempty(scored: Sequence[ScoredExample]) -> None:
    if not scored:
        raise EmptyDataset("cannot filter an empty dataset")


def filter_per_class(
    scored: Sequence[ScoredExample],
    fraction: float,
    key: MetricVariant = MetricVariant.COCOA,
) -> list[ScoredExample]:
    """Keep the lowest-uncertainty fraction of each predicted class.

    Grouping uses the predicted class because curation runs label-free.
    Each non-empty class keeps max(1, floor(fraction * class size)).
    """
    _require_nonempty(scored)
    groups: dict[ClassLabel, list[tuple[float, str, int]]] = {}
    for idx, ex in enumerate(scored):
        groups.setdefault(ex.predicted_label, []).append(
            (_score_of(ex, key), ex.bundle.query.id, idx)
        )
    keep: list[int] = []
    for members in groups.values():
        members.sort(key=lambda t: (t[0], t[1]))
        keep.extend(idx for _, _, idx in members[: _quota(fraction, len(members))])
    return [scored[i] for i in sorted(keep)]


def filter_global(
    scored: Sequence[ScoredExample],
    fraction: float,
    key: MetricVariant = MetricVariant.COCOA,
) -> list[ScoredExample]:
    """Keep the lowest-uncertainty fraction of the pooled dataset."""
    _require_nonempty(scored)
    ranked = sorted(
        range(len(scored)),
        key=lambda i: (_score_of(scored[i], key), scored[i].bundle.query.id),
    )
    keep = sorted(ranked[: _quota(fraction, len(scored))])
    return [scored[i] for i in keep]


def filter_random(
    scored: Sequence[ScoredExample],
    fraction: float,
    seed: int,
    stratified: bool = False,
) -> list[ScoredExample]:
    """Seeded random subset, uniform or stratified by predicted class.

    Quotas match the deterministic strategies (floor with a minimum of one
    per non-empty group) so random subsets are size-matched controls.
    """
    _require_nonempty(scored)
    rng = random.Random(seed)
    keep: list[int] = []
    if stratified:
        for label in LABEL_ORDER:
            members = [i for i, ex in enumerate(scored) if ex.predicted_label is label]
            if not members:
                continue
            rng.shuffle(members)
            keep.extend(members[: _quota(fraction, len(members))])
    else:
        indices = list(range(len(scored)))
        rng.shuffle(indices)
        keep = indices[: _quota(fraction, len(scored))]
    return [scored[i] for i in sorted(keep)]


def apply_filter(scored: Sequence[ScoredExample], spec: FilterSpec) -> list[ScoredExample]:
    if spec.strategy is FilterStrategy.PER_CLASS:
        return filter_per_class(scored, spec.fraction, spec.ranking_key)
    if spec.strategy is FilterStrategy.GLOBAL:
        return filter_global(scored, spec.fraction, spec.ranking_key)
    return filter_random(
        scored,
        spec.fraction,
        spec.seed,
        stratified=spec.strategy is FilterStrategy.RANDOM_STRATIFIED,
    )


#: The nine per-class CSV columns, in the order of `statistics`[1:].
_CLASS_CSV_COLUMNS = ",".join(
    f"{short}_{m}" for short in ("up", "down", "nonreg") for m in ("p", "r", "f1")
)


def _csv_cells(values) -> list[str]:
    return [f"{v:.6f}" for v in values]


@dataclass(frozen=True)
class DecileBin:
    index: int
    count: int
    mean_score: float
    statistics: np.ndarray  # see metrics.statistics


@dataclass(frozen=True)
class DecileReport:
    key: MetricVariant
    bins: tuple[DecileBin, ...]

    CSV_HEADER = "bin,count,mean_score," + _CLASS_CSV_COLUMNS

    def csv_lines(self) -> list[str]:
        lines = [self.CSV_HEADER]
        for b in self.bins:
            cells = [str(b.index), str(b.count), *_csv_cells((b.mean_score, *b.statistics[1:]))]
            lines.append(",".join(cells))
        return lines


def decile_stratify(
    scored: Sequence[ScoredExample],
    key: MetricVariant = MetricVariant.COCOA,
) -> DecileReport:
    """Split gold-labeled examples into ten contiguous uncertainty bins.

    Examples are sorted ascending by (score, query id) and cut into ten
    bins whose sizes differ by at most one (the remainder goes to the
    lowest-uncertainty bins). Each bin reports per-class precision, recall,
    and F1 of the greedy predictions against gold.
    """
    labeled = [ex for ex in scored if ex.bundle.query.gold_label is not None]
    if len(labeled) < 10:
        raise TooFewExamples(
            f"decile stratification needs >= 10 gold-labeled examples, got {len(labeled)}"
        )
    labeled.sort(key=lambda ex: (_score_of(ex, key), ex.bundle.query.id))
    n = len(labeled)
    base, extra = divmod(n, 10)
    bins: list[DecileBin] = []
    start = 0
    for index in range(10):
        size = base + (1 if index < extra else 0)
        members = labeled[start : start + size]
        start += size
        bins.append(
            DecileBin(
                index=index + 1,
                count=size,
                mean_score=fsum(_score_of(ex, key) for ex in members) / size,
                statistics=statistics(confusion(pairs_from_scored(members))),
            )
        )
    return DecileReport(key=key, bins=tuple(bins))


@dataclass(frozen=True)
class SweepRow:
    fraction: float
    n_retained: int
    statistics: np.ndarray  # see metrics.statistics


SWEEP_CSV_HEADER = "fraction,n_retained," + _CLASS_CSV_COLUMNS + ",acc"


def sweep_csv_lines(rows: Sequence[SweepRow]) -> list[str]:
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        cells = [str(row.fraction), str(row.n_retained),
                 *_csv_cells((*row.statistics[1:], row.statistics[0]))]
        lines.append(",".join(cells))
    return lines


def subset_quality_sweep(
    scored: Sequence[ScoredExample],
    fractions: Sequence[float],
    strategy: FilterStrategy = FilterStrategy.PER_CLASS,
    key: MetricVariant = MetricVariant.COCOA,
    seed: int | None = None,
) -> list[SweepRow]:
    """Point metrics of retained subsets across a grid of fractions.

    Filters the same scored dataset at each fraction under one strategy
    and evaluates the greedy predictions of whatever was retained against
    gold labels.
    """
    rows: list[SweepRow] = []
    for fraction in fractions:
        spec = FilterSpec(strategy=strategy, fraction=fraction, ranking_key=key, seed=seed)
        subset = apply_filter(scored, spec)
        rows.append(
            SweepRow(
                fraction=fraction,
                n_retained=len(subset),
                statistics=statistics(confusion(pairs_from_scored(subset))),
            )
        )
    return rows
