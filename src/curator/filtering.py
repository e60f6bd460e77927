"""Uncertainty-based subset selection, decile stratification and
retention sweeps.

Every filter strategy is one rule: split the examples into pools, order
each pool, and keep the first quota of each pool, in input order.

- Pools: one per non-empty predicted class (in LABEL_ORDER) for per-class
  and random-stratified; one holding the whole dataset for global and
  random.
- Order: ascending (score, query id) for the deterministic strategies, so
  ties break deterministically and equal keys keep input order. The
  random controls ignore scores: one Mersenne Twister seeded from the
  spec shuffles the pools in turn (an integer-only Fisher-Yates shuffle,
  stable across platforms and Python versions).
- Quota: floor(fraction * pool size) with a minimum of one; the floor gets
  a 1e-9 nudge so exact products like 0.1 * 4800 never round down through
  float representation.

The order does not depend on the fraction, so for every strategy the
subsets kept from one dataset nest as the fraction grows, and a sweep
ranks once and slices prefixes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from math import fsum
from typing import Sequence

from .errors import CuratorError
from .metrics import confusion, pairs_from_scored, statistics
from .model import LABEL_ORDER, MetricVariant, ScoredRow

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


def _score_of(row: ScoredRow, key: MetricVariant) -> float:
    value = row.scores.value_for(key)
    if value is None:
        raise CuratorError(
            f"example {row.query_id} has no {key.value} score; "
            "re-score the dataset with a variant that produces it"
        )
    return value


def _ranked_pools(scored: Sequence[ScoredRow], spec: FilterSpec) -> list[list[int]]:
    """Each pool's indices into `scored`, in retention order."""
    if not scored:
        raise CuratorError("cannot filter an empty dataset")
    if spec.strategy in (FilterStrategy.PER_CLASS, FilterStrategy.RANDOM_STRATIFIED):
        by_label = {label: [] for label in LABEL_ORDER}
        for idx, row in enumerate(scored):
            by_label[row.predicted_label].append(idx)
        pools = [pool for pool in by_label.values() if pool]
    else:
        pools = [list(range(len(scored)))]
    if spec.strategy.is_random:
        rng = random.Random(spec.seed)
        for pool in pools:
            rng.shuffle(pool)
    else:
        order = [(_score_of(row, spec.ranking_key), row.query_id) for row in scored]
        for pool in pools:
            pool.sort(key=order.__getitem__)
    return pools


def _kept(pools: list[list[int]], fraction: float) -> list[int]:
    """The indices each pool's quota prefix keeps, in input order."""
    return sorted(idx for pool in pools for idx in pool[: _quota(fraction, len(pool))])


def apply_filter(scored: Sequence[ScoredRow], spec: FilterSpec) -> list[ScoredRow]:
    """The examples `spec` retains, in input order."""
    return [scored[i] for i in _kept(_ranked_pools(scored, spec), spec.fraction)]


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
    statistics: list[float]  # see metrics.statistics


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
    scored: Sequence[ScoredRow],
    key: MetricVariant = MetricVariant.COCOA,
) -> DecileReport:
    """Split the examples, which must all carry gold labels, into ten
    contiguous uncertainty bins.

    Examples are sorted ascending by (score, query id) and cut into ten
    bins whose sizes differ by at most one (the remainder goes to the
    lowest-uncertainty bins). Each bin reports per-class precision, recall,
    and F1 of the greedy predictions against gold.
    """
    pairs = pairs_from_scored(scored)
    n = len(pairs)
    if n < 10:
        raise CuratorError(f"decile stratification needs >= 10 gold-labeled examples, got {n}")
    ranks = [(_score_of(row, key), row.query_id) for row in scored]
    order = sorted(range(n), key=ranks.__getitem__)
    base, extra = divmod(n, 10)
    bins: list[DecileBin] = []
    start = 0
    for index in range(10):
        size = base + (1 if index < extra else 0)
        members = order[start : start + size]
        start += size
        bins.append(
            DecileBin(
                index=index + 1,
                count=size,
                mean_score=fsum(ranks[i][0] for i in members) / size,
                statistics=statistics(confusion([pairs[i] for i in members])),
            )
        )
    return DecileReport(key=key, bins=tuple(bins))


@dataclass(frozen=True)
class SweepRow:
    fraction: float
    n_retained: int
    statistics: list[float]  # see metrics.statistics


SWEEP_CSV_HEADER = "fraction,n_retained," + _CLASS_CSV_COLUMNS + ",acc"


def sweep_csv_lines(rows: Sequence[SweepRow]) -> list[str]:
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        cells = [str(row.fraction), str(row.n_retained),
                 *_csv_cells((*row.statistics[1:], row.statistics[0]))]
        lines.append(",".join(cells))
    return lines


def subset_quality_sweep(
    scored: Sequence[ScoredRow],
    fractions: Sequence[float],
    strategy: FilterStrategy = FilterStrategy.PER_CLASS,
    key: MetricVariant = MetricVariant.COCOA,
    seed: int | None = None,
) -> list[SweepRow]:
    """Point metrics of retained subsets across a grid of fractions.

    Every example must carry a gold label, whichever fractions are asked
    for. Ranks the scored dataset once under one strategy, keeps each
    fraction's quota prefixes, and evaluates the greedy predictions of
    whatever was retained against gold labels.
    """
    rows: list[SweepRow] = []
    pairs = pools = None
    for fraction in fractions:
        spec = FilterSpec(strategy=strategy, fraction=fraction, ranking_key=key, seed=seed)
        if pools is None:  # after the first spec check; gold labels first, as decile_stratify
            pairs = pairs_from_scored(scored)
            pools = _ranked_pools(scored, spec)
        kept = _kept(pools, fraction)
        rows.append(
            SweepRow(
                fraction=fraction,
                n_retained=len(kept),
                statistics=statistics(confusion([pairs[i] for i in kept])),
            )
        )
    return rows
