"""Evaluation metrics: confusion counts, the statistics computed from them,
and a stratified bootstrap for uncertainty-aware reporting.

`statistics` is the one place where counts become numbers: it maps the
nine (gold, predicted) counts of one confusion matrix to accuracy followed
by the precision, recall and F1 of each class in label order. The
bootstrap, the decile report and the retention sweep all call it. The
module is plain Python, as is the whole package: no command loads numpy.

The bootstrap resamples with replacement inside each gold-class stratum,
preserving stratum sizes, so class balance never drifts across resamples.
Drawing n pairs with replacement from a stratum of n pairs gives its
predicted-class counts (c0, c1, c2) the distribution Multinomial(n, c/n)
(Efron & Tibshirani, An Introduction to the Bootstrap, 1993), drawn here
as conditional binomials: x0 ~ Bin(n, c0/n), x1 ~ Bin(n - x0,
c1/(c1 + c2)), and x2 takes the rest. Every resample goes through the
non-empty strata in label order, drawing from one Mersenne Twister,
`random.Random(seed)`; `report.json` names the scheme under `prng`.

Reported numbers follow the usual conventions: the point estimate is the
statistic on the original data (never a resample mean), the standard error
is the sample standard deviation across resamples (two passes of
`math.fsum`), and the 95% interval takes the 2.5th/97.5th percentiles with
linear interpolation. `_percentile` computes them exactly as
np.percentile's default method does.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from math import fabs, floor, fsum, lgamma, log2, sqrt
from random import Random
from typing import Iterable, Sequence

from .errors import CuratorError
from .model import LABEL_ORDER, ClassLabel, ScoredRow

log = logging.getLogger(__name__)

DEFAULT_RESAMPLES = 5000

#: Name of the bootstrap's resample scheme, recorded in evaluation reports.
BOOTSTRAP_PRNG = "mt19937-binomial-per-gold-stratum"

_LABEL_INDEX = {label: i for i, label in enumerate(LABEL_ORDER)}

#: The per-class statistics, in the order `statistics` lays them out.
_CLASS_METRICS = ("precision", "recall", "f1")

#: A (gold, predicted) pair, the atom of evaluation.
Pair = tuple[ClassLabel, ClassLabel]


def confusion(pairs: Sequence[Pair]) -> list[int]:
    """Tally (gold, predicted) pairs into nine counts: the 3x3 matrix
    indexed (gold, predicted) in canonical label order, row by row."""
    if not pairs:
        raise CuratorError("cannot build a confusion matrix from zero pairs")
    counts = [0] * 9
    for gold, pred in pairs:
        counts[3 * _LABEL_INDEX[gold] + _LABEL_INDEX[pred]] += 1
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def statistics(counts: Sequence[int]) -> list[float]:
    """Map the nine counts of one confusion matrix (as `confusion` lays
    them out) to ten statistics.

    Item 0 is accuracy; items 1 + 3*i .. 3 + 3*i are the precision,
    recall and F1 of LABEL_ORDER[i]. A zero denominator yields 0.0.
    """
    values = [_ratio(counts[0] + counts[4] + counts[8], sum(counts))]
    for i in range(3):
        tp = counts[4 * i]
        precision = _ratio(tp, counts[i] + counts[3 + i] + counts[6 + i])
        recall = _ratio(tp, counts[3 * i] + counts[3 * i + 1] + counts[3 * i + 2])
        values += (precision, recall, _ratio(2 * precision * recall, precision + recall))
    return values


@dataclass(frozen=True)
class BootstrapSummary:
    point: float
    se: float
    ci_low: float
    ci_high: float

    def to_dict(self) -> dict:
        return {"point": self.point, "se": self.se, "ci": [self.ci_low, self.ci_high]}


def _percentile(ranked: Sequence[float], q: float) -> float:
    """The q-th percentile of ascending values, as np.percentile's default
    linear method computes it, with the same float operations."""
    index = (len(ranked) - 1) * (q / 100)
    lo = floor(index)
    a, b, t = ranked[lo], ranked[min(lo + 1, len(ranked) - 1)], index - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _summarize(point: float, column: Sequence[float]) -> BootstrapSummary:
    n = len(column)
    if n < 2:
        se = 0.0
    else:
        mean = fsum(column) / n
        se = sqrt(fsum((v - mean) * (v - mean) for v in column) / (n - 1))
    ranked = sorted(column)
    return BootstrapSummary(point=point, se=se, ci_low=_percentile(ranked, 2.5),
                            ci_high=_percentile(ranked, 97.5))


def _binomial(random: Random, n: int, p: float) -> int:
    """One Binomial(n, p) draw, for 0 <= p <= 1, consuming `random` exactly
    as Python 3.12's `Random.binomialvariate(n, p)` does (written out
    because the project supports 3.10): Devroye's geometric method below
    n * p = 10 and Hörmann's BTRS (1993) above it, after flipping p > 0.5."""
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    uniform = random.random
    if n == 1:
        return int(uniform() < p)
    if p > 0.5:
        return n - _binomial(random, n, 1.0 - p)
    if n * p < 10.0:
        # Devroye, "Generating the binomial distribution" (geometric gaps)
        x = y = 0
        c = log2(1.0 - p)
        if not c:
            return x
        while True:
            y += floor(log2(uniform()) / c) + 1
            if y > n:
                return x
            x += 1
    # Hörmann, "The generation of binomial random variates" (BTRS)
    spq = sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    setup_complete = False
    while True:
        u = uniform() - 0.5
        us = 0.5 - fabs(u)
        k = floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = uniform()
        if us >= 0.07 and v <= vr:  # the squeeze
            return k
        if not setup_complete:
            alpha = (2.83 + 5.1 / b) * spq
            lpq = math.log(p / (1.0 - p))
            m = floor((n + 1) * p)  # the mode
            h = lgamma(m + 1) + lgamma(n - m + 1)
            setup_complete = True
        v *= alpha / (a / (us * us) + b)
        if math.log(v) <= h - lgamma(k + 1) - lgamma(n - k + 1) + (k - m) * lpq:
            return k


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
            "prng": BOOTSTRAP_PRNG,
            "n_resamples": self.n_resamples,
            "accuracy": self.accuracy.to_dict(),
            "per_class": {
                label.value: {
                    name: summary.to_dict() for name, summary in metrics.items()
                }
                for label, metrics in self.per_class.items()
            },
        }


def evaluate(
    pairs: Sequence[Pair],
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> EvalReport:
    """Full evaluation report over (gold, predicted) pairs.

    Resample r draws, from `random.Random(seed)`, the predicted-class
    counts of each non-empty gold stratum in label order, as conditional
    binomials; every statistic of resample r is computed from those
    counts. The seed must be non-negative: Random would use its absolute
    value.
    """
    if not pairs:
        raise CuratorError("cannot evaluate zero pairs")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    if seed < 0:
        raise ValueError(f"bootstrap seed must be >= 0, got {seed}")
    if n_resamples < 2:
        log.warning("fewer than 2 resamples: standard errors degenerate to 0")
    counts = confusion(pairs)
    # imported here: every command imports this module, and the array
    # extension adds about 0.14 MB to the peak RSS of each one
    from array import array

    try:  # one block, before the first draw: a count memory cannot hold fails at once
        values = array("d", [0.0]) * (10 * n_resamples)
    except (OverflowError, MemoryError):
        raise CuratorError(f"cannot hold {n_resamples} bootstrap resamples in memory") from None
    strata = []  # (offset of the gold row, n, P(first class), P(second | not first))
    for start in range(0, 9, 3):
        c0, c1, c2 = counts[start : start + 3]
        n = c0 + c1 + c2
        if n:
            strata.append((start, n, c0 / n, c1 / (c1 + c2) if c1 + c2 else 0.0))
    random = Random(seed)
    resample = [0] * 9
    for r in range(n_resamples):
        for start, n, p0, p1 in strata:
            x0 = _binomial(random, n, p0)
            x1 = _binomial(random, n - x0, p1)
            resample[start : start + 3] = x0, x1, n - x0 - x1
        for i, value in enumerate(statistics(resample), 10 * r):
            values[i] = value
    summaries = [_summarize(point, values[i::10]) for i, point in enumerate(statistics(counts))]
    per_class = {
        label: dict(zip(_CLASS_METRICS, summaries[1 + 3 * i : 4 + 3 * i]))
        for i, label in enumerate(LABEL_ORDER)
    }
    return EvalReport(
        n=len(pairs),
        seed=seed,
        n_resamples=n_resamples,
        accuracy=summaries[0],
        per_class=per_class,
    )


def pairs_from_scored(scored: Iterable[ScoredRow]) -> list[Pair]:
    """Extract (gold, predicted) pairs, requiring gold labels throughout."""
    pairs: list[Pair] = []
    missing: list[str] = []
    for row in scored:
        gold = row.gold_label
        if gold is None:
            missing.append(row.query_id)
        else:
            pairs.append((gold, row.predicted_label))
    if missing:
        raise CuratorError(
            f"{len(missing)} of {len(missing) + len(pairs)} examples lack gold labels "
            f"(first: {missing[0]})"
        )
    return pairs
