"""Evaluation metrics: confusion counts, the statistics computed from them,
and a stratified bootstrap for uncertainty-aware reporting.

`statistics` is the one place where counts become numbers: it maps the
nine (gold, predicted) counts of one confusion matrix to accuracy followed
by the precision, recall and F1 of each class in label order. The
bootstrap, the decile report and the retention sweep all call it. It is
plain Python, so of the commands that compute metrics only `evaluate`
loads numpy, for its random stream and its standard deviations.

The bootstrap resamples with replacement inside each gold-class stratum,
preserving stratum sizes, so class balance never drifts across resamples.
Drawing n_i pairs with replacement from a stratum of n_i pairs gives its
predicted-class counts the distribution Multinomial(n_i, p_i), where p_i
holds the stratum's observed predicted-class shares (Efron & Tibshirani,
An Introduction to the Bootstrap, 1993). So each non-empty stratum's
counts for all resamples are one multinomial draw, in label order, from
one stream seeded by the evaluation seed; `report.json` names the scheme
under `prng`.

Reported numbers follow the usual conventions: the point estimate is the
statistic on the original data (never a resample mean), the standard error
is the sample standard deviation across resamples, and the 95% interval
takes the 2.5th/97.5th percentiles with linear interpolation. `_percentile`
computes them in Python exactly as np.percentile's default method does:
np.percentile would load numpy.ma (through np.unique), which raises
evaluate's peak memory by about 1.6 MB.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import CuratorError
from .model import LABEL_ORDER, ClassLabel, ScoredRow
from .simulate import _substream

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

DEFAULT_RESAMPLES = 5000

#: Name of the bootstrap's resample scheme, recorded in evaluation reports.
BOOTSTRAP_PRNG = "pcg64-multinomial-per-gold-stratum"

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
    lo = math.floor(index)
    a, b, t = ranked[lo], ranked[min(lo + 1, len(ranked) - 1)], index - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _summarize(point: float, values: np.ndarray) -> BootstrapSummary:
    import numpy as np

    if len(values) < 2:
        se = 0.0
    else:
        se = float(np.std(values, ddof=1))
    ranked = sorted(values.tolist())
    return BootstrapSummary(point=point, se=se, ci_low=_percentile(ranked, 2.5),
                            ci_high=_percentile(ranked, 97.5))


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

    Each non-empty gold stratum, in label order, draws its predicted-class
    counts for all resamples at once from `_substream(seed, 0)`; every
    statistic of resample r is computed from the same resampled counts.
    """
    import numpy as np

    if not pairs:
        raise CuratorError("cannot evaluate zero pairs")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    if n_resamples < 2:
        log.warning("fewer than 2 resamples: standard errors degenerate to 0")
    counts = confusion(pairs)
    try:
        resampled = np.zeros((n_resamples, 9), dtype=np.int64)
        values = np.empty((n_resamples, 10))
    except (ValueError, MemoryError):  # more than numpy can index or allocate
        raise CuratorError(f"cannot hold {n_resamples} bootstrap resamples in memory") from None
    rng = _substream(seed, 0)
    for start in range(0, 9, 3):  # one gold class's row of counts
        stratum = counts[start : start + 3]
        n = sum(stratum)
        if n:
            shares = [c / n for c in stratum]
            resampled[:, start : start + 3] = rng.multinomial(n, shares, size=n_resamples)
    # row by row: a list of all the resamples would raise the peak memory
    for r, resample in enumerate(resampled):
        values[r] = statistics(resample.tolist())
    summaries = [_summarize(point, values[:, i]) for i, point in enumerate(statistics(counts))]
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
