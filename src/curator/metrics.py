"""Evaluation metrics: confusion counts, the statistics computed from them,
and a stratified bootstrap for uncertainty-aware reporting.

`statistics` is the one place where counts become numbers: it maps any
stack of 3x3 (gold, predicted) count arrays to accuracy followed by the
precision, recall and F1 of each class in label order. The bootstrap,
the decile report and the retention sweep all call it.

The bootstrap resamples with replacement inside each gold-class stratum,
preserving stratum sizes, so class balance never drifts across resamples.
Reported numbers follow the usual conventions: the point estimate is the
statistic on the original data (never a resample mean), the standard error
is the sample standard deviation across resamples, and the 95% interval
takes the 2.5th/97.5th percentiles with linear interpolation.

Each resample draws from its own substream derived from (seed, resample
index), so results are independent of evaluation order.

numpy is imported inside the functions that use it, so importing this
module (as `filtering` does for `filter`) does not load it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import EmptyEvalSet, MissingGoldLabels
from .model import LABEL_ORDER, ClassLabel, Scored
from .simulate import _substream

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

DEFAULT_RESAMPLES = 5000

_LABEL_INDEX = {label: i for i, label in enumerate(LABEL_ORDER)}

#: The per-class statistics, in the order `statistics` lays them out.
_CLASS_METRICS = ("precision", "recall", "f1")

#: A (gold, predicted) pair, the atom of evaluation.
Pair = tuple[ClassLabel, ClassLabel]


def _encode(pairs: Sequence[Pair]) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    golds = np.array([_LABEL_INDEX[g] for g, _ in pairs], dtype=np.int64)
    preds = np.array([_LABEL_INDEX[p] for _, p in pairs], dtype=np.int64)
    return golds, preds


def confusion(pairs: Sequence[Pair]) -> np.ndarray:
    """Tally (gold, predicted) pairs into 3x3 counts indexed (gold,
    predicted) in canonical label order."""
    import numpy as np

    if not pairs:
        raise EmptyEvalSet("cannot build a confusion matrix from zero pairs")
    golds, preds = _encode(pairs)
    return np.bincount(golds * 3 + preds, minlength=9).reshape(3, 3)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.divide(num, den, out=np.zeros(np.shape(den)), where=den != 0)


def statistics(counts: np.ndarray) -> np.ndarray:
    """Map (..., 3, 3) confusion counts to (..., 10) statistics.

    Column 0 is accuracy; columns 1 + 3*i .. 3 + 3*i are the precision,
    recall and F1 of LABEL_ORDER[i]. A zero denominator yields 0.0.
    """
    import numpy as np

    tp = np.diagonal(counts, axis1=-2, axis2=-1)
    precision = _ratio(tp, counts.sum(axis=-2))
    recall = _ratio(tp, counts.sum(axis=-1))
    f1 = _ratio(2 * precision * recall, precision + recall)
    acc = _ratio(tp.sum(axis=-1), counts.sum(axis=(-2, -1)))
    per_class = np.stack((precision, recall, f1), axis=-1).reshape(*acc.shape, 9)
    return np.concatenate((acc[..., None], per_class), axis=-1)


@dataclass(frozen=True)
class BootstrapSummary:
    point: float
    se: float
    ci_low: float
    ci_high: float

    def to_dict(self) -> dict:
        return {"point": self.point, "se": self.se, "ci": [self.ci_low, self.ci_high]}


def _summarize(point: float, values: np.ndarray) -> BootstrapSummary:
    import numpy as np

    if len(values) < 2:
        se = 0.0
    else:
        se = float(np.std(values, ddof=1))
    lo, hi = np.percentile(values, [2.5, 97.5])
    return BootstrapSummary(point=point, se=se, ci_low=float(lo), ci_high=float(hi))


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


def evaluate(
    pairs: Sequence[Pair],
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> EvalReport:
    """Full evaluation report over (gold, predicted) pairs.

    Resample r draws one index vector per non-empty gold stratum, in
    label order, from `_substream(seed, r)`; every statistic is computed
    from the same resampled counts.
    """
    import numpy as np

    if not pairs:
        raise EmptyEvalSet("cannot evaluate zero pairs")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    if n_resamples < 2:
        log.warning("fewer than 2 resamples: standard errors degenerate to 0")
    golds, preds = _encode(pairs)
    strata = [preds[golds == i] for i in range(3)]
    counts = np.zeros((n_resamples, 3, 3), dtype=np.int64)
    for r in range(n_resamples):
        rng = _substream(seed, r)
        for i, stratum in enumerate(strata):
            if len(stratum):
                picks = stratum[rng.integers(0, len(stratum), size=len(stratum))]
                counts[r, i] = np.bincount(picks, minlength=3)
    values = statistics(counts)
    summaries = [
        _summarize(float(point), values[:, i])
        for i, point in enumerate(statistics(confusion(pairs)))
    ]
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


def pairs_from_scored(scored: Iterable[Scored]) -> list[Pair]:
    """Extract (gold, predicted) pairs, requiring gold labels throughout."""
    pairs: list[Pair] = []
    missing: list[str] = []
    for ex in scored:
        gold = ex.gold_label
        if gold is None:
            missing.append(ex.query_id)
        else:
            pairs.append((gold, ex.predicted_label))
    if missing:
        raise MissingGoldLabels(
            f"{len(missing)} of {len(missing) + len(pairs)} examples lack gold labels "
            f"(first: {missing[0]})"
        )
    return pairs
