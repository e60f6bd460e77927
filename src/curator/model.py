"""Domain types for reasoning-trace datasets.

The unit of work is a bundle: one query, one greedy-decoded trace, and k
sampled traces. A scored example wraps a bundle with its uncertainty
scores. All types are immutable values and safe to share across threads.

Answer extraction is total: it never raises on arbitrary model output and
reports failures through a ParseStatus instead.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import UnknownAnswerString

#: Log-probabilities above zero by at most this much are rounding noise;
#: a larger one fails a completion response and stops `score`.
LOGPROB_TOLERANCE = 1e-9

_ANSWER_OPEN = "<answer>"
_ANSWER_CLOSE = "</answer>"

_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string",
               dict: "an object"}


def checked(value, name: str, kind: type, nullable: bool = False):
    """value if it has JSON type kind (or is None and nullable), else a
    ValueError naming it. This is the one type rule of config settings and
    dataset fields: bool is never an int, a number (kind float) may be
    given as an int but comes back as a float, and a number is finite."""
    if value is None and nullable:
        return None
    if isinstance(value, bool):
        fits = kind is bool
    elif kind is float:  # NaN, infinities and integers beyond a float's range fail
        fits = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        fits = isinstance(value, kind)
    if not fits:
        null = " or null" if nullable else ""
        raise ValueError(f"{name} must be {_TYPE_NAMES[kind]}{null}, got {value!r}")
    return float(value) if kind is float else value


class ClassLabel(Enum):
    """Three-way regulation outcome for a perturbation-response query."""

    UP = "upregulated"
    DOWN = "downregulated"
    NON_REGULATED = "not differentially expressed"

    def __str__(self) -> str:
        return self.value


#: Canonical label order used everywhere a fixed ordering matters
#: (confusion matrices, report columns, deterministic iteration).
LABEL_ORDER = (ClassLabel.UP, ClassLabel.DOWN, ClassLabel.NON_REGULATED)

_LABEL_VOCABULARY = {
    "upregulated": ClassLabel.UP,
    "downregulated": ClassLabel.DOWN,
    "not differentially expressed": ClassLabel.NON_REGULATED,
    # short aliases seen in model output
    "up": ClassLabel.UP,
    "down": ClassLabel.DOWN,
    "non-regulated": ClassLabel.NON_REGULATED,
    "nonregulated": ClassLabel.NON_REGULATED,
}


def parse_class_label(s: str) -> ClassLabel:
    """Parse a class label string, tolerating case, padding, and aliases.

    Raises UnknownAnswerString for anything outside the fixed vocabulary.
    """
    normalized = " ".join(s.lower().split())
    try:
        return _LABEL_VOCABULARY[normalized]
    except KeyError:
        raise UnknownAnswerString(f"not a class label: {s!r}") from None


class ParseStatus(Enum):
    OK = "ok"
    MISSING_ANSWER_TAG = "missing_answer_tag"
    UNKNOWN_ANSWER_STRING = "unknown_answer_string"


def find_answer_span(text: str) -> tuple[int, int] | None:
    """Locate the content of the last well-formed <answer>...</answer> pair.

    Returns (start, end) character offsets of the enclosed content, or None
    when no opening tag is followed by a closing tag. The scan walks opening
    tags right to left so a trailing unclosed tag does not hide an earlier
    complete span.
    """
    end = len(text)
    while True:
        open_idx = text.rfind(_ANSWER_OPEN, 0, end)
        if open_idx < 0:
            return None
        close_idx = text.find(_ANSWER_CLOSE, open_idx + len(_ANSWER_OPEN))
        if close_idx >= 0:
            return open_idx + len(_ANSWER_OPEN), close_idx
        end = open_idx


def extract_answer(text: str) -> tuple[ClassLabel | None, ParseStatus]:
    """Pull the final committed answer out of a generated trace.

    Models sometimes restate answers; the last well-formed span wins.
    Total on arbitrary input: failures come back as a status, never raise.
    """
    span = find_answer_span(text)
    if span is None:
        return None, ParseStatus.MISSING_ANSWER_TAG
    try:
        return parse_class_label(text[span[0] : span[1]]), ParseStatus.OK
    except UnknownAnswerString:
        return None, ParseStatus.UNKNOWN_ANSWER_STRING


#: Token log-probabilities for one completion, natural log, one per token.
TokenLogProbs = tuple[float, ...]


@dataclass(frozen=True)
class SamplingParams:
    """Decoding knobs for one completion. temperature == 0 means greedy;
    top_p/top_k are then irrelevant. top_k None means unlimited."""

    temperature: float
    top_p: float = 1.0
    top_k: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if not 0 < self.top_p <= 1:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"top_k must be a positive int, got {self.top_k}")

    @property
    def is_greedy(self) -> bool:
        return self.temperature == 0


GREEDY_PARAMS = SamplingParams(temperature=0.0)
DEFAULT_SAMPLE_PARAMS = SamplingParams(temperature=1.0, top_p=1.0, top_k=50)


@dataclass(frozen=True)
class ReasoningTrace:
    """One generated completion plus its parse outcome.

    The answer field is present exactly when parse_status is OK; both are
    derived from the text (see make_trace), which stays authoritative.
    """

    text: str
    sampling: SamplingParams
    answer: ClassLabel | None = None
    token_logprobs: TokenLogProbs | None = None
    parse_status: ParseStatus = ParseStatus.MISSING_ANSWER_TAG

    def __post_init__(self):
        if self.token_logprobs is not None and not isinstance(self.token_logprobs, tuple):
            object.__setattr__(self, "token_logprobs", tuple(float(v) for v in self.token_logprobs))
        if (self.answer is not None) != (self.parse_status is ParseStatus.OK):
            raise ValueError("answer must be present exactly when parse_status is OK")

    @property
    def is_greedy(self) -> bool:
        return self.sampling.is_greedy


def make_trace(
    text: str,
    sampling: SamplingParams,
    token_logprobs: TokenLogProbs | None = None,
) -> ReasoningTrace:
    """Build a trace, deriving answer and parse status from the text."""
    answer, status = extract_answer(text)
    return ReasoningTrace(
        text=text,
        sampling=sampling,
        answer=answer,
        token_logprobs=token_logprobs,
        parse_status=status,
    )


@dataclass(frozen=True)
class QueryTuple:
    """One perturbation-response question; gold_label is known only for
    evaluation splits."""

    id: str
    cell_type: str
    perturbation: str
    gene: str
    gold_label: ClassLabel | None = None

    def __post_init__(self):
        for name in ("id", "cell_type", "perturbation", "gene"):
            if not getattr(self, name):
                raise ValueError(f"query field {name!r} must be non-empty")


@dataclass(frozen=True)
class TraceBundle:
    """One greedy trace plus k sampled traces for the same query."""

    query: QueryTuple
    greedy: ReasoningTrace
    samples: tuple[ReasoningTrace, ...] = ()

    def __post_init__(self):
        if not isinstance(self.samples, tuple):
            object.__setattr__(self, "samples", tuple(self.samples))
        if not self.greedy.sampling.is_greedy:
            raise ValueError("greedy trace must be decoded at temperature 0")

    @property
    def k(self) -> int:
        return len(self.samples)

    @property
    def scoreable(self) -> bool:
        """True when uncertainty can be computed: at least one sample and a
        parsed greedy answer."""
        return self.k >= 1 and self.greedy.parse_status is ParseStatus.OK


class MetricVariant(Enum):
    """Which uncertainty signal ranks examples during filtering."""

    COCOA = "cocoa"
    PERPLEXITY = "ppl"
    CONSISTENCY = "consistency"


@dataclass(frozen=True)
class UncertaintyScores:
    """Uncertainty values for one bundle. Higher always means more
    uncertain. ppl (and hence cocoa) may be absent when the bundle has no
    token log-probabilities and the variant did not require them.
    """

    ppl: float | None
    inconsistency: float
    cocoa: float | None

    def __post_init__(self):
        if not 0.0 <= self.inconsistency <= 1.0:
            raise ValueError(f"inconsistency must be in [0, 1], got {self.inconsistency}")
        if (self.ppl is None) != (self.cocoa is None):
            raise ValueError("ppl and cocoa must be absent together")
        if self.ppl is not None:
            if self.ppl < 1.0 - 1e-9:
                raise ValueError(f"perplexity must be >= 1, got {self.ppl}")
            expected = 2.0 * self.inconsistency * self.ppl
            if not math.isclose(self.cocoa, expected, rel_tol=1e-9, abs_tol=1e-12):
                raise ValueError(
                    f"cocoa {self.cocoa} inconsistent with 2 * {self.inconsistency} * {self.ppl}"
                )

    def value_for(self, variant: MetricVariant) -> float | None:
        if variant is MetricVariant.COCOA:
            return self.cocoa
        if variant is MetricVariant.PERPLEXITY:
            return self.ppl
        return self.inconsistency


@dataclass(frozen=True)
class ScoredExample:
    """A bundle with its uncertainty scores; the unit filtering operates on."""

    bundle: TraceBundle
    scores: UncertaintyScores

    def __post_init__(self):
        if self.bundle.greedy.answer is None:
            raise ValueError("scored examples require a parsed greedy answer")

    @property
    def predicted_label(self) -> ClassLabel:
        return self.bundle.greedy.answer

    def score_for(self, variant: MetricVariant) -> float | None:
        return self.scores.value_for(variant)

