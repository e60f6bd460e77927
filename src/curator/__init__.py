"""Label-free curation of synthetic chain-of-thought datasets.

The pipeline generates reasoning traces for perturbation-response queries,
scores each trace bundle with model-side uncertainty (perplexity,
sample inconsistency, and their product), keeps the most confident
fraction per predicted class, and exports the survivors for fine-tuning.
"""

from .errors import CuratorError
from .filtering import (
    FilterSpec,
    FilterStrategy,
    apply_filter,
    decile_stratify,
    filter_global,
    filter_per_class,
    filter_random,
    subset_quality_sweep,
)
from .llm_client import GenerationConfig, UsageCounters, build_prompt, generate_bundle, generate_dataset
from .metrics import confusion, evaluate
from .model import (
    ClassLabel,
    DatasetManifest,
    MetricVariant,
    ParseStatus,
    QueryTuple,
    ReasoningTrace,
    SamplingParams,
    ScoredExample,
    TraceBundle,
    UncertaintyScores,
    extract_answer,
    make_trace,
    parse_class_label,
)
from .similarity import (
    AnswerAgreementProvider,
    LexicalCosineProvider,
    RemoteScorerConfig,
    RemoteScorerProvider,
    SimilarityProvider,
    lexical_cosine,
)
from .simulate import SimConfig, simulate_dataset
from .uncertainty import cocoa, inconsistency, perplexity, score_bundle, score_dataset

__version__ = "0.1.0"
