"""Label-free curation of synthetic chain-of-thought datasets.

The pipeline generates reasoning traces for perturbation-response queries,
scores each trace bundle with model-side uncertainty (perplexity,
sample inconsistency, and their product), keeps the most confident
fraction per predicted class, and exports the survivors for fine-tuning.

Import what you use from its submodule (`curator.cli`, `curator.storage`,
...): this package imports nothing, so each command loads only the
modules it needs.
"""

__version__ = "0.1.0"
