"""The analysis commands hold one small row per example, not its traces,
and score keeps a bounded number of chunks in flight to its workers: the
peak memory of each stays far below the size of the file it reads. The
bootstrap draws its resampled counts without raising its own peak."""

import os
import tracemalloc

import pytest

import curator.score_workers  # noqa: F401  loaded before tracing: score's first import compiles it
from curator.cli import main
from curator.metrics import evaluate
from curator.model import ScoredExample, UncertaintyScores
from curator.storage import write_scored

from helpers import DOWN, NONREG, UP, mk_bundle

N = 2000


@pytest.fixture(scope="module")
def long_scored(tmp_path_factory) -> str:
    """N gold-labelled scored rows, each with a ~2 KB greedy trace and 200
    logprobs: about 9 MB."""
    path = str(tmp_path_factory.mktemp("memory") / "scored.jsonl")
    labels = (UP, DOWN, NONREG)
    body = " ".join(f"step{j} of the argument" for j in range(100))
    logprobs = tuple(-0.001 * (j + 1) for j in range(200))

    def rows():
        for i in range(N):
            pred = labels[i % 3]
            bundle = mk_bundle(i, greedy_label=pred, sample_labels=(pred, labels[i % 2]),
                               logprobs=logprobs, gold=labels[i // 3 % 3], greedy_body=body)
            ppl = 1.0 + i / N
            yield ScoredExample(bundle, UncertaintyScores(ppl, 0.25, 0.5 * ppl))

    write_scored(path, rows())
    return path


def peak_bytes(argv: list[str]) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv", [
    ["filter", "{scored}", "{out}", "--fraction", "0.1"],
    ["filter", "{scored}", "{out}", "--fraction", "0.5"],
    ["stratify", "{scored}", "{out}"],
    ["sweep", "{scored}", "{out}", "--fractions", "0.1,0.5,1.0"],
    ["score", "{scored}", "{out}", "--provider", "lexical"],
], ids=["filter-0.1", "filter-0.5", "stratify", "sweep", "score"])
def test_peak_memory_is_far_below_the_input_size(tmp_path, monkeypatch, long_scored, argv):
    # score's chunks in flight grow with its workers, one per usable CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    size = os.path.getsize(long_scored)
    assert size > 8_000_000
    peak = peak_bytes([a.format(scored=long_scored, out=tmp_path / "out") for a in argv])
    assert peak < size / 5, f"peak {peak} bytes for a {size}-byte input"


#: evaluate's tracemalloc peak on EVAL_PAIRS at 5000 resamples when it drew
#: one index vector per resample and stratum from its own generator and
#: computed the statistics with numpy (1 539 088 bytes; numpy 2.4.6,
#: Python 3.11.7). Drawing counts per stratum must not cost more.
EVAL_PEAK_BEFORE_MULTINOMIAL = 1_539_088
EVAL_PAIRS = ([(NONREG, NONREG)] * 300 + [(NONREG, UP)] * 100 + [(UP, UP)] * 60
              + [(UP, DOWN)] * 20 + [(DOWN, DOWN)] * 50 + [(DOWN, NONREG)] * 10)


def test_evaluate_allocates_no_more_than_the_per_resample_bootstrap():
    evaluate(EVAL_PAIRS, n_resamples=10, seed=0)  # one-time set-up is not per resample
    tracemalloc.start()
    try:
        evaluate(EVAL_PAIRS, n_resamples=5000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= EVAL_PEAK_BEFORE_MULTINOMIAL, f"peak {peak} bytes"
