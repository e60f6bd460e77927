"""Seeded inputs for the benchmark's workloads.

The program only ever sees the files these functions write (and, for the
`endpoint` workload, the responses the mocks serve from the tables built
here). Everything is a function of the benchmark's --seed.

Texts are made of pseudo-words from a seeded vocabulary, drawn with a
skewed distribution so that term-frequency vectors repeat words the way
prose does. A sampled trace keeps each word of its greedy trace with
probability `share` (about 0.6 on average, lower for harder examples) and
draws a fresh word otherwise. Harder examples (latent difficulty d, drawn
from Beta(2, 2)) are more often wrong, disagree more across samples and
get a higher perplexity, so the scores spread the way real ones do.
"""

from __future__ import annotations

import json
import os

import numpy as np

LABELS = ("upregulated", "downregulated", "not differentially expressed")
CLASS_PRIOR = (0.1, 0.1, 0.8)

GREEDY_SAMPLING = {"temperature": 0.0, "top_p": 1.0, "top_k": None}
SAMPLE_SAMPLING = {"temperature": 1.0, "top_p": 1.0, "top_k": 50}

VOCABULARY_SIZE = 4000
_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, stream])


def vocabulary(seed: int) -> list[str]:
    """VOCABULARY_SIZE distinct lowercase pseudo-words, 3 to 10 letters."""
    rng = _rng(seed, 0)
    words: dict[str, None] = {}
    while len(words) < VOCABULARY_SIZE:
        length = int(rng.integers(3, 11))
        words["".join(_LETTERS[rng.integers(0, 26, size=length)])] = None
    return list(words)


class _TraceMaker:
    """Draws traces of about `words` words from one seeded vocabulary."""

    def __init__(self, seed: int, words: int):
        self.vocab = np.array(vocabulary(seed), dtype=object)
        self.words = words

    def draw_words(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # squaring a uniform skews draws toward the front of the vocabulary
        return (rng.random(n) ** 2 * len(self.vocab)).astype(np.int64)

    def bundle_words(self, rng: np.random.Generator, share: float, k: int):
        n = int(rng.integers(self.words * 9 // 10, self.words * 11 // 10 + 1))
        greedy = self.draw_words(rng, n)
        samples = []
        for _ in range(k):
            keep = rng.random(n) < share
            samples.append(np.where(keep, greedy, self.draw_words(rng, n)))
        return greedy, samples

    def text(self, idx: np.ndarray, label: str) -> str:
        return "<think>" + " ".join(self.vocab[idx]) + f"</think><answer>{label}</answer>"


def _pick(rng: np.random.Generator, weights) -> int:
    return int(rng.choice(len(weights), p=weights))


def _other(rng: np.random.Generator, label: int) -> int:
    return (label + 1 + int(rng.integers(0, 2))) % 3


def _latent(rng: np.random.Generator):
    """(gold, greedy answer, difficulty) for one query."""
    gold = _pick(rng, CLASS_PRIOR)
    d = float(rng.beta(2.0, 2.0))
    answer = gold if rng.random() >= 0.9 * d else _other(rng, gold)
    return gold, answer, d


def _logprobs(rng: np.random.Generator, d: float, n: int) -> list[float]:
    mean_nll = 0.05 + 2.0 * d
    eps = rng.uniform(-1.0, 1.0, size=n)
    eps -= eps.mean()
    return [float(v) for v in -(mean_nll + eps * min(0.02, mean_nll / 4))]


def _query(prefix: str, i: int, gold: int) -> dict:
    return {
        "id": f"{prefix}-{i:06d}",
        "cell_type": f"C{i % 5}",
        "perturbation": f"{prefix.upper()}P{i:06d}",
        "gene": f"{prefix.upper()}G{i:06d}",
        "gold_label": LABELS[gold],
    }


def _stats(lengths: list[int], path: str) -> dict:
    lengths = sorted(lengths)
    return {
        "trace_words_min": lengths[0],
        "trace_words_median": lengths[len(lengths) // 2],
        "trace_words_max": lengths[-1],
        "input_bytes": os.path.getsize(path),
    }


def write_long_bundles(path: str, n: int, k: int, words: int, seed: int) -> dict:
    """Write n bundles whose traces run to about `words` words, with one
    greedy log-probability per word. Returns (and writes beside the file,
    as `<path>.stats.json`) the trace lengths and bytes produced."""
    maker = _TraceMaker(seed, words)
    lengths = []
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            rng = _rng(seed, 1 + i)
            gold, answer, d = _latent(rng)
            greedy, samples = maker.bundle_words(rng, 0.8 - 0.4 * d, k)
            sample_answers = [answer if rng.random() >= d else _other(rng, answer) for _ in samples]
            record = {
                "v": 1,
                "query": _query("long", i, gold),
                "greedy": {
                    "text": maker.text(greedy, LABELS[answer]),
                    "answer": LABELS[answer],
                    "logprobs": _logprobs(rng, d, len(greedy)),
                    "sampling": GREEDY_SAMPLING,
                },
                "samples": [
                    {
                        "text": maker.text(idx, LABELS[a]),
                        "answer": LABELS[a],
                        "sampling": SAMPLE_SAMPLING,
                    }
                    for idx, a in zip(samples, sample_answers)
                ],
            }
            lengths.append(len(greedy))
            fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")
    stats = {"n": n, "k": k, **_stats(lengths, path)}
    with open(path + ".stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2)
        fh.write("\n")
    return stats


def _completion(text: str, logprobs: list[float] | None, tokens: list[str] | None) -> bytes:
    choice: dict = {"index": 0, "message": {"role": "assistant", "content": text}}
    if logprobs is not None:
        choice["logprobs"] = {
            "content": [{"token": t, "logprob": v} for t, v in zip(tokens, logprobs)]
        }
    body = {
        "choices": [choice],
        "usage": {"prompt_tokens": 150, "completion_tokens": len(text.split())},
    }
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


def build_endpoint(
    queries_path: str, n: int, k: int, words: int, seed: int, sample_seed: int
) -> dict:
    """Write the queries file and build the mocks' tables.

    Returns a dict with:
      chat:   {(perturbation, seed or None): response bytes}
      scorer: {(greedy text, sample text): score literal}
      served: per query id, the greedy text, its log-probabilities, the
              sample texts in request order and their scores, for the
              output checker
      stats:  trace lengths and input bytes
    """
    maker = _TraceMaker(seed, words)
    chat: dict = {}
    scorer: dict = {}
    served: dict = {}
    lengths = []
    with open(queries_path, "w", encoding="utf-8") as fh:
        for i in range(n):
            rng = _rng(seed, 1 + i)
            gold, answer, d = _latent(rng)
            query = _query("ep", i, gold)
            fh.write(json.dumps(query, separators=(",", ":")) + "\n")
            greedy, samples = maker.bundle_words(rng, 0.8 - 0.4 * d, k)
            greedy_text = maker.text(greedy, LABELS[answer])
            logprobs = _logprobs(rng, d, len(greedy))
            tokens = [f" w{j}" for j in range(len(greedy))]
            key = query["perturbation"]
            chat[(key, None)] = _completion(greedy_text, logprobs, tokens)
            sample_texts, scores = [], []
            for j, idx in enumerate(samples):
                a = answer if rng.random() >= d else _other(rng, answer)
                text = maker.text(idx, LABELS[a])
                chat[(key, sample_seed + j)] = _completion(text, None, None)
                score = repr(round(float(np.mean(idx == greedy)) + rng.uniform(-0.05, 0.05), 6))
                scorer[(greedy_text, text)] = score
                sample_texts.append(text)
                scores.append(float(score))
            served[query["id"]] = {
                "greedy": greedy_text,
                "logprobs": logprobs,
                "samples": sample_texts,
                "scores": scores,
            }
            lengths.append(len(greedy))
    stats = {"n": n, "k": k, **_stats(lengths, queries_path)}
    stats["served_bytes"] = sum(len(v) for v in chat.values())
    return {"chat": chat, "scorer": scorer, "served": served, "stats": stats}
