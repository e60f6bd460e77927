"""Output checker run on every pass of the benchmark.

Each check returns a list of violations (strings); an empty list means the
outputs are correct. The reference arithmetic here is written from the
README's definitions, independently of `src/`:

- perplexity: exp(-mean(logprobs)) over the greedy trace's logprobs
- inconsistency: mean over samples of 1 - sim(greedy, sample), where sim
  is the term-frequency cosine of lowercased `[^\\W_]+` tokens (or, for the
  remote provider, the score the mock served), clamped to [0, 1]
- cocoa: 2 * inconsistency * perplexity
- per-class filter: each predicted class keeps its max(1, floor(f * n_c))
  rows with the lowest (cocoa, id), in input order
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
from collections import Counter
from fractions import Fraction

TOLERANCE = 1e-9
SCORE_SAMPLE = 50

_WORD_RE = re.compile(r"[^\W_]+")
_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.S)


def read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if line.strip()]


def predicted(row: dict) -> str:
    """The greedy trace's last answer, normalised; the workloads only
    write the three canonical label strings."""
    matches = _ANSWER_RE.findall(row["greedy"]["text"])
    return " ".join(matches[-1].lower().split())


def cosine(a: str, b: str) -> float:
    ta, tb = Counter(_WORD_RE.findall(a.lower())), Counter(_WORD_RE.findall(b.lower()))
    if not ta and not tb:
        return 1.0
    if not ta or not tb:
        return 0.0
    dot = sum(c * tb[t] for t, c in ta.items() if t in tb)
    norm = math.sqrt(sum(c * c for c in ta.values())) * math.sqrt(sum(c * c for c in tb.values()))
    return dot / norm


def expected_scores(logprobs: list[float], sims: list[float]) -> dict:
    ppl = math.exp(-math.fsum(logprobs) / len(logprobs))
    dissim = [1.0 - min(1.0, max(0.0, s)) for s in sims]
    inc = min(1.0, max(0.0, math.fsum(dissim) / len(dissim)))
    return {"ppl": ppl, "inconsistency": inc, "cocoa": 2.0 * inc * ppl}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def check_scores(scored: list[dict], n_expected: int, seed: int, similarity) -> list[str]:
    """Row count, and brute-force scores on a seeded sample of rows.

    similarity(row, j) gives the similarity of the greedy trace and sample j.
    """
    out = []
    if len(scored) != n_expected:
        out.append(f"score: {len(scored)} rows, expected {n_expected}")
    rng = random.Random(seed)
    for i in sorted(rng.sample(range(len(scored)), min(SCORE_SAMPLE, len(scored)))):
        row = scored[i]
        sims = [similarity(row, j) for j in range(len(row["samples"]))]
        want = expected_scores(row["greedy"]["logprobs"], sims)
        for key, value in want.items():
            if not _close(row["scores"][key], value):
                out.append(f"score: {row['query']['id']} {key} {row['scores'][key]!r} != {value!r}")
    return out


def lexical_similarity(row: dict, j: int) -> float:
    return cosine(row["greedy"]["text"], row["samples"][j]["text"])


def quota(fraction: str, n: int) -> int:
    return max(1, math.floor(Fraction(fraction) * n))


def check_subset(
    scored_lines: list[str], scored: list[dict], subset_lines: list[str], fraction: str
) -> list[str]:
    """The subset is exactly the per-class lowest-(cocoa, id) rows, in
    input order, copied byte for byte."""
    groups: dict[str, list[tuple[float, str, int]]] = {}
    for i, row in enumerate(scored):
        groups.setdefault(predicted(row), []).append(
            (row["scores"]["cocoa"], row["query"]["id"], i)
        )
    keep = []
    for members in groups.values():
        members.sort()
        keep.extend(i for _, _, i in members[: quota(fraction, len(members))])
    want = [scored_lines[i] for i in sorted(keep)]
    if len(subset_lines) != len(want):
        return [f"filter: {len(subset_lines)} rows retained, expected {len(want)}"]
    if subset_lines != want:
        return ["filter: retained rows differ from the lowest-(cocoa, id) rows per class"]
    return []


def check_report(report_path: str, subset: list[dict], resamples: int) -> list[str]:
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    correct = sum(predicted(r) == r["query"]["gold_label"] for r in subset)
    out = []
    if report["n"] != len(subset) or report["n_resamples"] != resamples:
        out.append(f"evaluate: n={report['n']} resamples={report['n_resamples']}")
    if report["accuracy"]["point"] != correct / len(subset):
        out.append(f"evaluate: accuracy {report['accuracy']['point']!r} != {correct}/{len(subset)}")
    return out


def check_deciles(path: str, n: int) -> list[str]:
    rows = read_lines(path)[1:]
    counts = [int(r.split(",")[1]) for r in rows]
    if len(rows) != 10 or sum(counts) != n or max(counts) - min(counts) > 1:
        return [f"stratify: bin counts {counts} for {n} rows"]
    return []


def check_sweep(path: str, scored: list[dict], fractions: list[str]) -> list[str]:
    sizes = Counter(predicted(r) for r in scored).values()
    want = [sum(quota(f, n) for n in sizes) for f in fractions]
    got = [int(r.split(",")[1]) for r in read_lines(path)[1:]]
    return [] if got == want else [f"sweep: retained {got}, expected {want}"]


def check_sft(path: str, subset: list[dict]) -> list[str]:
    got = [json.loads(line)["messages"][-1]["content"] for line in read_lines(path)]
    want = [r["greedy"]["text"] for r in subset]
    return [] if got == want else [f"export-sft: {len(got)} assistant turns differ from the subset"]


def check_generated(bundles: list[dict], served: dict) -> list[str]:
    """Every bundle carries exactly the texts and logprobs the mock served."""
    out = []
    if [b["query"]["id"] for b in bundles] != list(served):
        out.append("generate: bundle ids differ from the queries")
    for b in bundles:
        want = served.get(b["query"]["id"])
        if want is None:
            continue
        if (
            b["greedy"]["text"] != want["greedy"]
            or b["greedy"]["logprobs"] != want["logprobs"]
            or [s["text"] for s in b["samples"]] != want["samples"]
        ):
            out.append(f"generate: {b['query']['id']} differs from the served completions")
    return out


def digests(directory: str) -> dict[str, str]:
    """SHA-256 of every artifact in directory, manifests excluded (they
    carry a timestamp)."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".manifest.json") or name.endswith(".log"):
            continue
        h = hashlib.sha256()
        with open(os.path.join(directory, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[name] = h.hexdigest()
    return out
