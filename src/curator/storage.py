"""Reading and writing the pipeline's serialized formats.

Everything on disk is UTF-8 JSON: datasets are JSON-lines (one object per
line, schema version 1), manifests and evaluation reports are single JSON
objects. Serialization is deterministic -- fixed key order, compact
separators -- so identical inputs produce byte-identical files. Every file
is written through open_output, so it is either complete or absent.

Every dataset is written by write_dataset, which tallies each row's
predicted class; write_manifest records that tally beside the dataset.

On load the trace text is authoritative: answer and parse status are
re-derived from it rather than trusted from the file.
"""

from __future__ import annotations

import json
import os
import stat
import sys
from collections import Counter
from contextlib import contextmanager
from datetime import datetime, timezone
from math import isfinite
from typing import Any, Iterable, Iterator, TextIO

from .errors import CuratorError, JsonlFormatError
from .model import (
    LABEL_ORDER,
    ClassLabel,
    QueryTuple,
    ReasoningTrace,
    SamplingParams,
    ScoredExample,
    TraceBundle,
    UncertaintyScores,
    checked,
    make_trace,
    parse_class_label,
)

SCHEMA_VERSION = 1

_BUNDLE_KEYS = {"v", "query", "greedy", "samples", "scores"}
_QUERY_KEYS = {"id", "cell_type", "perturbation", "gene", "gold_label"}
_TRACE_KEYS = {"text", "answer", "logprobs", "sampling"}
_SAMPLING_KEYS = {"temperature", "top_p", "top_k", "seed"}
_SCORE_KEYS = {"ppl", "inconsistency", "cocoa"}
#: the types a JSON number decodes to (a bool is neither)
_NUMBER_TYPES = {int, float}


def dumps(obj: Any) -> str:
    """Canonical single-line JSON used for all dataset rows. NaN and
    infinities are refused: they are not JSON."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"), allow_nan=False)


@contextmanager
def open_input(path: str) -> Iterator[TextIO]:
    """Open a text input; '-' means standard input."""
    if path == "-":
        yield sys.stdin
    else:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh


def _hops(path: str) -> Iterator[str]:
    """path, then each symlink target it leads to, as absolute paths whose
    directories are resolved."""
    for _ in range(40):  # the kernel's own symlink limit
        parent, name = os.path.split(os.path.abspath(path))
        path = os.path.join(os.path.realpath(parent), name)
        yield path
        if not os.path.islink(path):
            return
        path = os.path.join(os.path.dirname(path), os.readlink(path))


def _descriptor(path: str) -> int | None:
    """The number of this process's open descriptor that path names
    (/dev/stdout, /dev/fd/N, /proc/self/fd/N), or None."""
    fd_dir = f"/proc/{os.getpid()}/fd"
    fds = [int(n) for d, n in map(os.path.split, _hops(path)) if d == fd_dir and n.isdigit()]
    return fds[0] if fds else None


def is_file_output(path: str) -> bool:
    """True when open_output(path) writes a regular file: the path is one,
    or does not exist yet, and leads to nothing under /dev or /proc.
    Sidecars are written only beside such files."""
    if path == "-" or any(f"{h}/".startswith(("/dev/", "/proc/")) for h in _hops(path)):
        return False
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return True


@contextmanager
def open_output(path: str) -> Iterator[TextIO]:
    """Open a text output; '-' means standard output. A regular file (or a
    symlink's target) is written to a hidden temp file beside it that
    replaces it on clean exit and is removed on any exception, so the path
    is never half-written. A path naming an open descriptor (/dev/stdout,
    /dev/fd/N) writes to that descriptor; any other path under /dev or
    /proc (/dev/null), or a FIFO, is written in place. No fsync: this
    covers a failed or killed process, not a power loss."""
    if path == "-":
        yield sys.stdout
        return
    fd = _descriptor(path)
    if fd is not None:  # share its offset and append mode, as '-' does
        sys.stdout.flush()
        sys.stderr.flush()
        with os.fdopen(os.dup(fd), "w", encoding="utf-8") as fh:
            yield fh
        return
    if not is_file_output(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    # "x" creates the file with the mode a plain open(path, "w") would give it
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:  # name the output, not the temp file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def sampling_to_dict(p: SamplingParams) -> dict:
    out: dict[str, Any] = {"temperature": p.temperature, "top_p": p.top_p, "top_k": p.top_k}
    if p.seed is not None:
        out["seed"] = p.seed
    return out


def trace_to_dict(t: ReasoningTrace) -> dict:
    out: dict[str, Any] = {"text": t.text}
    if t.answer is not None:
        out["answer"] = t.answer.value
    if t.token_logprobs is not None:
        out["logprobs"] = list(t.token_logprobs)
    out["sampling"] = sampling_to_dict(t.sampling)
    return out


def query_to_dict(q: QueryTuple) -> dict:
    out: dict[str, Any] = {
        "id": q.id,
        "cell_type": q.cell_type,
        "perturbation": q.perturbation,
        "gene": q.gene,
    }
    if q.gold_label is not None:
        out["gold_label"] = q.gold_label.value
    return out


def bundle_to_record(bundle: TraceBundle, scores: UncertaintyScores | None = None) -> dict:
    rec: dict[str, Any] = {
        "v": SCHEMA_VERSION,
        "query": query_to_dict(bundle.query),
        "greedy": trace_to_dict(bundle.greedy),
        "samples": [trace_to_dict(t) for t in bundle.samples],
    }
    if scores is not None:
        rec["scores"] = {
            "ppl": scores.ppl,
            "inconsistency": scores.inconsistency,
            "cocoa": scores.cocoa,
        }
    return rec


def scored_to_record(ex: ScoredExample) -> dict:
    return bundle_to_record(ex.bundle, ex.scores)


class _Ctx:
    """Carries path/line info so schema errors point at the failing line."""

    def __init__(self, path: str, lineno: int):
        self.path = path
        self.lineno = lineno

    def fail(self, message: str) -> JsonlFormatError:
        return JsonlFormatError(self.path, self.lineno, message)

    def require_obj(self, value: Any, what: str) -> dict:
        if not isinstance(value, dict):
            raise self.fail(f"{what} must be a JSON object")
        return value

    def check_keys(self, obj: dict, allowed: set[str], required: set[str], what: str) -> None:
        unknown = set(obj) - allowed
        if unknown:
            raise self.fail(f"unknown {what} keys: {sorted(unknown)}")
        missing = required - set(obj)
        if missing:
            raise self.fail(f"missing {what} keys: {sorted(missing)}")

    def field(self, obj: dict, key: str, kind: type, what: str, nullable: bool = False) -> Any:
        """obj[key] (None when absent) under model.checked's type rule."""
        try:
            return checked(obj.get(key), key, kind, nullable)
        except ValueError as exc:
            raise self.fail(f"{what} {exc}") from None


def _sampling_from_dict(obj: Any, ctx: _Ctx) -> SamplingParams:
    obj = ctx.require_obj(obj, "sampling")
    ctx.check_keys(obj, _SAMPLING_KEYS, {"temperature", "top_p", "top_k"}, "sampling")
    try:
        return SamplingParams(
            checked(obj["temperature"], "temperature", float),
            checked(obj["top_p"], "top_p", float),
            checked(obj["top_k"], "top_k", int, True),
            checked(obj.get("seed"), "seed", int, True),
        )
    except ValueError as exc:
        raise ctx.fail(f"bad sampling params: {exc}") from None


def _trace_from_dict(obj: Any, ctx: _Ctx) -> ReasoningTrace:
    obj = ctx.require_obj(obj, "trace")
    ctx.check_keys(obj, _TRACE_KEYS, {"text", "sampling"}, "trace")
    text = obj["text"]
    if not isinstance(text, str):
        raise ctx.fail("trace text must be a string")
    logprobs = obj.get("logprobs")
    if logprobs is not None:
        if not isinstance(logprobs, list) or not set(map(type, logprobs)) <= _NUMBER_TYPES:
            raise ctx.fail("trace logprobs must be a list of numbers")
        try:
            logprobs = tuple(map(float, logprobs))
        except OverflowError:  # an integer beyond a float's range
            raise ctx.fail("trace logprobs must be finite") from None
        if not all(map(isfinite, logprobs)):
            raise ctx.fail("trace logprobs must be finite")
    sampling = _sampling_from_dict(obj["sampling"], ctx)
    try:
        return make_trace(text, sampling, logprobs)
    except ValueError as exc:
        raise ctx.fail(str(exc)) from None


def _query_from_dict(obj: Any, ctx: _Ctx) -> QueryTuple:
    obj = ctx.require_obj(obj, "query")
    ctx.check_keys(obj, _QUERY_KEYS, {"id", "cell_type", "perturbation", "gene"}, "query")
    fields = {k: ctx.field(obj, k, str, "query") for k in ("id", "cell_type", "perturbation", "gene")}
    gold = ctx.field(obj, "gold_label", str, "query", nullable=True)
    try:
        return QueryTuple(**fields, gold_label=None if gold is None else parse_class_label(gold))
    except (CuratorError, ValueError) as exc:
        raise ctx.fail(f"bad query: {exc}") from None


def record_to_bundle(rec: Any, ctx: _Ctx) -> tuple[TraceBundle, UncertaintyScores | None]:
    rec = ctx.require_obj(rec, "record")
    ctx.check_keys(rec, _BUNDLE_KEYS, {"v", "query", "greedy", "samples"}, "record")
    if rec["v"] != SCHEMA_VERSION:
        raise ctx.fail(f"unsupported schema version {rec['v']!r}")
    query = _query_from_dict(rec["query"], ctx)
    greedy = _trace_from_dict(rec["greedy"], ctx)
    if not isinstance(rec["samples"], list):
        raise ctx.fail("samples must be a list")
    samples = tuple(_trace_from_dict(t, ctx) for t in rec["samples"])
    try:
        bundle = TraceBundle(query=query, greedy=greedy, samples=samples)
    except ValueError as exc:
        raise ctx.fail(str(exc)) from None
    scores = None
    if "scores" in rec:
        sobj = ctx.require_obj(rec["scores"], "scores")
        ctx.check_keys(sobj, _SCORE_KEYS, _SCORE_KEYS, "scores")
        try:
            scores = UncertaintyScores(
                ppl=ctx.field(sobj, "ppl", float, "scores", nullable=True),
                inconsistency=ctx.field(sobj, "inconsistency", float, "scores"),
                cocoa=ctx.field(sobj, "cocoa", float, "scores", nullable=True),
            )
        except ValueError as exc:
            raise ctx.fail(f"bad scores: {exc}") from None
    return bundle, scores


def _iter_json_lines(fh: TextIO, path: str) -> Iterator[tuple[_Ctx, Any]]:
    seen_ids: set[str] = set()
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        ctx = _Ctx(path, lineno)
        try:
            obj = json.loads(line)
        except ValueError as exc:  # also an integer literal too long to convert
            raise ctx.fail(f"invalid JSON: {exc}") from None
        if isinstance(obj, dict):
            query = obj.get("query")
            qid = query.get("id") if isinstance(query, dict) else obj.get("id")
            if isinstance(qid, str):
                if qid in seen_ids:
                    raise ctx.fail(f"duplicate query id {qid!r}")
                seen_ids.add(qid)
        yield ctx, obj


def _read_records_ctx(path: str) -> Iterator[tuple[_Ctx, TraceBundle, UncertaintyScores | None]]:
    with open_input(path) as fh:
        for ctx, obj in _iter_json_lines(fh, path):
            bundle, scores = record_to_bundle(obj, ctx)
            yield ctx, bundle, scores


def read_records(path: str) -> Iterator[tuple[TraceBundle, UncertaintyScores | None]]:
    """Stream (bundle, scores) pairs from a bundle or scored JSONL file."""
    for _, bundle, scores in _read_records_ctx(path):
        yield bundle, scores


def read_bundles(path: str) -> Iterator[TraceBundle]:
    for bundle, _ in read_records(path):
        yield bundle


def read_scored(path: str) -> Iterator[ScoredExample]:
    """Stream ScoredExamples; every line must carry a scores object."""
    for ctx, bundle, scores in _read_records_ctx(path):
        if scores is None:
            raise ctx.fail("line has no scores object")
        try:
            yield ScoredExample(bundle=bundle, scores=scores)
        except ValueError as exc:
            raise ctx.fail(str(exc)) from None


def write_dataset(path: str, rows: Iterable[tuple[dict, ClassLabel | None]]) -> Counter:
    """Write one JSONL row per (record, label) pair and return the count of
    rows per label: a row's predicted class, or None for a row without a
    parsed greedy answer."""
    counts: Counter = Counter()
    with open_output(path) as fh:
        for record, label in rows:
            fh.write(dumps(record) + "\n")
            counts[label] += 1
    return counts


def write_scored(path: str, scored: Iterable[ScoredExample]) -> Counter:
    return write_dataset(path, ((scored_to_record(ex), ex.predicted_label) for ex in scored))


def read_queries(path: str) -> Iterator[QueryTuple]:
    """Stream queries from a JSONL file of query objects."""
    with open_input(path) as fh:
        for ctx, obj in _iter_json_lines(fh, path):
            yield _query_from_dict(obj, ctx)


def write_json(path: str, obj: Any) -> None:
    """Write one indented JSON document: a manifest, usage or report."""
    with open_output(path) as fh:
        fh.write(json.dumps(obj, ensure_ascii=False, indent=2) + "\n")


def write_manifest(path: str, source: str, config_hash: str, counts: Counter, rejected: int = 0,
                   seed: int | None = None, prng: str | None = None) -> None:
    """Write `<path>.manifest.json` for the dataset at path, from the label
    counts write_dataset returned: n_examples is the parsed rows, and rows
    dropped or written without a parsed answer go under rejected. Seed and
    prng are recorded for seeded outputs only. A dataset that is not a
    regular file (stdout, /dev/null, a FIFO) gets no manifest."""
    if not is_file_output(path):
        return
    class_counts = {label.value: counts.get(label, 0) for label in LABEL_ORDER}
    manifest: dict[str, Any] = {
        "source_path": source,
        "n_examples": sum(class_counts.values()),
        "class_counts": class_counts,
        "rejected": rejected,
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "pipeline_config_hash": config_hash,
    }
    if seed is not None:
        manifest["seed"] = seed
    if prng is not None:
        manifest["prng"] = prng
    write_json(path + ".manifest.json", manifest)
