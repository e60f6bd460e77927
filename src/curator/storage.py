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

Every reader but reread_scored runs one loop, _read, which skips blank
lines and refuses a query id claimed twice; the readers differ only in
what they build from each line.

The commands that rank or evaluate read a scored file through read_scored,
which validates every line in full but keeps one small ScoredRow of it.
It runs each line through the same validator as read_records, with the
same messages, but checks each sample trace without building it: no
ReasoningTrace, and no answer parse of its text, which nothing that reads
a ScoredRow uses. filter then decodes only the lines it keeps a second
time (reread_scored), from a handle that open_rereadable can seek back to
the start.
"""

from __future__ import annotations

import io
import json
import os
import stat
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext, suppress
from math import isfinite
from typing import Any, Callable, Iterable, Iterator, TextIO

from .errors import JsonlFormatError
from .model import (
    LABEL_ORDER,
    ClassLabel,
    QueryTuple,
    ReasoningTrace,
    SamplingParams,
    ScoredExample,
    ScoredRow,
    TokenLogProbs,
    TraceBundle,
    UncertaintyScores,
    checked,
    parse_class_label,
)

SCHEMA_VERSION = 1

_BUNDLE_KEYS = {"v", "query", "greedy", "samples", "scores"}
_QUERY_KEYS = {"id", "cell_type", "perturbation", "gene", "gold_label"}
_TRACE_KEYS = {"text", "answer", "logprobs", "sampling"}
_SAMPLING_KEYS = {"temperature", "top_p", "top_k", "seed"}
_SAMPLING_REQUIRED = {"temperature", "top_p", "top_k"}
_SCORE_KEYS = {"ppl", "inconsistency", "cocoa"}
#: the types a JSON number decodes to (a bool is neither)
_NUMBER_TYPES = {int, float}


def dumps(obj: Any) -> str:
    """Canonical single-line JSON used for all dataset rows. NaN and
    infinities are refused: they are not JSON."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"), allow_nan=False)


@contextmanager
def open_input(path: str) -> Iterator[TextIO]:
    """Open a text input; '-' means standard input. A byte that is not
    UTF-8 is read as a lone surrogate (surrogateescape), which the line
    decoder refuses with the line's number."""
    if path == "-":
        if isinstance(sys.stdin, io.TextIOWrapper):
            sys.stdin.reconfigure(errors="surrogateescape")
        yield sys.stdin
    else:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
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
    # "x" creates the file with the mode a plain open(path, "w") would give a
    # new file; one that replaces an existing file takes its permission bits
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:  # name the output, not the temp file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    except BaseException:  # an interrupt that lands inside open, once the file exists
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    try:
        with fh:
            yield fh
        with suppress(FileNotFoundError):
            os.chmod(tmp, os.stat(target).st_mode & 0o777)
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
        keys = obj.keys()
        if keys <= allowed and keys >= required:
            return
        unknown = set(obj) - allowed
        if unknown:
            raise self.fail(f"unknown {what} keys: {sorted(unknown)}")
        missing = required - set(obj)
        if missing:
            raise self.fail(f"missing {what} keys: {sorted(missing)}")

    def field(self, obj: dict, key: str, kind: type, what: str, nullable: bool = False) -> Any:
        """obj[key] (None when absent) under model.checked's rule."""
        try:
            return checked(obj.get(key), key, kind, nullable)
        except ValueError as exc:
            raise self.fail(f"{what} {exc}") from None


def _sampling_from_dict(obj: Any, ctx: _Ctx) -> SamplingParams:
    obj = ctx.require_obj(obj, "sampling")
    ctx.check_keys(obj, _SAMPLING_KEYS, _SAMPLING_REQUIRED, "sampling")
    try:
        return SamplingParams(
            checked(obj["temperature"], "temperature", float),
            checked(obj["top_p"], "top_p", float),
            checked(obj["top_k"], "top_k", int, True),
            checked(obj.get("seed"), "seed", int, True),
        )
    except ValueError as exc:
        raise ctx.fail(f"bad sampling params: {exc}") from None


def _trace_fields(obj: Any, ctx: _Ctx) -> tuple[str, SamplingParams, TokenLogProbs | None]:
    """The checked (text, sampling, logprobs) of a trace object: everything
    ReasoningTrace is built from, and it refuses none of it."""
    obj = ctx.require_obj(obj, "trace")
    ctx.check_keys(obj, _TRACE_KEYS, {"text", "sampling"}, "trace")
    text = ctx.field(obj, "text", str, "trace")
    logprobs = obj.get("logprobs")
    if logprobs is not None:  # model.checked's number rule, on the whole list at once
        kinds = set(map(type, logprobs)) if isinstance(logprobs, list) else {None}
        if not kinds <= _NUMBER_TYPES:  # not a list, or an item that is not a number
            raise ctx.fail("trace logprobs must be a list of numbers")
        # an integer beyond a float's range fails, though float() may round it into range
        if int in kinds and not all(abs(v) <= sys.float_info.max for v in logprobs):
            raise ctx.fail("trace logprobs must be finite")
        logprobs = tuple(map(float, logprobs))
        if not all(map(isfinite, logprobs)):
            raise ctx.fail("trace logprobs must be finite")
    return text, _sampling_from_dict(obj["sampling"], ctx), logprobs


def _trace_from_dict(obj: Any, ctx: _Ctx) -> ReasoningTrace:
    return ReasoningTrace(*_trace_fields(obj, ctx))


def _query_from_dict(obj: Any, ctx: _Ctx) -> QueryTuple:
    obj = ctx.require_obj(obj, "query")
    ctx.check_keys(obj, _QUERY_KEYS, {"id", "cell_type", "perturbation", "gene"}, "query")
    fields = {k: ctx.field(obj, k, str, "query") for k in ("id", "cell_type", "perturbation", "gene")}
    gold = ctx.field(obj, "gold_label", str, "query", nullable=True)
    try:
        return QueryTuple(**fields, gold_label=None if gold is None else parse_class_label(gold))
    except ValueError as exc:
        raise ctx.fail(f"bad query: {exc}") from None


def _validated(
    rec: Any, ctx: _Ctx, sample: Callable[[Any, _Ctx], Any]
) -> tuple[QueryTuple, ReasoningTrace, list, UncertaintyScores | None]:
    """The one record validator: the record's query, greedy trace, sample
    traces (each object passed through sample) and scores, or the first
    JsonlFormatError in a fixed order of checks."""
    rec = ctx.require_obj(rec, "record")
    ctx.check_keys(rec, _BUNDLE_KEYS, {"v", "query", "greedy", "samples"}, "record")
    version = ctx.field(rec, "v", int, "record")
    if version != SCHEMA_VERSION:
        raise ctx.fail(f"unsupported schema version {version!r}")
    query = _query_from_dict(rec["query"], ctx)
    greedy = _trace_from_dict(rec["greedy"], ctx)
    if not isinstance(rec["samples"], list):
        raise ctx.fail("samples must be a list")
    samples = [sample(t, ctx) for t in rec["samples"]]
    if not greedy.is_greedy:  # TraceBundle's own check and message
        raise ctx.fail("greedy trace must be decoded at temperature 0")
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
    return query, greedy, samples, scores


def record_to_bundle(rec: Any, ctx: _Ctx) -> tuple[TraceBundle, UncertaintyScores | None]:
    query, greedy, samples, scores = _validated(rec, ctx, _trace_from_dict)
    return TraceBundle(query=query, greedy=greedy, samples=tuple(samples)), scores


def _loads(line: str, ctx: _Ctx) -> Any:
    """The JSON value of a line. A byte that is not UTF-8, which open_input
    read as a lone surrogate, is refused; an ASCII line has none."""
    if not line.isascii():  # model.checked's text rule, naming the character's position
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ctx.fail(f"not valid UTF-8 at character {exc.start + 1} of the line") from None
    try:
        return json.loads(line)
    # ValueError is also an integer literal too long to convert, and
    # RecursionError a value nested deeper than the interpreter's stack
    except (ValueError, RecursionError) as exc:
        raise ctx.fail(f"invalid JSON: {exc}") from None


def decode_line(path: str, lineno: int, line: str) -> tuple[_Ctx, Any, str | None] | None:
    """None for a blank line; otherwise the line's error context, its JSON
    value, and the query id it claims before any validation (the
    record's query.id, or a query object's id), which the duplicate check
    uses; None when it claims none."""
    if not line.strip():
        return None
    ctx = _Ctx(path, lineno)
    obj = _loads(line, ctx)
    qid = None
    if isinstance(obj, dict):
        query = obj.get("query")
        qid = query.get("id") if isinstance(query, dict) else obj.get("id")
    return ctx, obj, qid if isinstance(qid, str) else None


def check_new_id(seen: set[str], qid: str | None, path: str, lineno: int) -> None:
    """Record the id a line claims in seen; a second claim is an error."""
    if qid is not None:
        if qid in seen:
            raise JsonlFormatError(path, lineno, f"duplicate query id {qid!r}")
        seen.add(qid)


def _read(path: str, build: Callable[[Any, _Ctx], Any], fh: TextIO | None = None) -> Iterator[Any]:
    """build(value, ctx) for each non-blank line of path, read from fh if
    given (path then only names it in errors)."""
    seen: set[str] = set()
    with open_input(path) if fh is None else nullcontext(fh) as src:
        for lineno, line in enumerate(src, start=1):
            decoded = decode_line(path, lineno, line)
            if decoded is not None:
                ctx, obj, qid = decoded
                check_new_id(seen, qid, path, lineno)
                yield build(obj, ctx)


def read_records(path: str) -> Iterator[tuple[TraceBundle, UncertaintyScores | None]]:
    """Stream (bundle, scores) pairs from a bundle or scored JSONL file."""
    return _read(path, record_to_bundle)


def read_bundles(path: str) -> Iterator[TraceBundle]:
    return (bundle for bundle, _ in read_records(path))


def _check_scored(ctx: _Ctx, greedy: ReasoningTrace, scores: UncertaintyScores | None) -> None:
    """What a scored line needs beyond a valid record, with ScoredExample's
    message for a missing answer."""
    if scores is None:
        raise ctx.fail("line has no scores object")
    if greedy.answer is None:
        raise ctx.fail("scored examples require a parsed greedy answer")


def _scored_row(rec: Any, ctx: _Ctx) -> ScoredRow:
    query, greedy, _, scores = _validated(rec, ctx, _trace_fields)
    _check_scored(ctx, greedy, scores)
    return ScoredRow(query.id, query.gold_label, greedy.answer, scores, ctx.lineno)


def read_scored(path: str, fh: TextIO | None = None) -> Iterator[ScoredRow]:
    """Stream one ScoredRow per line of a scored file, read from fh if
    given (path then only names it in errors). Every line is validated as
    read_records validates it and must carry a scores object and a parsed
    greedy answer. Sample traces are checked but never built, so a caller
    that keeps every row holds only ids, labels and scores."""
    return _read(path, _scored_row, fh)


@contextmanager
def open_rereadable(path: str) -> Iterator[TextIO]:
    """open_input(path) for a caller that reads it twice: the handle starts
    at offset 0 and can seek back to it. An input that cannot (a pipe, a
    FIFO, /dev/stdin, a tty) is first copied to an anonymous temp file. The
    copy holds the text as decoded, lone surrogates included, and splits
    lines only at '\n', as the source split them, so it reads the same."""
    with open_input(path) as fh:
        if fh.seekable() and fh.tell() == 0:
            yield fh
            return
        import shutil
        import tempfile

        with tempfile.TemporaryFile("w+", encoding="utf-8", errors="surrogatepass",
                                    newline="\n") as spool:
            shutil.copyfileobj(fh, spool)
            spool.seek(0)
            yield spool


def reread_scored(path: str, fh: TextIO, rows: Iterable[ScoredRow]) -> Iterator[ScoredExample]:
    """The ScoredExamples of these rows, in file order, decoded again from
    fh after read_scored(path, fh) yielded them; no other line is decoded.
    A line that no longer holds its row's query id means the file changed
    between the two reads: that is a JsonlFormatError."""
    fh.seek(0)
    wanted = {row.lineno: row for row in rows}
    for lineno, line in enumerate(fh, start=1):
        if not wanted:
            return
        row = wanted.pop(lineno, None)
        if row is None:
            continue
        ctx = _Ctx(path, lineno)
        bundle, scores = record_to_bundle(_loads(line, ctx), ctx)
        _check_scored(ctx, bundle.greedy, scores)
        if bundle.query.id != row.query_id:
            raise ctx.fail(f"query id {bundle.query.id!r} was {row.query_id!r} when first read; "
                           "the file changed while it was read")
        yield ScoredExample(bundle=bundle, scores=scores)
    if wanted:
        raise JsonlFormatError(path, min(wanted), "line is gone; the file changed while it was read")


def write_dataset(path: str, rows: Iterable[tuple[dict | str, ClassLabel | None]]) -> Counter:
    """Write one JSONL row per (record, label) pair and return the count of
    rows per label: a row's predicted class, or None for a row without a
    parsed greedy answer. A record is a dict, or a str that dumps already
    encoded."""
    counts: Counter = Counter()
    with open_output(path) as fh:
        for record, label in rows:
            fh.write((record if type(record) is str else dumps(record)) + "\n")
            counts[label] += 1
    return counts


def write_scored(path: str, scored: Iterable[ScoredExample]) -> Counter:
    return write_dataset(path, ((scored_to_record(ex), ex.bundle.greedy.answer) for ex in scored))


def read_queries(path: str) -> Iterator[QueryTuple]:
    """Stream queries from a JSONL file of query objects."""
    return _read(path, _query_from_dict)


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
        # a path is bytes: one that is not UTF-8 is recorded with \xNN escapes
        "source_path": os.fsencode(source).decode("utf-8", "backslashreplace"),
        "n_examples": sum(class_counts.values()),
        "class_counts": class_counts,
        "rejected": rejected,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime(time.time())),
        "pipeline_config_hash": config_hash,
    }
    if seed is not None:
        manifest["seed"] = seed
    if prng is not None:
        manifest["prng"] = prng
    write_json(path + ".manifest.json", manifest)
