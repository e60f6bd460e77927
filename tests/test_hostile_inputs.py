"""No input ends in a traceback: mutated dataset lines, config files,
CURATOR_* values and endpoint response bodies each make `cli.main` exit
0, 1, 2 or 64. Exit 1 and 64 print an `error:` / `usage error:` line and
leave nothing behind; exit 2 (`generate` lost queries) lists each failure
with its error in `.usage.json`.

The mutations: byte flips, truncation, deep nesting, `\\ud800` escapes,
400-digit integers, NaN and infinities, duplicate keys and values of
another type. Dataset lines go mostly through `filter` and `evaluate`,
which start no process; a few go through `score`, which forks its
workers.
"""

from __future__ import annotations

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from curator.cli import main
from curator.storage import bundle_to_record, query_to_dict, scored_to_record

from conftest import MockEndpoint, completion_body
from helpers import DOWN, NONREG, UP, mk_bundle, mk_query, mk_scored, trace_text

_NAN, _INF = float("nan"), float("inf")
#: stands for a value nested deeper than the JSON decoder goes
_DEEP = "\0deep"
_HOSTILE = (None, True, 0, -1, 2.5, -0.0, "", "x", "\ud800", 10**400, _NAN, _INF, -_INF,
            [], {}, [1, "a"], {"a": 1}, _DEEP)


def _gate(max_examples: int) -> settings:
    # function-scoped fixtures are shared by every example: each example
    # runs in a fresh directory, and no_sleep only records
    return settings(max_examples=max_examples, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _paths(child, (*path, key))


def _at(value, path):
    for step in path:
        value = value[step]
    return value


@st.composite
def hostile_bytes(draw, canonical) -> bytes:
    """canonical, a JSON value, after up to two structural mutations (a
    value replaced, or a key given twice with the second value hostile),
    encoded, then perhaps with one byte flipped or the text cut short."""
    value = copy.deepcopy(canonical)
    duplicates = []
    for n in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(value))))
        new = copy.deepcopy(draw(st.sampled_from(_HOSTILE)))  # a mutation may edit it
        target = _at(value, path)
        if isinstance(target, dict) and target and draw(st.booleans()):
            sentinel = f"\0dup{n}"
            duplicates.append((sentinel, draw(st.sampled_from(sorted(target)))))
            target[sentinel] = new
        elif path:
            _at(value, path[:-1])[path[-1]] = new
        else:
            value = new
    text = json.dumps(value)
    for sentinel, key in duplicates:
        text = text.replace(json.dumps(sentinel), json.dumps(key), 1)
    data = text.replace(json.dumps(_DEEP), "[" * 5000 + "]" * 5000).encode("utf-8")
    cut = draw(st.integers(0, len(data)))
    edit = draw(st.sampled_from(("keep", "flip", "truncate")))
    if edit == "flip" and cut < len(data):
        data = data[:cut] + bytes([draw(st.integers(0, 255))]) + data[cut + 1:]
    elif edit == "truncate":
        data = data[:cut]
    return data


def _run(argv: list[str], work: str) -> int:
    """main(argv) under the gate's rules, in directory work."""
    before = sorted(os.listdir(work))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        rc = main(argv)
    assert rc in (0, 1, 2, 64)
    if rc in (1, 64):
        prefix = "error: " if rc == 1 else "usage error: "
        assert any(line.startswith(prefix) for line in err.getvalue().splitlines()), err.getvalue()
        assert sorted(os.listdir(work)) == before
    return rc


def _scored_rows() -> list[dict]:
    labels = (UP, DOWN, NONREG)
    return [scored_to_record(mk_scored(i, labels[i % 3], float(i + 1), gold=labels[i // 3 % 3]))
            for i in range(6)]


@st.composite
def hostile_dataset(draw) -> bytes:
    """Six canonical scored lines with gold labels, one of them mutated."""
    rows = [json.dumps(row).encode("utf-8") for row in _scored_rows()]
    i = draw(st.integers(0, len(rows) - 1))
    rows[i] = draw(hostile_bytes(_scored_rows()[i]))
    return b"\n".join(rows) + b"\n"


#: flags that keep every command small whatever the settings say
_ANALYSIS = {"filter": ["--fraction", "0.5"], "evaluate": ["--resamples", "20"]}


def _write(work: str, name: str, data: bytes) -> str:
    path = os.path.join(work, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


@_gate(150)
@given(hostile_dataset(), st.sampled_from(sorted(_ANALYSIS)))
def test_dataset_lines(tmp_path, data, command):
    work = tempfile.mkdtemp(dir=tmp_path)
    data_path = _write(work, "in.jsonl", data)
    _run([command, data_path, os.path.join(work, "out"), *_ANALYSIS[command]], work)


@_gate(4)
@given(hostile_dataset())
@example(b'{"v":1,"query":' + b"[" * 5000 + b"\n")
def test_dataset_lines_through_score(tmp_path, data):
    work = tempfile.mkdtemp(dir=tmp_path)
    data_path = _write(work, "in.jsonl", data)
    _run(["score", data_path, os.path.join(work, "out")], work)


_CONFIG = {
    "seed": 3,
    "log_level": "INFO",
    "filter": {"strategy": "per-class", "fraction": 0.5, "key": "cocoa", "seed": None},
    "bootstrap": {"n_resamples": 20, "seed": 1},
    "llm": {"model": "m", "api_key": "sk", "temperature": 1.0},
    "sim": {"class_prior": {"upregulated": 0.2, "downregulated": 0.2,
                            "not differentially expressed": 0.6}},
}
#: each variable's value before mutation (string keys take it verbatim)
_ENV = {
    "CURATOR_SEED": 3, "CURATOR_FILTER_FRACTION": 0.5, "CURATOR_FILTER_SEED": 7,
    "CURATOR_FILTER_STRATEGY": "global", "CURATOR_LOG_LEVEL": "INFO",
    "CURATOR_BOOTSTRAP_SEED": 1, "CURATOR_LLM_API_KEY": "sk",
    "CURATOR_SIM_CLASS_PRIOR": _CONFIG["sim"]["class_prior"], "CURATOR_FILTER_FRACTOIN": 0.5,
    "CURATOR_BOOTSTRAP_N_RESAMPLES": 20,
}


@st.composite
def hostile_env(draw) -> dict[str, str]:
    name = draw(st.sampled_from(sorted(_ENV)))
    value = draw(hostile_bytes(_ENV[name]))
    return {name: os.fsdecode(value.replace(b"\0", b""))}  # no variable holds a NUL


@_gate(150)
@given(st.one_of(hostile_bytes(_CONFIG), hostile_env()), st.sampled_from(sorted(_ANALYSIS)))
@example(b'{"bootstrap": {"n_resamples": 1' + b"0" * 400 + b"}}", "evaluate")
@example({"CURATOR_BOOTSTRAP_N_RESAMPLES": str(2**63 - 1)}, "evaluate")
def test_settings(tmp_path, setting, command):
    work = tempfile.mkdtemp(dir=tmp_path)
    data_path = _write(work, "in.jsonl", b"".join(json.dumps(r).encode() + b"\n"
                                                  for r in _scored_rows()))
    # evaluate takes its resample count from the settings under test: 20
    # unless they change it
    flags = [] if command == "evaluate" else _ANALYSIS[command]
    argv = [command, data_path, os.path.join(work, "out"), *flags]
    if isinstance(setting, bytes):
        _run(["--config", _write(work, "c.json", setting), *argv], work)
    else:
        with mock.patch.dict(os.environ, {"CURATOR_BOOTSTRAP_N_RESAMPLES": "20", **setting}):
            _run(argv, work)


_COMPLETION = completion_body(trace_text(UP, "steady induction"), logprobs=[-0.1, -0.2])


@_gate(60)
@given(hostile_bytes(_COMPLETION))
@example(b'"\\ud800"')  # its error went into .usage.json unescaped
def test_chat_bodies(tmp_path, no_sleep, body):
    work = tempfile.mkdtemp(dir=tmp_path)
    queries = _write(work, "q.jsonl", b"".join(
        json.dumps(query_to_dict(mk_query(i))).encode() + b"\n" for i in range(2)))
    out = os.path.join(work, "gen.jsonl")
    server = MockEndpoint(lambda request: (200, body))
    try:
        rc = _run(["generate", queries, out, "--base-url", server.base_url, "--model", "m",
                   "--k", "1"], work)
    finally:
        server.close()
    if rc == 2:
        with open(out + ".usage.json", encoding="utf-8") as fh:
            failures = json.load(fh)["failures"]
        assert failures and all(f["error"] for f in failures)


@_gate(60)
@given(hostile_bytes({"scores": [0.5, 0.25]}))
@example(b'{"scores": [1' + b"0" * 400 + b', 0.25]}')  # an OverflowError once
def test_scorer_bodies(tmp_path, no_sleep, body):
    work = tempfile.mkdtemp(dir=tmp_path)
    bundles = _write(work, "b.jsonl", b"".join(
        json.dumps(bundle_to_record(mk_bundle(i, sample_labels=(UP,)))).encode() + b"\n"
        for i in range(2)))
    server = MockEndpoint(lambda request: (200, body))
    try:
        _run(["score", bundles, os.path.join(work, "out"), "--provider", "remote",
              "--scorer-url", server.base_url], work)
    finally:
        server.close()
