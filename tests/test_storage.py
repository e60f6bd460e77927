"""JSONL wire format: byte-stable output, lossless round-trips, hard errors."""

from __future__ import annotations

import copy
import io
import json
import os
import random
import re
import sys
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curator.errors import JsonlFormatError
from curator.model import ParseStatus, ScoredRow, UncertaintyScores, checked
from curator.storage import (
    SCHEMA_VERSION,
    _Ctx,
    _sampling_from_dict,
    _trace_fields,
    bundle_to_record,
    dumps,
    is_file_output,
    open_output,
    query_to_dict,
    read_bundles,
    read_queries,
    read_records,
    read_scored,
    scored_to_record,
    write_dataset,
    write_manifest,
    write_scored,
)
from curator.similarity import LexicalCosineProvider
from curator.uncertainty import ScoredExample, ScoreStats, score_dataset

from helpers import (
    DOWN,
    NONREG,
    UP,
    mk_bundle,
    mk_query,
    mk_scored,
    rand_bundle,
    rows_of,
    write_jsonl,
)

# Frozen by hand from the documented line format: version first, fixed key
# order inside query / trace / sampling, compact separators, raw UTF-8.
GOLDEN_BUNDLE_LINE = (
    '{"v":1,'
    '"query":{"id":"q-0001","cell_type":"K562","perturbation":"PERT1","gene":"GENE1"},'
    '"greedy":{"text":"<think>reasoning here</think><answer>upregulated</answer>",'
    '"answer":"upregulated","logprobs":[-0.5,-0.25],'
    '"sampling":{"temperature":0.0,"top_p":1.0,"top_k":null}},'
    '"samples":[{"text":"<think>sample 0</think><answer>upregulated</answer>",'
    '"answer":"upregulated","sampling":{"temperature":1.0,"top_p":1.0,"top_k":50}}]}'
)

GOLDEN_SCORES_SUFFIX = ',"scores":{"ppl":3.0,"inconsistency":0.5,"cocoa":3.0}}'


def golden_bundle():
    return mk_bundle(1, sample_labels=(UP,), logprobs=(-0.5, -0.25))


class TestSerialization:
    def test_bundle_golden_bytes(self):
        assert dumps(bundle_to_record(golden_bundle())) == GOLDEN_BUNDLE_LINE

    def test_scored_golden_bytes(self):
        scored = ScoredExample(
            bundle=golden_bundle(),
            scores=UncertaintyScores(ppl=3.0, inconsistency=0.5, cocoa=3.0),
        )
        line = dumps(scored_to_record(scored))
        assert line == GOLDEN_BUNDLE_LINE[:-1] + GOLDEN_SCORES_SUFFIX

    def test_gold_label_serialized_when_present(self):
        record = bundle_to_record(mk_bundle(2, gold=DOWN))
        assert record["query"]["gold_label"] == "downregulated"
        assert "gold_label" not in bundle_to_record(mk_bundle(2))["query"]

    def test_non_ascii_not_escaped(self):
        bundle = mk_bundle(3, greedy_body="Δ-node 零")
        assert "Δ-node 零" in dumps(bundle_to_record(bundle))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers_refused(self, value):
        record = bundle_to_record(mk_bundle(5))
        record["greedy"]["logprobs"] = [value]
        with pytest.raises(ValueError):
            dumps(record)

    def test_null_scores_serialized_as_null(self):
        scored = ScoredExample(
            bundle=mk_bundle(4, logprobs=None),
            scores=UncertaintyScores(ppl=None, inconsistency=0.25, cocoa=None),
        )
        record = scored_to_record(scored)
        assert record["scores"] == {"ppl": None, "inconsistency": 0.25, "cocoa": None}


class TestRoundTrip:
    def test_bundles_file_roundtrip(self, tmp_path):
        bundles = [mk_bundle(i, gold=UP if i % 2 else None) for i in range(5)]
        path = str(tmp_path / "b.jsonl")
        write_jsonl(path, bundles)
        assert list(read_bundles(path)) == bundles

    def test_randomized_bundles_roundtrip(self, tmp_path):
        rng = random.Random(1234)
        bundles = [rand_bundle(rng, i) for i in range(200)]
        path = str(tmp_path / "r.jsonl")
        write_jsonl(path, bundles)
        assert list(read_bundles(path)) == bundles

    def test_scored_roundtrip_including_nulls(self, tmp_path):
        items = [mk_scored(i, DOWN, 1.0 + i) for i in range(3)]
        items.append(
            ScoredExample(
                bundle=mk_bundle(9, logprobs=None),
                scores=UncertaintyScores(ppl=None, inconsistency=0.5, cocoa=None),
            )
        )
        path = str(tmp_path / "s.jsonl")
        write_scored(path, items)
        assert list(read_records(path)) == [(ex.bundle, ex.scores) for ex in items]
        assert list(read_scored(path)) == rows_of(items)

    def test_queries_roundtrip(self, tmp_path):
        queries = [mk_query(i, gold=NONREG if i == 1 else None) for i in range(4)]
        path = str(tmp_path / "q.jsonl")
        write_jsonl(path, queries, query_to_dict)
        assert list(read_queries(path)) == queries

    def test_text_is_authoritative_over_stored_answer(self, tmp_path):
        # a tampered record whose stored answer contradicts its text
        record = bundle_to_record(golden_bundle())
        record["greedy"]["answer"] = "downregulated"
        path = tmp_path / "t.jsonl"
        path.write_text(dumps(record) + "\n", encoding="utf-8")
        (loaded,) = read_bundles(str(path))
        assert loaded.greedy.answer is UP
        assert loaded.greedy.parse_status is ParseStatus.OK


def _record_line(i=0):
    return dumps(bundle_to_record(mk_bundle(i)))


#: each reader, and the line of its format for query i
READERS = {
    "read_records": (read_records, _record_line),
    "read_bundles": (read_bundles, _record_line),
    "read_scored": (read_scored, lambda i=0: dumps(scored_to_record(mk_scored(i, UP, 2.0)))),
    "read_queries": (read_queries, lambda i=0: dumps(query_to_dict(mk_query(i)))),
}


class TestReadErrors:
    def write_lines(self, tmp_path, lines):
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_bad_json_reports_real_line_number(self, tmp_path):
        path = self.write_lines(tmp_path, ["", "", "{not json"])
        with pytest.raises(JsonlFormatError) as err:
            list(read_bundles(path))
        assert ":3:" in str(err.value)

    def test_integer_literal_too_long_to_convert_is_bad_json(self, tmp_path):
        path = self.write_lines(tmp_path, ["", '{"v": ' + "9" * 5000 + "}"])
        with pytest.raises(JsonlFormatError, match=":2: invalid JSON"):
            list(read_bundles(path))

    @pytest.mark.parametrize("read, line", READERS.values(), ids=list(READERS))
    def test_blank_lines_skipped(self, tmp_path, read, line):
        path = self.write_lines(tmp_path, ["", line(), " ", line(1), ""])
        assert len(list(read(path))) == 2

    @pytest.mark.parametrize("read, line", READERS.values(), ids=list(READERS))
    def test_duplicate_query_id_refused(self, tmp_path, read, line):
        path = self.write_lines(tmp_path, ["", line(), line(1), line()])
        with pytest.raises(JsonlFormatError, match=r":4: duplicate query id 'q-0000'$"):
            list(read(path))

    def test_unknown_top_level_key_refused(self, tmp_path):
        record = bundle_to_record(golden_bundle())
        record["extra"] = 1
        path = self.write_lines(tmp_path, [dumps(record)])
        with pytest.raises(JsonlFormatError, match="extra"):
            list(read_bundles(path))

    def test_wrong_version_refused(self, tmp_path):
        record = bundle_to_record(golden_bundle())
        record["v"] = SCHEMA_VERSION + 1
        path = self.write_lines(tmp_path, [dumps(record)])
        with pytest.raises(JsonlFormatError, match=":1: unsupported schema version 2$"):
            list(read_bundles(path))

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_version_follows_the_type_rule(self, tmp_path, version):
        record = bundle_to_record(golden_bundle())
        record["v"] = version
        path = self.write_lines(tmp_path, ["", json.dumps(record)])
        with pytest.raises(JsonlFormatError, match=":2: record v must be an integer, got "):
            list(read_bundles(path))

    def test_non_object_line_refused(self, tmp_path):
        path = self.write_lines(tmp_path, ["[1,2]"])
        with pytest.raises(JsonlFormatError):
            list(read_bundles(path))

    def test_scored_reader_requires_scores(self, tmp_path):
        path = self.write_lines(tmp_path, [dumps(bundle_to_record(golden_bundle()))])
        with pytest.raises(JsonlFormatError, match="scores"):
            list(read_scored(path))

    def test_inconsistent_scores_rejected_with_line(self, tmp_path):
        record = scored_to_record(mk_scored(1, UP, 2.0))
        record["scores"]["cocoa"] = 99.0  # violates cocoa = 2*inc*ppl
        path = self.write_lines(tmp_path, ["", dumps(record)])
        with pytest.raises(JsonlFormatError) as err:
            list(read_scored(path))
        assert ":2:" in str(err.value)

    @pytest.mark.parametrize("top_k", [True, 2.5, "50", [50], {"k": 50}, float("nan")])
    def test_sampling_values_follow_the_type_rule(self, tmp_path, top_k):
        record = bundle_to_record(golden_bundle())
        record["samples"][0]["sampling"]["top_k"] = top_k
        path = self.write_lines(tmp_path, [json.dumps(record)])
        with pytest.raises(JsonlFormatError, match=":1: bad sampling params: top_k must be an integer or null"):
            list(read_bundles(path))

    def test_integer_logprob_beyond_float_range_is_malformed(self, tmp_path):
        record = bundle_to_record(golden_bundle())
        record["greedy"]["logprobs"] = [-0.5, -(10**400)]
        path = self.write_lines(tmp_path, [json.dumps(record)])
        with pytest.raises(JsonlFormatError, match=":1: trace logprobs must be finite"):
            list(read_bundles(path))

    @pytest.mark.parametrize("bad", [True, "x", None, [-0.5]])
    def test_last_item_of_a_long_logprob_list_is_checked(self, tmp_path, bad):
        record = bundle_to_record(golden_bundle())
        record["greedy"]["logprobs"] = [-0.5, -1] * 500 + [bad]
        path = self.write_lines(tmp_path, [json.dumps(record)])
        with pytest.raises(JsonlFormatError, match=":1: trace logprobs must be a list of numbers"):
            list(read_bundles(path))

    def test_positive_logprob_is_read(self, tmp_path):
        # the reader checks types; `score` refuses the value and names the bundle
        record = bundle_to_record(golden_bundle())
        record["greedy"]["logprobs"] = [-0.5, 3]
        path = self.write_lines(tmp_path, [json.dumps(record)])
        (bundle,) = read_bundles(path)
        assert bundle.greedy.token_logprobs == (-0.5, 3.0)

    def test_each_row_is_checked_on_its_own_values(self, tmp_path):
        # an equal-comparing value on an earlier row (1 == True) does not
        # stand in for this row's
        ok = bundle_to_record(golden_bundle())
        ok["samples"][0]["sampling"]["top_k"] = 1
        bad = bundle_to_record(mk_bundle(7))
        bad["samples"][0]["sampling"]["top_k"] = True
        path = self.write_lines(tmp_path, [dumps(ok), dumps(bad)])
        with pytest.raises(JsonlFormatError, match=":2: .*top_k must be an integer or null, got True"):
            list(read_bundles(path))

    def test_each_row_keeps_its_own_signed_zero(self, tmp_path):
        # 0.0 == -0.0, yet each greedy row is written back as it was read
        records = []
        for i, zero in enumerate([0.0, -0.0, 0.0]):
            record = bundle_to_record(mk_bundle(i))
            record["greedy"]["sampling"]["temperature"] = zero
            records.append(dumps(record))
        path = self.write_lines(tmp_path, records)
        assert [dumps(bundle_to_record(b)) for b in read_bundles(path)] == records
        assert '"temperature":-0.0' in records[1]

    def test_an_integer_number_reads_as_a_float(self, tmp_path):
        record = bundle_to_record(golden_bundle())
        record["samples"][0]["sampling"]["temperature"] = 1
        path = self.write_lines(tmp_path, [dumps(record)])
        (bundle,) = read_bundles(path)
        assert type(bundle.samples[0].sampling.temperature) is float
        assert dumps(bundle_to_record(bundle)) == dumps(bundle_to_record(golden_bundle()))

    def test_bundle_reader_accepts_scored_records_dropping_scores(self, tmp_path):
        # scored files are a superset of bundle files; re-scoring one works
        scored = mk_scored(1, UP, 2.0)
        path = self.write_lines(tmp_path, [dumps(scored_to_record(scored))])
        assert list(read_bundles(path)) == [scored.bundle]


class TestStdStreams:
    def test_dash_reads_stdin(self, monkeypatch):
        line = dumps(bundle_to_record(golden_bundle()))
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        assert list(read_bundles("-")) == [golden_bundle()]

    def test_dash_writes_stdout(self, monkeypatch, capsys):
        scored = ScoredExample(
            bundle=golden_bundle(),
            scores=UncertaintyScores(ppl=3.0, inconsistency=0.5, cocoa=3.0),
        )
        assert write_scored("-", [scored]) == Counter({UP: 1})
        assert capsys.readouterr().out == GOLDEN_BUNDLE_LINE[:-1] + GOLDEN_SCORES_SUFFIX + "\n"


class TestTextThatIsNotUtf8:
    """A line that UTF-8 cannot hold is a malformed line, named by its
    number, in every reader: nothing read from it could be written back."""

    def write(self, tmp_path, edit) -> str:
        lines = [dumps(scored_to_record(mk_scored(i, UP, 1.0 + i))).encode() for i in range(3)]
        lines[2] = edit(lines[2])
        path = tmp_path / "in.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        return str(path)

    @pytest.mark.parametrize("read", [read_bundles, read_scored])
    def test_a_byte_that_is_not_utf8(self, tmp_path, read):
        path = self.write(tmp_path, lambda line: line.replace(b"reasoning", b"reas\xffoning"))
        at = Path(path).read_bytes().split(b"\n")[2].index(b"\xff") + 1  # all ASCII before it
        with pytest.raises(JsonlFormatError, match=f":3: not valid UTF-8 at character {at} of"):
            list(read(path))

    def test_a_byte_that_is_not_utf8_in_a_queries_file(self, tmp_path):
        path = tmp_path / "q.jsonl"
        lines = [dumps(query_to_dict(mk_query(i))).encode() for i in range(2)]
        path.write_bytes(lines[0] + b"\n" + lines[1].replace(b"GENE1", b"GENE\xe91") + b"\n")
        with pytest.raises(JsonlFormatError, match=":2: not valid UTF-8"):
            list(read_queries(str(path)))

    def test_a_byte_that_is_not_utf8_on_stdin(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, lambda line: line.replace(b"reasoning", b"reas\xffoning"))
        with open(path, "rb") as raw:
            stdin = io.TextIOWrapper(io.BytesIO(raw.read()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        with pytest.raises(JsonlFormatError, match=":3: not valid UTF-8"):
            list(read_bundles("-"))

    @pytest.mark.parametrize("read", [read_bundles, read_scored])
    @pytest.mark.parametrize("escape", [b"\\ud800", b"\\uDFFF"])
    def test_a_lone_surrogate_escape(self, tmp_path, read, escape):
        path = self.write(tmp_path, lambda line: line.replace(b"reasoning", b"reas" + escape))
        code = escape.decode()[2:].lower()
        with pytest.raises(JsonlFormatError, match=rf":3: trace text holds the lone surrogate \\u{code}"):
            list(read(path))

    def test_a_lone_surrogate_escape_in_a_query_field(self, tmp_path):
        path = tmp_path / "q.jsonl"
        lines = [dumps(query_to_dict(mk_query(i))) for i in range(2)]
        path.write_text(lines[0] + "\n" + lines[1].replace("GENE1", "GENE\\udc801") + "\n",
                        encoding="utf-8")
        with pytest.raises(JsonlFormatError, match=r":2: query gene holds the lone surrogate \\udc80"):
            list(read_queries(str(path)))

    def test_an_escaped_surrogate_pair_is_one_character(self, tmp_path):
        path = self.write(tmp_path, lambda line: line.replace(b"reasoning", b"\\ud83d\\ude00"))
        assert [b.greedy.text for b in read_bundles(path)][2].startswith("<think>\U0001f600 here")


class TestOpenOutput:
    def test_interrupted_write_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(KeyboardInterrupt):
            with open_output(str(path)) as fh:
                fh.write("new\n")
                raise KeyboardInterrupt
        assert path.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["out.jsonl"]

    def test_symlink_is_kept_and_its_target_replaced(self, tmp_path):
        target = tmp_path / "target.jsonl"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        write_scored(str(link), [mk_scored(0, UP, 2.0)])
        assert link.is_symlink()
        ex = mk_scored(0, UP, 2.0)
        assert list(read_records(str(target))) == [(ex.bundle, ex.scores)]
        assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "target.jsonl"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_descriptor_paths_write_the_open_descriptor(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("old\n", encoding="utf-8")
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        names = [f"/dev/fd/{fd}", f"/proc/self/fd/{fd}"]
        try:
            for name in names:
                assert not is_file_output(name)
                with open_output(name) as fh:
                    fh.write(name + "\n")
        finally:
            os.close(fd)
        assert path.read_text(encoding="utf-8").splitlines() == ["old", *names]
        assert os.listdir(tmp_path) == ["log.txt"]

    def test_device_paths_get_no_sidecars(self, tmp_path):
        for name in ("/dev/null", "/dev/stdout", "/dev/stderr", "-"):
            assert not is_file_output(name)
        assert is_file_output(str(tmp_path / "new.jsonl"))


class TestManifest:
    def write(self, tmp_path, counts=None, **kw) -> dict:
        """Write the manifest of tmp_path/d.jsonl and return it as read back."""
        counts = Counter({UP: 1, NONREG: 2}) if counts is None else counts
        path = tmp_path / "d.jsonl"
        write_manifest(str(path), "in.jsonl", "cafebabe", counts, **kw)
        with open(str(path) + ".manifest.json", encoding="utf-8") as fh:
            return json.load(fh)

    def test_roundtrip(self, tmp_path):
        m = self.write(tmp_path, rejected=1, seed=7, prng="mt19937-fisher-yates-prefix")
        datetime.fromisoformat(m.pop("created_at"))
        assert m == {
            "source_path": "in.jsonl",
            "n_examples": 3,
            "class_counts": {"upregulated": 1, "downregulated": 0,
                             "not differentially expressed": 2},
            "rejected": 1,
            "pipeline_config_hash": "cafebabe",
            "seed": 7,
            "prng": "mt19937-fisher-yates-prefix",
        }

    def test_counts_keyed_by_canonical_strings(self, tmp_path):
        m = self.write(tmp_path, counts=Counter({NONREG: 2, DOWN: 1, UP: 1}))
        assert list(m["class_counts"]) == [
            "upregulated",
            "downregulated",
            "not differentially expressed",
        ]

    def test_unparsed_rows_are_not_examples(self, tmp_path):
        m = self.write(tmp_path, counts=Counter({UP: 1, None: 4}), rejected=4)
        assert m["n_examples"] == 1 and m["rejected"] == 4

    def test_created_at_is_utc_to_the_second(self, tmp_path):
        before = datetime.now(timezone.utc) - timedelta(seconds=1)  # created_at drops the fraction
        created_at = self.write(tmp_path)["created_at"]
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", created_at)
        when = datetime.fromisoformat(created_at)
        assert when.utcoffset() == timedelta(0)
        assert before <= when <= datetime.now(timezone.utc) + timedelta(seconds=5)

    def test_created_at_reads_the_precise_clock(self, tmp_path, monkeypatch):
        # time.gmtime() with no argument reads a coarser clock, which can lag time.time()
        monkeypatch.setattr("time.time", lambda: 1_700_000_000.9)
        assert self.write(tmp_path)["created_at"] == "2023-11-14T22:13:20+00:00"

    def test_seed_omitted_when_absent(self, tmp_path):
        m = self.write(tmp_path)
        assert "seed" not in m and "prng" not in m
        assert list(m) == ["source_path", "n_examples", "class_counts", "rejected",
                           "created_at", "pipeline_config_hash"]

    def test_file_is_indented_json(self, tmp_path):
        self.write(tmp_path)
        text = (tmp_path / "d.jsonl.manifest.json").read_text(encoding="utf-8")
        assert text.startswith("{\n  ")
        assert json.loads(text)["n_examples"] == 3

    @pytest.mark.parametrize("path", ["-", "/dev/null"])
    def test_no_sidecar_beside_a_stream(self, tmp_path, monkeypatch, path):
        monkeypatch.chdir(tmp_path)
        write_manifest(path, "in.jsonl", "cafebabe", Counter({UP: 1}))
        assert os.listdir(tmp_path) == []

    def test_counts_are_the_scored_rows_per_class(self, tmp_path):
        bundles = [
            mk_bundle(0, greedy_label=UP, sample_labels=(UP, UP)),
            mk_bundle(1, greedy_label=None),  # unparseable -> rejected
            mk_bundle(2, greedy_label=DOWN, sample_labels=(DOWN,)),
            mk_bundle(3, greedy_label=NONREG, sample_labels=()),  # no samples -> rejected
        ]
        stats = ScoreStats()
        path = str(tmp_path / "d.jsonl")
        counts = write_scored(path, score_dataset(bundles, LexicalCosineProvider(), stats=stats))
        assert counts == {UP: 1, DOWN: 1}
        m = self.write(tmp_path, counts=counts, rejected=stats.rejected)
        assert m["n_examples"] == 2 and m["rejected"] == 2
        assert m["class_counts"] == {"upregulated": 1, "downregulated": 1,
                                     "not differentially expressed": 0}


def test_write_dataset_tallies_labels_and_writes_canonical_rows(tmp_path):
    path = tmp_path / "d.jsonl"
    rows = [({"b": 1, "a": "é"}, UP), ({"x": None}, None), ({}, UP)]
    assert write_dataset(str(path), iter(rows)) == Counter({UP: 2, None: 1})
    assert path.read_text(encoding="utf-8") == '{"b":1,"a":"é"}\n{"x":null}\n{}\n'


# --- read_scored against the full reader ---

#: Where a mutation lands in a scored record, and the keys it may drop or
#: set there ("extra" is never allowed).
_SITES = {
    (): ("v", "query", "greedy", "samples", "scores", "extra"),
    ("query",): ("id", "cell_type", "gene", "gold_label", "extra"),
    ("greedy",): ("text", "answer", "logprobs", "sampling", "extra"),
    ("greedy", "sampling"): ("temperature", "top_p", "top_k", "seed", "extra"),
    ("samples", 0): ("text", "answer", "logprobs", "sampling", "extra"),
    ("samples", 0, "sampling"): ("temperature", "top_p", "top_k", "seed", "extra"),
    ("scores",): ("ppl", "inconsistency", "cocoa", "extra"),
}
_NAN, _INF = float("nan"), float("inf")
_OBJECTS = ([], {}, None, "x")
_SCORES = (1.0, 3.0, 0.5, 0.0, -0.0, 2, -1.0, _NAN, _INF, None, True)
#: The values a mutation may give each key; _DROP removes the key.
_DROP = object()
_VALUES = {
    "v": (1, 2, 1.0, True, "1"),
    "query": _OBJECTS, "greedy": _OBJECTS, "samples": _OBJECTS, "scores": _OBJECTS,
    "id": ("q-9", "", 1, None), "cell_type": ("", 1), "gene": ("g", True),
    "gold_label": ("upregulated", " Up ", "DOWN", "bogus", None, 1),
    "text": ("x", "<answer>down</answer>", "<answer> Up </answer>", "<answer>maybe</answer>", 1),
    "answer": ("upregulated", "bogus", None, 1),
    "logprobs": (None, [], [-0.5, 0], [-0.5, _NAN], [-0.5, -_INF], [-1, True], [-(10**400)], "x"),
    "sampling": _OBJECTS + ({"temperature": 0.0, "top_p": 1.0, "top_k": None},),
    "temperature": (0.0, -0.0, 0, 1, 0.7, -1.0, True, _NAN, _INF, None, "1"),
    "top_p": (1.0, 0.5, 1, 0.0, -0.0, 1.5, True, _NAN, None),
    "top_k": (None, 1, 50, 0, -1, True, 2.5, "50", _NAN),
    "seed": (None, 0, 7, -3, True, 1.0, "7"),
    "ppl": _SCORES, "inconsistency": _SCORES, "cocoa": _SCORES,
    "extra": (1,),
}


@st.composite
def _mutation(draw):
    site = draw(st.sampled_from(sorted(_SITES, key=len)))
    key = draw(st.sampled_from(_SITES[site]))
    return site, key, draw(st.sampled_from((_DROP, *_VALUES[key])))


def _reference_rows(path: str, linenos: list[int]) -> list[ScoredRow]:
    """read_records followed by the scored-example check: the full reader
    that read_scored must agree with."""
    rows = []
    for lineno, (bundle, scores) in zip(linenos, read_records(path)):
        if scores is None:
            raise JsonlFormatError(path, lineno, "line has no scores object")
        try:
            ex = ScoredExample(bundle=bundle, scores=scores)
        except ValueError as exc:
            raise JsonlFormatError(path, lineno, str(exc)) from None
        rows += rows_of([ex], lineno)
    return rows


def _outcome(read, *args):
    try:
        return read(*args)
    except JsonlFormatError as exc:
        return (exc.lineno, str(exc))


@pytest.fixture(scope="module")
def mutation_path(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("mutations") / "scored.jsonl")


@settings(max_examples=400, deadline=None)
@given(st.lists(_mutation(), min_size=1, max_size=3))
@example([((), "scores", _DROP)])
@example([(("greedy",), "text", "x")])
@example([(("greedy", "sampling"), "temperature", 0.7)])
@example([(("greedy", "sampling"), "temperature", -0.0), (("samples", 0, "sampling"), "seed", 7)])
@example([(("samples", 0), "text", "x"), (("samples", 0, "sampling"), "top_k", 0)])
def test_read_scored_refuses_and_accepts_what_the_full_reader_does(mutation_path, mutations):
    """One validator: on any mutated line read_scored raises the error the
    full reader raises (message and line), or yields the rows it yields,
    though it never builds the sample traces."""
    good = scored_to_record(mk_scored(1, DOWN, 1.5, gold=UP))
    record = scored_to_record(mk_scored(2, UP, 2.5, gold=DOWN))
    record["samples"][0]["logprobs"] = [-0.25, -1.0]
    for site, key, value in mutations:
        obj = record
        try:
            for step in site:
                obj = obj[step]
        except (KeyError, IndexError, TypeError):  # an earlier mutation removed the site
            continue
        if not isinstance(obj, dict):
            continue
        if value is _DROP:
            obj.pop(key, None)
        else:  # a copy: a later mutation must not change the shared _VALUES
            obj[key] = copy.deepcopy(value)
    with open(mutation_path, "w", encoding="utf-8") as fh:
        fh.write(dumps(good) + "\n\n" + json.dumps(record, ensure_ascii=False) + "\n")
    want = _outcome(_reference_rows, mutation_path, [1, 3])
    assert _outcome(lambda p: list(read_scored(p)), mutation_path) == want


#: an integer above the largest float that float() still rounds down to it,
#: and the first one that float() cannot convert
_ROUNDS_TO_MAX = 2**1024 - 2**970 - 1
_OVERFLOWS = 2**1024 - 2**970


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                 st.sampled_from([10**400, -(10**400), _ROUNDS_TO_MAX, -_OVERFLOWS]),
                 st.integers(int(sys.float_info.max) - 1, _OVERFLOWS + 1)))
@example(int(sys.float_info.max) + 1)
@example(-0.0)
def test_speed_paths_accept_and_refuse_what_checked_does(value):
    """The reader's vector check of logprobs shortens model.checked's rule,
    and its sampling check applies that rule: on any value from outside
    both accept what it accepts, keep the float it returns (sign of zero
    included), and refuse the rest with their line-numbered messages."""
    ctx = _Ctx("d.jsonl", 7)
    try:
        number = checked(value, "v", float)
    except ValueError:
        number = None
    trace = {"text": "x", "logprobs": [-0.5, value],
             "sampling": {"temperature": 1.0, "top_p": 1.0, "top_k": None}}
    if number is None:
        with pytest.raises(JsonlFormatError,
                           match=r"^d\.jsonl:7: trace logprobs must be (finite|a list of numbers)$"):
            _trace_fields(trace, ctx)
    else:
        assert repr(_trace_fields(trace, ctx)[2]) == repr((-0.5, number))
    sampling = {"temperature": value, "top_p": 1.0, "top_k": None}
    if number is None or number < 0:  # SamplingParams also refuses a negative one
        with pytest.raises(JsonlFormatError, match=r"^d\.jsonl:7: bad sampling params: temperature "):
            _sampling_from_dict(sampling, ctx)
    else:
        assert repr(_sampling_from_dict(sampling, ctx).temperature) == repr(number)
    try:
        seed = checked(value, "seed", int)
    except ValueError:
        with pytest.raises(JsonlFormatError, match=r"^d\.jsonl:7: bad sampling params: seed must be "):
            _sampling_from_dict({**trace["sampling"], "seed": value}, ctx)
    else:
        assert _sampling_from_dict({**trace["sampling"], "seed": value}, ctx).seed == seed
