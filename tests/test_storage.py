"""JSONL wire format: byte-stable output, lossless round-trips, hard errors."""

from __future__ import annotations

import io
import json
import os
import random
from collections import Counter
from datetime import datetime

import pytest

from curator.errors import JsonlFormatError
from curator.model import ParseStatus, UncertaintyScores
from curator.storage import (
    SCHEMA_VERSION,
    bundle_to_record,
    dumps,
    is_file_output,
    open_output,
    query_to_dict,
    read_bundles,
    read_queries,
    read_scored,
    scored_to_record,
    write_dataset,
    write_manifest,
    write_scored,
)
from curator.similarity import LexicalCosineProvider
from curator.uncertainty import ScoredExample, ScoreStats, score_dataset

from helpers import DOWN, NONREG, UP, mk_bundle, mk_query, mk_scored, rand_bundle, write_jsonl

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
        assert list(read_scored(path)) == items

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

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write_lines(tmp_path, ["", dumps(bundle_to_record(golden_bundle())), ""])
        assert len(list(read_bundles(path))) == 1

    def test_duplicate_query_id_refused(self, tmp_path):
        line = dumps(bundle_to_record(golden_bundle()))
        path = self.write_lines(tmp_path, [line, line])
        with pytest.raises(JsonlFormatError, match="duplicate"):
            list(read_bundles(path))

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
        with pytest.raises(JsonlFormatError):
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
        assert list(read_scored(str(target))) == [mk_scored(0, UP, 2.0)]
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
