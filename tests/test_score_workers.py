"""`score` with a local provider runs in worker processes; its output,
manifest and errors must be those of scoring the whole stream in one
process (storage.write_scored over uncertainty.score_dataset), for any
number of workers and across chunk boundaries."""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import subprocess
import sys

import pytest

import curator
from curator import score_workers
from curator.cli import main
from curator.errors import CuratorError, JsonlFormatError, MissingScoreInputs
from curator.model import MetricVariant
from curator.similarity import get_provider
from curator.storage import bundle_to_record, dumps, read_bundles, write_scored
from curator.uncertainty import ScoreStats, score_dataset

from helpers import DOWN, NONREG, UP, mk_bundle

SRC = os.path.dirname(os.path.dirname(curator.__file__))


def mixed_bundles(n: int = 30) -> list:
    """Scoreable bundles of every predicted class, with a rejected bundle
    (unparsed greedy answer) every seventh row and one without logprobs
    every fifth."""
    labels = (UP, DOWN, NONREG)
    out = []
    for i in range(n):
        greedy = None if i % 7 == 3 else labels[i % 3]
        logprobs = None if i % 5 == 2 else (-0.1 * (i + 1), -0.2)
        out.append(mk_bundle(i, greedy, (labels[i % 2], labels[(i + 1) % 3], None),
                             logprobs=logprobs, greedy_body=f"case {i} " * (i % 4 + 1)))
    return out


def write_lines(path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def lines_of(bundles) -> list[str]:
    return [dumps(bundle_to_record(b)) for b in bundles]


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of about three short lines, so every input spans many."""
    monkeypatch.setattr(score_workers, "CHUNK_CHARS", 3 * 700)


def set_workers(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def serial(bundles: str, out: str, provider: str = "lexical", variant: str = "cocoa"):
    """Score in this process alone: (label counts, stats), or the error."""
    stats = ScoreStats()
    try:
        counts = write_scored(out, score_dataset(read_bundles(bundles), get_provider(provider),
                                                 MetricVariant(variant), stats))
    except CuratorError as exc:
        return exc
    return counts, stats


@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_output_and_manifest_equal_the_serial_run(tmp_path, monkeypatch, small_chunks, n_workers):
    bundles = tmp_path / "b.jsonl"
    write_lines(bundles, lines_of(mixed_bundles()))
    counts, stats = serial(str(bundles), str(tmp_path / "serial.jsonl"), variant="consistency")
    assert stats.rejected > 0 and len(counts) == 3
    set_workers(monkeypatch, n_workers)
    out = tmp_path / "scored.jsonl"
    assert main(["score", str(bundles), str(out), "--variant", "consistency"]) == 0
    assert out.read_bytes() == (tmp_path / "serial.jsonl").read_bytes()
    manifest = json.loads((tmp_path / "scored.jsonl.manifest.json").read_text(encoding="utf-8"))
    assert manifest["rejected"] == stats.rejected
    assert manifest["class_counts"] == {label.value: counts[label] for label in (UP, DOWN, NONREG)}
    assert multiprocessing.active_children() == []


def test_stdout_gets_each_row_once(tmp_path):
    bundles = tmp_path / "b.jsonl"
    write_lines(bundles, lines_of(mixed_bundles(200)))
    serial(str(bundles), str(tmp_path / "serial.jsonl"), variant="consistency")
    env = {k: v for k, v in os.environ.items() if not k.startswith("CURATOR_")}
    env["PYTHONPATH"] = SRC
    code = ("import sys\nfrom curator import score_workers\nfrom curator.cli import main\n"
            "score_workers.CHUNK_CHARS = 2000\n"
            "sys.exit(main(['score', sys.argv[1], '-', '--variant', 'consistency']))")
    with open(tmp_path / "stdout.jsonl", "wb") as stdout:
        done = subprocess.run([sys.executable, "-c", code, str(bundles)], env=env,
                              stdout=stdout, stderr=subprocess.PIPE, timeout=60)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "stdout.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()


def duplicate_then(lines: list[str], first: int, second: int) -> list[str]:
    """lines with line `first` (0-based) repeating the id of line 0 and
    line `second` of an unsupported schema version."""
    lines = list(lines)
    lines[first] = lines[first].replace('"id":"q-%04d"' % first, '"id":"q-0000"')
    lines[second] = lines[second].replace('{"v":1,', '{"v":2,')
    return lines


@pytest.mark.parametrize("first, second, named", [
    (4, 20, "duplicate query id 'q-0000'"),
    (20, 4, "unsupported schema version 2"),
], ids=["duplicate-first", "schema-error-first"])
def test_the_first_error_in_line_order_wins(tmp_path, capsys, small_chunks, first, second, named):
    bundles = tmp_path / "b.jsonl"
    lines = duplicate_then(lines_of(mixed_bundles()), first, second)
    write_lines(bundles, lines)
    expected = serial(str(bundles), str(tmp_path / "serial.jsonl"), variant="consistency")
    lineno = min(first, second) + 1
    assert str(expected) == f"{bundles}:{lineno}: {named}"
    out = tmp_path / "scored.jsonl"
    assert main(["score", str(bundles), str(out), "--variant", "consistency"]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.jsonl"]
    assert multiprocessing.active_children() == []


def test_a_duplicate_id_is_reported_before_its_line_is_validated(tmp_path, capsys):
    bundles = tmp_path / "b.jsonl"
    lines = lines_of(mixed_bundles(3))
    lines[2] = lines[2].replace('"id":"q-0002"', '"id":"q-0000"').replace('{"v":1,', '{"v":2,')
    write_lines(bundles, lines)
    assert main(["score", str(bundles), str(tmp_path / "out.jsonl")]) == 1
    assert capsys.readouterr().err == f"error: {bundles}:3: duplicate query id 'q-0000'\n"


def test_missing_inputs_are_listed_in_input_order(tmp_path, capsys, small_chunks):
    bundles = tmp_path / "b.jsonl"
    write_lines(bundles, lines_of(mixed_bundles()))
    expected = serial(str(bundles), str(tmp_path / "serial.jsonl"), variant="cocoa")
    assert isinstance(expected, MissingScoreInputs)
    assert expected.ids == ["q-0002", "q-0007", "q-0012", "q-0022", "q-0027"]  # q-0017 is rejected
    out = tmp_path / "scored.jsonl"
    assert main(["score", str(bundles), str(out), "--variant", "cocoa"]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not out.exists()


def test_an_unparsed_sample_is_missing_under_answer_agreement(tmp_path, capsys, small_chunks):
    # every bundle has an unparsed sample, and every fifth no logprobs:
    # both reasons are reported, with every id in input order
    bundles = tmp_path / "b.jsonl"
    write_lines(bundles, lines_of(mixed_bundles()))
    expected = serial(str(bundles), str(tmp_path / "serial.jsonl"), "answer", "cocoa")
    assert isinstance(expected, MissingScoreInputs) and "; " in expected.reason
    assert main(["score", str(bundles), str(tmp_path / "out.jsonl"),
                 "--provider", "answer", "--variant", "cocoa"]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert multiprocessing.active_children() == []


def test_workers_are_gone_after_success_and_failure(tmp_path):
    bundles = tmp_path / "b.jsonl"
    write_lines(bundles, lines_of(mixed_bundles()))
    assert main(["score", str(bundles), str(tmp_path / "a.jsonl"), "--variant", "consistency"]) == 0
    assert multiprocessing.active_children() == []
    assert main(["score", str(bundles), str(tmp_path / "b.out"), "--variant", "cocoa"]) == 1
    assert multiprocessing.active_children() == []


def test_an_empty_input_gives_an_empty_output(tmp_path):
    bundles = tmp_path / "b.jsonl"
    bundles.write_text("\n", encoding="utf-8")
    out = tmp_path / "scored.jsonl"
    assert main(["score", str(bundles), str(out)]) == 0
    assert out.read_bytes() == b""


def test_usable_cpus_follows_the_affinity(monkeypatch):
    set_workers(monkeypatch, 3)
    assert score_workers.usable_cpus() == 3


@pytest.mark.parametrize("error", [
    JsonlFormatError("data/b.jsonl", 7, "duplicate query id 'q-1'"),
    MissingScoreInputs([f"q-{i}" for i in range(25)], "no logprobs"),
], ids=["JsonlFormatError", "MissingScoreInputs"])
def test_errors_survive_pickling(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)
