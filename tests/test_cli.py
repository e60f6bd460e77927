"""End-to-end command-line runs: the whole pipeline against temp files."""

import argparse
import io
import json
import os
import sys

import pytest

from curator.cli import build_parser, main
from curator.config import DEFAULTS, config_hash, load_config, set_option
from curator.filtering import RANDOM_FILTER_PRNG
from curator.model import LABEL_ORDER, QueryTuple
from curator.simulate import SIM_PRNG
from curator.storage import (
    query_to_dict,
    read_bundles,
    read_scored,
    scored_to_record,
    write_scored,
)

from conftest import completion_body
from helpers import DOWN, NONREG, UP, mk_bundle, mk_query, mk_scored, trace_text, write_jsonl


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("CURATOR_"):
            monkeypatch.delenv(name)


def read_manifest(path) -> dict:
    with open(str(path) + ".manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def simulate(tmp_path, *extra) -> str:
    out = tmp_path / "bundles.jsonl"
    rc = main(["simulate", str(out), "--n", "120", "--k", "4", "--seed", "5", *extra])
    assert rc == 0
    return str(out)


def score(tmp_path, bundles: str, *extra) -> str:
    out = tmp_path / "scored.jsonl"
    rc = main(["score", bundles, str(out), "--provider", "lexical", *extra])
    assert rc == 0
    return str(out)


# --- the full offline pipeline ---


def test_simulate_writes_dataset_and_manifest(tmp_path):
    bundles = simulate(tmp_path)
    assert len(list(read_bundles(bundles))) == 120
    manifest = read_manifest(bundles)
    assert manifest["n_examples"] == 120
    assert sum(manifest["class_counts"].values()) == 120
    assert manifest["seed"] == 5
    assert manifest["prng"] == SIM_PRNG
    assert manifest["source_path"] == "simulated"
    assert len(manifest["pipeline_config_hash"]) == 64


def test_score_attaches_uncertainty_values(tmp_path):
    bundles = simulate(tmp_path)
    scored = score(tmp_path, bundles, "--variant", "cocoa")
    rows = list(read_scored(scored))
    assert len(rows) == 120
    assert all(ex.scores.cocoa is not None for ex in rows)
    manifest = read_manifest(scored)
    assert manifest["n_examples"] == 120
    assert manifest["rejected"] == 0


def test_filter_retains_fraction(tmp_path):
    bundles = simulate(tmp_path)
    scored = score(tmp_path, bundles)
    subset = tmp_path / "subset.jsonl"
    rc = main(["filter", scored, str(subset), "--strategy", "global",
               "--fraction", "0.1", "--key", "cocoa"])
    assert rc == 0
    assert len(list(read_scored(str(subset)))) == 12
    manifest = read_manifest(subset)
    assert manifest["n_examples"] == 12
    assert "seed" not in manifest  # score-ranked: no randomness to record


def test_random_filter_manifest_records_seed(tmp_path):
    bundles = simulate(tmp_path)
    scored = score(tmp_path, bundles)
    subset = tmp_path / "subset.jsonl"
    rc = main(["filter", scored, str(subset), "--strategy", "random",
               "--fraction", "0.1", "--seed", "77"])
    assert rc == 0
    manifest = read_manifest(subset)
    assert manifest["seed"] == 77
    assert manifest["prng"]  # scheme name recorded for reproducibility


def test_evaluate_writes_report_and_summary(tmp_path, capsys):
    bundles = simulate(tmp_path)
    scored = score(tmp_path, bundles)
    report_path = tmp_path / "report.json"
    rc = main(["evaluate", scored, str(report_path), "--resamples", "200", "--seed", "3"])
    assert rc == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["n"] == 120
    assert report["n_resamples"] == 200
    assert 0.0 <= report["accuracy"]["point"] <= 1.0
    out = capsys.readouterr().out
    assert "accuracy" in out
    assert "precision" in out


def test_evaluate_is_reproducible(tmp_path):
    bundles = simulate(tmp_path)
    scored = score(tmp_path, bundles)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["evaluate", scored, str(a), "--resamples", "300", "--seed", "11"]) == 0
    assert main(["evaluate", scored, str(b), "--resamples", "300", "--seed", "11"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stratify_emits_decile_csv(tmp_path):
    bundles = simulate(tmp_path)
    scored = score(tmp_path, bundles)
    out = tmp_path / "deciles.csv"
    rc = main(["stratify", scored, str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("bin,count,mean_score,")
    assert len(lines) == 11  # header + ten bins


def test_sweep_emits_one_row_per_fraction(tmp_path):
    bundles = simulate(tmp_path)
    scored = score(tmp_path, bundles)
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", scored, str(out), "--fractions", "0.5,1.0"])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("fraction,")
    assert len(lines) == 3


def test_export_sft_renders_chat_messages(tmp_path):
    bundles = simulate(tmp_path)
    scored = score(tmp_path, bundles)
    subset = tmp_path / "subset.jsonl"
    assert main(["filter", scored, str(subset), "--fraction", "0.1"]) == 0
    sft = tmp_path / "sft.jsonl"
    rc = main(["export-sft", str(subset), str(sft)])
    assert rc == 0
    lines = sft.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(list(read_scored(str(subset))))
    record = json.loads(lines[0])
    roles = [m["role"] for m in record["messages"]]
    assert roles == ["system", "user", "assistant"]
    assert "<answer>" in record["messages"][2]["content"]


# --- the manifest every dataset command writes ---

MANIFEST_KEYS = ["source_path", "n_examples", "class_counts", "rejected", "created_at",
                 "pipeline_config_hash"]


def hash_of(flags: dict) -> str:
    """The config hash of the defaults with these "<section>.<key>" flags set."""
    config = load_config(environ={})
    for dest, value in flags.items():
        set_option(config, *dest.split("."), value)
    return config_hash(config)


def counts(up: int, down: int, nonreg: int) -> dict:
    return dict(zip((label.value for label in LABEL_ORDER), (up, down, nonreg)))


def assert_manifest(out, keys: list[str], expected: dict) -> None:
    """The manifest beside out has these keys in this order, class counts in
    canonical label order, and expected's values apart from created_at."""
    manifest = read_manifest(out)
    assert list(manifest) == keys
    assert list(manifest["class_counts"]) == [label.value for label in LABEL_ORDER]
    del manifest["created_at"]
    assert manifest == expected


def test_every_dataset_command_writes_its_manifest(tmp_path, endpoint):
    sim = tmp_path / "sim.jsonl"
    flags = {"sim.n": 30, "sim.k": 2, "sim.seed": 5}
    assert main(["simulate", str(sim), "--n", "30", "--k", "2", "--seed", "5"]) == 0
    assert_manifest(sim, [*MANIFEST_KEYS, "seed", "prng"], {
        "source_path": "simulated", "n_examples": 30, "class_counts": counts(7, 8, 15),
        "rejected": 0, "pipeline_config_hash": hash_of(flags), "seed": 5, "prng": SIM_PRNG,
    })

    bundles = tmp_path / "bundles.jsonl"
    write_jsonl(str(bundles), [
        mk_bundle(0, UP),
        mk_bundle(1, greedy_label=None),  # no parsed answer: rejected
        mk_bundle(2, DOWN, sample_labels=(DOWN,)),
        mk_bundle(3, NONREG, sample_labels=()),  # no samples: rejected
        mk_bundle(4, NONREG, sample_labels=(NONREG, UP)),
        mk_bundle(5, UP, sample_labels=(DOWN,)),
    ])
    scored = tmp_path / "scored.jsonl"
    assert main(["score", str(bundles), str(scored)]) == 0
    assert_manifest(scored, MANIFEST_KEYS, {
        "source_path": str(bundles), "n_examples": 4, "class_counts": counts(2, 1, 1),
        "rejected": 2, "pipeline_config_hash": hash_of({}),
    })

    subset = tmp_path / "subset.jsonl"
    assert main(["filter", str(scored), str(subset), "--fraction", "0.5"]) == 0
    assert_manifest(subset, MANIFEST_KEYS, {
        "source_path": str(scored), "n_examples": 3, "class_counts": counts(1, 1, 1),
        "rejected": 0, "pipeline_config_hash": hash_of({"filter.fraction": 0.5}),
    })

    rnd = tmp_path / "random.jsonl"
    flags = {"filter.strategy": "random", "filter.fraction": 0.5, "filter.seed": 9}
    assert main(["filter", str(scored), str(rnd), "--strategy", "random",
                 "--fraction", "0.5", "--seed", "9"]) == 0
    assert_manifest(rnd, [*MANIFEST_KEYS, "seed", "prng"], {
        "source_path": str(scored), "n_examples": 2, "class_counts": counts(1, 1, 0),
        "rejected": 0, "pipeline_config_hash": hash_of(flags), "seed": 9,
        "prng": RANDOM_FILTER_PRNG,
    })

    sft = tmp_path / "sft.jsonl"
    assert main(["export-sft", str(bundles), str(sft)]) == 0
    assert_manifest(sft, MANIFEST_KEYS, {
        "source_path": str(bundles), "n_examples": 5, "class_counts": counts(2, 1, 2),
        "rejected": 1, "pipeline_config_hash": hash_of({}),
    })

    def app(request):
        unparsed = "the PERT1 gene" in request.body["messages"][1]["content"]
        return 200, completion_body(trace_text(None if unparsed else DOWN), logprobs=[-0.1])

    server = endpoint(app)
    queries = queries_file(tmp_path, n=3)
    gen = tmp_path / "gen.jsonl"
    flags = {"llm.base_url": server.base_url, "llm.model": "m", "llm.k": 1}
    assert main(["generate", queries, str(gen), "--base-url", server.base_url,
                 "--model", "m", "--k", "1"]) == 0
    assert_manifest(gen, MANIFEST_KEYS, {
        "source_path": queries, "n_examples": 2, "class_counts": counts(0, 2, 0),
        "rejected": 1, "pipeline_config_hash": hash_of(flags),
    })


# --- generate against a mock endpoint ---


def queries_file(tmp_path, n=3) -> str:
    path = tmp_path / "queries.jsonl"
    queries = [
        QueryTuple(id=f"q-{i}", cell_type="K562", perturbation=f"PERT{i}",
                   gene=f"GENE{i}", gold_label=UP)
        for i in range(n)
    ]
    write_jsonl(str(path), queries, query_to_dict)
    return str(path)


def test_generate_end_to_end(tmp_path, endpoint):
    def app(request):
        return 200, completion_body(trace_text(UP, "steady induction"),
                                    logprobs=[-0.1, -0.2])

    server = endpoint(app)
    queries = queries_file(tmp_path, n=3)
    out = tmp_path / "gen.jsonl"
    rc = main(["generate", queries, str(out),
               "--base-url", server.base_url, "--model", "m", "--k", "2"])
    assert rc == 0
    bundles = list(read_bundles(str(out)))
    assert len(bundles) == 3
    assert all(len(b.samples) == 2 for b in bundles)
    assert len(server.requests) == 9  # (1 greedy + 2 samples) x 3 queries
    usage = json.loads((tmp_path / "gen.jsonl.usage.json").read_text(encoding="utf-8"))
    assert usage["requests"] == 9
    assert usage["failures"] == []
    manifest = read_manifest(out)
    assert manifest["n_examples"] == 3


def test_generate_partial_failure_exits_2(tmp_path, endpoint, no_sleep):
    def app(request):
        user = request.body["messages"][1]["content"]
        if "the PERT1 gene" in user:
            return 400, {"error": "bad request"}
        return 200, completion_body(trace_text(UP, "steady induction"),
                                    logprobs=[-0.1, -0.2])

    server = endpoint(app)
    queries = queries_file(tmp_path, n=3)
    out = tmp_path / "gen.jsonl"
    rc = main(["generate", queries, str(out),
               "--base-url", server.base_url, "--model", "m", "--k", "1"])
    assert rc == 2
    assert len(list(read_bundles(str(out)))) == 2  # survivors still written
    usage = json.loads((tmp_path / "gen.jsonl.usage.json").read_text(encoding="utf-8"))
    assert [f["id"] for f in usage["failures"]] == ["q-1"]


@pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
def test_generate_non_finite_logprob_fails_only_that_query(tmp_path, endpoint, bad):
    def app(request):
        user = request.body["messages"][1]["content"]
        logprobs = [-0.1, bad] if "the PERT1 gene" in user else [-0.1, -0.2]
        return 200, completion_body(trace_text(UP, "steady induction"), logprobs=logprobs)

    server = endpoint(app)
    queries = queries_file(tmp_path, n=3)
    out = tmp_path / "gen.jsonl"
    rc = main(["generate", queries, str(out),
               "--base-url", server.base_url, "--model", "m", "--k", "1"])
    assert rc == 2
    assert [b.query.id for b in read_bundles(str(out))] == ["q-0", "q-2"]
    usage = json.loads((tmp_path / "gen.jsonl.usage.json").read_text(encoding="utf-8"))
    assert [f["id"] for f in usage["failures"]] == ["q-1"]
    assert "finite" in usage["failures"][0]["error"]
    assert read_manifest(out)["n_examples"] == 2


def _with_usage(usage):
    body = completion_body(trace_text(UP, "steady induction"), logprobs=[-0.1, -0.2])
    return {**body, "usage": usage}


@pytest.mark.parametrize(
    "bad_body, named",
    [
        ([completion_body(trace_text(UP))], "response body must be an object"),
        (_with_usage([1]), "usage must be an object"),
        (_with_usage({"prompt_tokens": "x", "completion_tokens": 40}), "prompt_tokens must be an integer"),
        (_with_usage({"prompt_tokens": 120, "completion_tokens": 2.5}), "completion_tokens must be an integer"),
        (_with_usage({"prompt_tokens": True}), "prompt_tokens must be an integer"),
        (_with_usage({"prompt_tokens": -500, "completion_tokens": -7}),
         "prompt_tokens must be non-negative, got -500"),
        (_with_usage({"prompt_tokens": 120, "completion_tokens": -7}),
         "completion_tokens must be non-negative, got -7"),
    ],
    ids=["array-body", "usage-array", "string-tokens", "float-tokens", "bool-tokens",
         "negative-tokens", "negative-completion-tokens"],
)
def test_generate_mistyped_response_fails_only_that_query(tmp_path, endpoint, bad_body, named):
    def app(request):
        user = request.body["messages"][1]["content"]
        if "the PERT1 gene" in user:
            return 200, bad_body
        return 200, completion_body(trace_text(UP, "steady induction"), logprobs=[-0.1, -0.2])

    server = endpoint(app)
    queries = queries_file(tmp_path, n=3)
    out = tmp_path / "gen.jsonl"
    rc = main(["generate", queries, str(out),
               "--base-url", server.base_url, "--model", "m", "--k", "1"])
    assert rc == 2
    assert [b.query.id for b in read_bundles(str(out))] == ["q-0", "q-2"]
    usage = json.loads((tmp_path / "gen.jsonl.usage.json").read_text(encoding="utf-8"))
    assert [f["id"] for f in usage["failures"]] == ["q-1"]
    assert named in usage["failures"][0]["error"]
    assert usage["failed"] == 1 and usage["requests"] == 4
    assert usage["prompt_tokens"] == 4 * 120


@pytest.mark.parametrize(
    "item, named",
    [
        ({"token": "t1", "logprob": "-0.5"}, "logprob must be a finite number, got '-0.5'"),
        ({"token": "t1", "logprob": True}, "logprob must be a finite number, got True"),
        ({"token": "t1", "logprob": 3.0}, "log-probability 3.0 is positive"),
        ({"token": 5, "logprob": -0.2}, "logprob token must be a string, got 5"),
    ],
    ids=["string-logprob", "bool-logprob", "positive-logprob", "integer-token"],
)
def test_generate_mistyped_logprob_fails_only_that_query(tmp_path, endpoint, item, named):
    def app(request):
        user = request.body["messages"][1]["content"]
        body = completion_body(trace_text(UP, "steady induction"), logprobs=[-0.1, -0.2])
        if "the PERT1 gene" in user:
            body["choices"][0]["logprobs"]["content"][1] = item
        return 200, body

    server = endpoint(app)
    queries = queries_file(tmp_path, n=3)
    out = tmp_path / "gen.jsonl"
    rc = main(["generate", queries, str(out), "--base-url", server.base_url, "--model", "m",
               "--k", "1", "--max-retries", "0"])
    assert rc == 2
    assert [b.query.id for b in read_bundles(str(out))] == ["q-0", "q-2"]
    usage = json.loads((tmp_path / "gen.jsonl.usage.json").read_text(encoding="utf-8"))
    assert [f["id"] for f in usage["failures"]] == ["q-1"]
    assert named in usage["failures"][0]["error"]
    assert usage["failed"] == 1 and usage["requests"] == 4
    # what was written scores: no positive logprob reached the dataset
    assert main(["score", str(out), str(tmp_path / "scored.jsonl")]) == 0


def test_score_names_the_bundle_of_a_positive_logprob(tmp_path, capsys):
    bundles = tmp_path / "b.jsonl"
    write_jsonl(str(bundles), [mk_bundle(0), mk_bundle(1, logprobs=[-0.5, 3.0])])
    assert main(["score", str(bundles), str(tmp_path / "scored.jsonl")]) == 1
    assert "bundle q-0001: log-probability 3.0 is positive" in capsys.readouterr().err


def test_generate_requires_endpoint_flags(tmp_path):
    queries = queries_file(tmp_path)
    rc = main(["generate", queries, str(tmp_path / "out.jsonl")])
    assert rc == 64


# --- exit codes and error handling ---


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["polish"]) == 64
    assert "usage error" in capsys.readouterr().err


def test_bad_fraction_is_usage_error(tmp_path):
    scored = tmp_path / "scored.jsonl"
    write_scored(str(scored), [mk_scored(0, UP, 1.0)])
    assert main(["filter", str(scored), "-", "--fraction", "1.5"]) == 64
    assert main(["filter", str(scored), "-", "--fraction", "0"]) == 64


def test_bad_sweep_fractions_are_usage_errors(tmp_path):
    scored = tmp_path / "scored.jsonl"
    write_scored(str(scored), [mk_scored(0, UP, 1.0)])
    assert main(["sweep", str(scored), "-", "--fractions", "0.5,oops"]) == 64
    assert main(["sweep", str(scored), "-", "--fractions", ","]) == 64
    assert main(["sweep", str(scored), "-", "--fractions", "0.5,1.5"]) == 64


def test_zero_resamples_is_usage_error(tmp_path):
    scored = tmp_path / "scored.jsonl"
    write_scored(str(scored), [mk_scored(0, UP, 1.0)])
    assert main(["evaluate", str(scored), "-", "--resamples", "0"]) == 64


def test_non_integer_bootstrap_config_is_usage_error(tmp_path, monkeypatch, capsys):
    scored = tmp_path / "scored.jsonl"
    write_scored(str(scored), [mk_scored(0, UP, 1.0, gold=UP)])
    cfg = tmp_path / "curator.json"
    cfg.write_text(json.dumps({"bootstrap": {"n_resamples": "many"}}), encoding="utf-8")
    assert main(["--config", str(cfg), "evaluate", str(scored), "-"]) == 64
    assert "bad bootstrap config" in capsys.readouterr().err
    monkeypatch.setenv("CURATOR_BOOTSTRAP_SEED", "x")
    assert main(["evaluate", str(scored), "-"]) == 64
    assert "bad bootstrap config" in capsys.readouterr().err


def test_unknown_score_provider_is_usage_error(tmp_path, monkeypatch, capsys):
    bundles = simulate(tmp_path)
    out = tmp_path / "scored.jsonl"
    cfg = tmp_path / "curator.json"
    cfg.write_text(json.dumps({"score": {"provider": "bogus"}}), encoding="utf-8")
    assert main(["--config", str(cfg), "score", bundles, str(out)]) == 64
    err = capsys.readouterr().err
    assert "'bogus'" in err and "lexical, answer, remote" in err
    monkeypatch.setenv("CURATOR_SCORE_PROVIDER", "bogus")
    assert main(["score", bundles, str(out)]) == 64
    assert "lexical, answer, remote" in capsys.readouterr().err
    assert not out.exists()


def test_zero_workers_is_usage_error(tmp_path):
    bundles = tmp_path / "b.jsonl"
    bundles.write_text("", encoding="utf-8")
    assert main(["score", str(bundles), "-", "--workers", "0"]) == 64


def test_missing_input_file_exits_1(tmp_path, capsys):
    rc = main(["filter", str(tmp_path / "absent.jsonl"), "-"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_jsonl_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"v": 1}\nnot json\n', encoding="utf-8")
    rc = main(["score", str(bad), str(tmp_path / "out.jsonl")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_score_failure_removes_partial_output(tmp_path):
    bundles = tmp_path / "b.jsonl"
    write_jsonl(str(bundles), [
        mk_bundle(0, UP, [UP], logprobs=[-0.1, -0.2]),
        mk_bundle(1, DOWN, [DOWN], logprobs=None),  # cocoa needs logprobs
    ])
    out = tmp_path / "scored.jsonl"
    rc = main(["score", str(bundles), str(out), "--provider", "lexical",
               "--variant", "cocoa"])
    assert rc == 1
    assert not out.exists()


# --- outputs are complete or absent ---


def leftovers(directory) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


@pytest.mark.parametrize("command", ["score", "export-sft"])
def test_missing_input_leaves_no_output(tmp_path, command):
    out = tmp_path / "out.jsonl"
    assert main([command, str(tmp_path / "absent.jsonl"), str(out)]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_unwritable_output_error_names_the_output(tmp_path, capsys):
    out = tmp_path / "absent-dir" / "out.jsonl"
    assert main(["simulate", str(out), "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert f"{out}'" in err and ".tmp" not in err


@pytest.mark.parametrize("overflowing", [
    mk_bundle(1, logprobs=[-800.0]),  # perplexity
    mk_bundle(1, sample_labels=(DOWN, NONREG), logprobs=[-709.7],  # cocoa, not perplexity
              greedy_body=" ".join(f"w{i}" for i in range(40))),
], ids=["perplexity", "cocoa"])
def test_score_overflow_exits_1_without_output(tmp_path, capsys, overflowing):
    bundles = tmp_path / "b.jsonl"
    write_jsonl(str(bundles), [mk_bundle(0), overflowing])
    out = tmp_path / "scored.jsonl"
    assert main(["score", str(bundles), str(out), "--provider", "lexical"]) == 1
    err = capsys.readouterr().err
    assert "bundle q-0001: " in err and "overflow" in err
    assert not out.exists()
    assert leftovers(tmp_path) == []


def test_failed_score_keeps_existing_output(tmp_path):
    bundles = tmp_path / "b.jsonl"
    write_jsonl(str(bundles), [mk_bundle(0), mk_bundle(1, logprobs=None)])
    out = tmp_path / "scored.jsonl"
    out.write_bytes(b"an earlier run's output\n")
    assert main(["score", str(bundles), str(out), "--variant", "cocoa"]) == 1
    assert out.read_bytes() == b"an earlier run's output\n"
    assert not (tmp_path / "scored.jsonl.manifest.json").exists()
    assert leftovers(tmp_path) == []


def test_output_mode_matches_a_plain_open(tmp_path):
    control = tmp_path / "control"
    with open(control, "w", encoding="utf-8"):
        pass
    bundles = simulate(tmp_path)
    scored = score(tmp_path, bundles)
    mode = os.stat(control).st_mode
    assert os.stat(bundles).st_mode == mode
    assert os.stat(scored).st_mode == mode
    assert os.stat(scored + ".manifest.json").st_mode == mode
    assert leftovers(tmp_path) == []


def test_fifo_output_is_written_in_place_without_sidecars(tmp_path):
    import stat
    import threading

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received: list[str] = []

    def drain():
        with open(fifo, encoding="utf-8") as fh:
            received.extend(fh.read().splitlines())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    assert main(["simulate", str(fifo), "--n", "5", "--seed", "2"]) == 0
    reader.join(timeout=10)  # daemon: stays blocked if the FIFO was never opened
    assert len(received) == 5
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo"]


def run_cli(args, stdout) -> int:
    """Run the curator in a child process with the given stdout file."""
    import subprocess

    import curator

    src = os.path.dirname(os.path.dirname(curator.__file__))
    code = "from curator.cli import entry; entry()"
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *args], stdout=stdout,
                          stderr=subprocess.DEVNULL, env=env, timeout=60).returncode


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_dev_stdout_appends_to_the_redirected_file(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text("old line\n", encoding="utf-8")
    with open(log, "a", encoding="utf-8") as stdout:
        assert run_cli(["simulate", "/dev/stdout", "--n", "3", "--seed", "2"], stdout) == 0
    lines = log.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "old line"
    assert [json.loads(line)["query"]["id"] for line in lines[1:]] == [
        "sim-000000", "sim-000001", "sim-000002"]
    assert os.listdir(tmp_path) == ["log.jsonl"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_evaluate_summary_follows_a_report_on_dev_stdout(tmp_path):
    scored = tmp_path / "scored.jsonl"
    write_scored(str(scored), [mk_scored(i, UP, float(i + 1), gold=UP) for i in range(10)])
    report = tmp_path / "r.txt"
    with open(report, "w", encoding="utf-8") as stdout:
        args = ["evaluate", str(scored), "/dev/stdout", "--resamples", "20"]
        assert run_cli(args, stdout) == 0
    text = report.read_text(encoding="utf-8")
    head, _, summary = text.partition("\n}\n")
    assert json.loads(head + "}")["n"] == 10
    assert summary.startswith("n=10 ")


def write_raw_bundles(path, bundles) -> None:
    """Bundle rows through the standard library's encoder, which (unlike the
    curator's) lets NaN and infinities through."""
    from curator.storage import bundle_to_record

    with open(path, "w", encoding="utf-8") as fh:
        for bundle in bundles:
            fh.write(json.dumps(bundle_to_record(bundle)) + "\n")


@pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
def test_non_finite_logprob_exits_1_without_output(tmp_path, capsys, bad):
    bundles = tmp_path / "b.jsonl"
    write_raw_bundles(bundles, [mk_bundle(0), mk_bundle(1, logprobs=(-0.5, bad))])
    out = tmp_path / "scored.jsonl"
    rc = main(["score", str(bundles), str(out), "--provider", "lexical"])
    assert rc == 1
    err = capsys.readouterr().err
    assert ":2:" in err and "finite" in err
    assert not out.exists()


def test_infinite_scores_are_refused_on_read(tmp_path, capsys):
    scored = tmp_path / "scored.jsonl"
    write_scored(str(scored), [mk_scored(0, UP, 1.0), mk_scored(1, UP, 2.0)])
    rows = scored.read_text(encoding="utf-8").splitlines()
    rows[1] = rows[1].replace('"ppl":2.0', '"ppl":Infinity').replace('"cocoa":2.0', '"cocoa":Infinity')
    assert rows[1].count("Infinity") == 2
    scored.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["filter", str(scored), "-", "--fraction", "1.0"]) == 1
    assert ":2:" in capsys.readouterr().err


#: the flags each command that reads an input needs to run at all
COMMAND_FLAGS = {
    "generate": ["--base-url", "http://127.0.0.1:9", "--model", "m", "--max-retries", "0"],
    "score": [],
    "filter": [],
    "evaluate": [],
    "stratify": [],
    "sweep": ["--fractions", "0.5"],
    "export-sft": [],
}


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_output_equal_to_input_is_usage_error(tmp_path, monkeypatch, command):
    data = tmp_path / "b.jsonl"
    if command == "generate":
        write_jsonl(str(data), [mk_query(i, UP) for i in range(3)], query_to_dict)
    else:  # scored rows with gold labels: every other command reads them
        write_scored(str(data), [mk_scored(i, UP, float(i + 1), gold=UP) for i in range(10)])
    before = data.read_bytes()
    monkeypatch.chdir(tmp_path)
    flags = COMMAND_FLAGS[command]
    assert main([command, str(data), str(data), *flags]) == 64
    assert main([command, "b.jsonl", "./b.jsonl", *flags]) == 64  # same file, other spelling
    assert data.read_bytes() == before
    assert os.listdir(tmp_path) == ["b.jsonl"]  # no sidecar


# --- configuration plumbing ---


def test_score_workers_is_an_unknown_config_key(tmp_path, monkeypatch, capsys):
    bundles = tmp_path / "b.jsonl"
    bundles.write_text("", encoding="utf-8")
    cfg = tmp_path / "curator.json"
    cfg.write_text(json.dumps({"score": {"workers": 4}}), encoding="utf-8")
    assert main(["--config", str(cfg), "score", str(bundles), "-"]) == 1
    assert "score.workers" in capsys.readouterr().err
    monkeypatch.setenv("CURATOR_SCORE_WORKERS", "4")
    assert main(["score", str(bundles), "-"]) == 1
    assert "CURATOR_SCORE_WORKERS" in capsys.readouterr().err



def test_config_file_env_and_flags_layer(tmp_path, monkeypatch):
    cfg = tmp_path / "curator.json"
    cfg.write_text(json.dumps({"sim": {"n": 10, "seed": 1}}), encoding="utf-8")
    out = tmp_path / "a.jsonl"
    assert main(["--config", str(cfg), "simulate", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 10

    monkeypatch.setenv("CURATOR_SIM_N", "20")
    out2 = tmp_path / "b.jsonl"
    assert main(["--config", str(cfg), "simulate", str(out2)]) == 0
    assert len(out2.read_text(encoding="utf-8").splitlines()) == 20

    out3 = tmp_path / "c.jsonl"
    assert main(["--config", str(cfg), "simulate", str(out3), "--n", "30"]) == 0
    assert len(out3.read_text(encoding="utf-8").splitlines()) == 30


@pytest.mark.parametrize(
    "config, env, command, named",
    [
        ({"bootstrap": {"n_resamples": 2.9}}, {}, "evaluate",
         ["n_resamples must be an integer, got 2.9", "config file"]),
        (None, {"CURATOR_SIM_INDEPENDENT_NOISE": "False"}, "simulate",
         ["independent_noise must be a boolean", "env var CURATOR_SIM_INDEPENDENT_NOISE"]),
        (None, {"CURATOR_SIM_N": "2.9"}, "simulate",
         ["n must be an integer, got 2.9", "env var CURATOR_SIM_N"]),
        ({"sim": {"k": True}}, {}, "simulate", ["k must be an integer, got True", "config file"]),
        (None, {}, "filter --strategy bogus", ["unknown filter.strategy 'bogus'", "(flag)"]),
    ],
    ids=["file-fraction-for-int", "env-non-json-bool", "env-fraction-for-int", "file-bool-for-int",
         "flag-unknown-choice"],
)
def test_mistyped_setting_is_usage_error_in_every_layer(
    tmp_path, monkeypatch, capsys, config, env, command, named
):
    scored = tmp_path / "scored.jsonl"
    write_scored(str(scored), [mk_scored(i, UP, 1.0, gold=UP) for i in range(4)])
    argv = []
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
        argv = ["--config", str(tmp_path / "c.json")]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    name, *flags = command.split()
    inputs = [] if name == "simulate" else [str(scored)]
    before = set(os.listdir(tmp_path))
    assert main(argv + [name, *inputs, str(tmp_path / "out"), *flags]) == 64
    err = capsys.readouterr().err
    assert all(part in err for part in named), err
    assert set(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("argv, env", [(["--log-level", "bogus"], {}),
                                       ([], {"CURATOR_LOG_LEVEL": "verbose"})],
                         ids=["flag", "env"])
def test_unknown_log_level_is_usage_error(tmp_path, monkeypatch, capsys, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv + ["simulate", str(tmp_path / "out"), "--n", "3"]) == 64
    err = capsys.readouterr().err
    assert "unknown log_level" in err and "DEBUG, INFO, WARNING, ERROR, CRITICAL" in err, err
    assert os.listdir(tmp_path) == []


def test_log_level_names_are_case_insensitive(tmp_path, monkeypatch):
    monkeypatch.setenv("CURATOR_LOG_LEVEL", "Warning")
    assert main(["--log-level", "debug", "simulate", str(tmp_path / "a"), "--n", "3"]) == 0
    assert main(["simulate", str(tmp_path / "b"), "--n", "3"]) == 0


def test_every_flag_dest_names_a_config_key():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dotted = []
    for sub in commands.choices.values():
        for action in sub._actions:
            section, dot, key = action.dest.partition(".")
            if dot:
                assert key in DEFAULTS.get(section, {}), f"{action.option_strings} -> {action.dest}"
                dotted.append(action.dest)
    assert "llm.k" in dotted and "sim.k" in dotted and "sim.class_scale" in dotted


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda rec: rec["samples"][0]["sampling"].update(top_k=2.9), "top_k must be an integer"),
        (lambda rec: rec["samples"][0]["sampling"].update(temperature="1.0"),
         "temperature must be a finite number"),
        (lambda rec: rec["query"].update(id=12345), "id must be a string"),
        (lambda rec: rec.update(scores={"ppl": 1.0, "inconsistency": True, "cocoa": 2.0}),
         "inconsistency must be a finite number, got True"),
    ],
    ids=["float-top-k", "string-temperature", "integer-id", "bool-inconsistency"],
)
def test_reader_refuses_coercible_field_types(tmp_path, capsys, edit, named):
    rows = [scored_to_record(mk_scored(i, UP, 2.0)) for i in range(2)]
    edit(rows[1])
    scored = tmp_path / "scored.jsonl"
    scored.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "rescored.jsonl"
    assert main(["score", str(scored), str(out), "--provider", "lexical"]) == 1
    err = capsys.readouterr().err
    assert ":2:" in err and named in err, err
    assert not out.exists()


def test_class_scale_flag_parses_aliases(tmp_path):
    out = tmp_path / "scaled.jsonl"
    rc = main(["simulate", str(out), "--n", "5", "--class-scale", "up=3,down=3,nonreg=1"])
    assert rc == 0
    assert len(list(read_bundles(str(out)))) == 5


def test_bad_class_scale_flag_is_usage_error(tmp_path):
    out = tmp_path / "scaled.jsonl"
    assert main(["simulate", str(out), "--n", "5", "--class-scale", "sideways=2"]) == 64
    assert main(["simulate", str(out), "--n", "5", "--class-scale", "up=big"]) == 64


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "curator.json"
    cfg.write_text(json.dumps({"simm": {}}), encoding="utf-8")
    assert main(["--config", str(cfg), "simulate", "-", "--n", "1"]) == 1
    assert "simm" in capsys.readouterr().err


def test_stdout_dataset_skips_manifest(tmp_path, capsys):
    rc = main(["simulate", "-", "--n", "4", "--seed", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 4
    assert json.loads(out.splitlines()[0])["v"] == 1
    assert not any(p.name.endswith(".manifest.json") for p in tmp_path.iterdir())


def test_stdin_input(tmp_path, monkeypatch, capsys):
    scored = tmp_path / "scored.jsonl"
    write_scored(str(scored), [mk_scored(i, UP, float(i + 1), gold=UP) for i in range(10)])
    monkeypatch.setattr(sys, "stdin", io.StringIO(scored.read_text(encoding="utf-8")))
    rc = main(["filter", "-", "-", "--strategy", "global", "--fraction", "0.2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert {json.loads(l)["query"]["id"] for l in lines} == {"q-0000", "q-0001"}


def test_simulate_same_seed_same_bytes_via_cli(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["simulate", str(a), "--n", "40", "--seed", "9"]) == 0
    assert main(["simulate", str(b), "--n", "40", "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()
