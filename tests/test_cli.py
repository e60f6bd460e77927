"""End-to-end command-line runs: the whole pipeline against temp files."""

import argparse
import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager, suppress

import pytest

from curator.cli import build_parser, main
from curator.config import DEFAULTS, config_hash, load_config, set_option
from curator.errors import UsageError
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


def test_evaluate_seed_beyond_64_bits_draws_its_own_stream(tmp_path):
    scored = tmp_path / "scored.jsonl"
    write_scored(str(scored), [mk_scored(i, UP if i % 3 else DOWN, float(i + 1), gold=UP)
                               for i in range(30)])
    se = []
    for seed in (0, 2**64):
        out = tmp_path / f"report-{seed}.json"
        assert main(["evaluate", str(scored), str(out), "--resamples", "50",
                     "--seed", str(seed)]) == 0
        se.append(json.loads(out.read_text(encoding="utf-8"))["accuracy"]["se"])
    assert se[0] != se[1]


@pytest.mark.parametrize("command", ["simulate", "evaluate", "filter"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    scored = tmp_path / "scored.jsonl"
    write_scored(str(scored), [mk_scored(i, UP, float(i + 1), gold=UP) for i in range(4)])
    inputs = [] if command == "simulate" else [str(scored)]
    assert main([command, *inputs, str(tmp_path / "out"), "--seed", "-1"]) == 64
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["scored.jsonl"]


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
        "source_path": "simulated", "n_examples": 30, "class_counts": counts(8, 10, 12),
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
    assert list(usage) == ["requests", "prompt_tokens", "completion_tokens", "retried",
                           "failed", "failures"]
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
        ({"token": "t1"}, "malformed logprobs in completion response"),
    ],
    ids=["string-logprob", "bool-logprob", "positive-logprob", "integer-token", "no-logprob"],
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


@pytest.mark.parametrize("section, key, value, flag", [
    ("sim", "k", 0, ["simulate", "{out}", "--k", "0"]),
    ("sim", "n", -1, ["simulate", "{out}", "--n", "-1"]),
    ("llm", "k", -1, ["generate", "{scored}", "{out}", "--base-url", "http://127.0.0.1:9",
                      "--model", "m", "--k", "-1"]),
    ("llm", "temperature", -1, None),
    ("llm", "top_p", 2, None),
], ids=["sim.k", "sim.n", "llm.k", "llm.temperature", "llm.top_p"])
def test_an_out_of_range_setting_is_refused_where_it_is_set(tmp_path, monkeypatch, capsys,
                                                            section, key, value, flag):
    # every command refuses it (export-sft uses none of these keys), naming
    # the key and where it was set; a key without a flag is set as flags are
    scored, out = str(tmp_path / "scored.jsonl"), str(tmp_path / "out.jsonl")
    write_scored(scored, [mk_scored(0, UP, 1.0)])
    refused = f"usage error: bad {section} config: {key} must be "
    env = f"CURATOR_{section.upper()}_{key.upper()}"
    monkeypatch.setenv(env, str(value))
    assert main(["export-sft", scored, out]) == 64
    err = capsys.readouterr().err
    assert err.startswith(refused) and err.endswith(f"(env var {env})\n")
    monkeypatch.delenv(env)
    cfg = tmp_path / "curator.json"
    cfg.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
    assert main(["--config", str(cfg), "export-sft", scored, out]) == 64
    err = capsys.readouterr().err
    assert err.startswith(refused) and err.endswith(f"(config file {cfg})\n")
    if flag is None:
        with pytest.raises(UsageError, match=f"^{refused[13:]}.*\\(flag\\)$"):
            set_option(load_config(None, environ={}), section, key, value)
    else:
        assert main([a.format(scored=scored, out=out) for a in flag]) == 64
        err = capsys.readouterr().err
        assert err.startswith(refused) and err.endswith("(flag)\n")
    assert not os.path.exists(out)


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
    # an output written again keeps its permission bits, as a plain open keeps them
    os.chmod(bundles, 0o600)
    os.chmod(bundles + ".manifest.json", 0o640)
    assert simulate(tmp_path) == bundles
    assert oct(os.stat(bundles).st_mode & 0o777) == oct(0o600)
    assert oct(os.stat(bundles + ".manifest.json").st_mode & 0o777) == oct(0o640)
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


def cli_argv(args) -> tuple[list[str], dict]:
    """The argv and environment that run the curator's entry point in a
    child process."""
    import curator

    src = os.path.dirname(os.path.dirname(curator.__file__))
    code = "from curator.cli import entry; entry()"
    return [sys.executable, "-c", code, *args], dict(os.environ, PYTHONPATH=src)


def run_cli(args, stdout, **stdin) -> int:
    """Run the curator in a child process with the given stdout file and,
    optionally, stdin (a file) or input (bytes piped in)."""
    argv, env = cli_argv(args)
    return subprocess.run(argv, stdout=stdout, stderr=subprocess.DEVNULL, env=env, timeout=60,
                          **stdin).returncode


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


def wait_for_temp_output(proc, directory, feed=lambda: time.sleep(0.01)) -> None:
    """Wait until the child has opened its hidden temp output, calling
    feed() between looks."""
    deadline = time.monotonic() + 30
    while not any(directory.glob(".*.tmp")):
        assert proc.poll() is None and time.monotonic() < deadline, "no temp output appeared"
        feed()


def terminate(proc) -> None:
    """Send the child one SIGTERM and wait for it to end."""
    proc.send_signal(signal.SIGTERM)
    proc.wait(timeout=10)


def running(pid: int) -> bool:
    """pid names a process that has not ended; a zombie has ended, although
    no one has reaped it yet."""
    try:
        with open(f"/proc/{pid}/stat", encoding="latin-1") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_sigterm_mid_simulate_leaves_no_temp_file(tmp_path):
    out = tmp_path / "out.jsonl"
    argv, env = cli_argv(["simulate", str(out), "--n", "100000"])
    proc = subprocess.Popen(argv, env=env, stderr=subprocess.DEVNULL)
    try:
        wait_for_temp_output(proc, tmp_path)
        terminate(proc)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGTERM
    assert os.listdir(tmp_path) == []


def children(pid: int) -> list[int]:
    """The pids of the children of pid's main thread."""
    with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as fh:
        return [int(child) for child in fh.read().split()]


@contextmanager
def score_mid_run(tmp_path):
    """Run `score` on bundles fed through stdin, in a process group of its
    own, and yield the process and its worker pids once its temp output is
    open. stdin stays open, so the run is mid-way whenever a signal lands.
    On exit the process and any worker still there are killed, so that a
    failure leaks no process."""
    from curator.simulate import SimConfig, simulate_dataset
    from curator.storage import bundle_to_record, dumps

    bundles = simulate_dataset(SimConfig(n_examples=10**6, seed=1))
    argv, env = cli_argv(["score", "-", str(tmp_path / "out.jsonl"), "--provider", "lexical"])
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    workers: list[int] = []

    def feed():
        lines = (dumps(bundle_to_record(next(bundles))) + "\n" for _ in range(50))
        proc.stdin.write("".join(lines).encode("utf-8"))
        proc.stdin.flush()

    try:
        wait_for_temp_output(proc, tmp_path, feed)
        workers = children(proc.pid)  # forked before the output is opened
        yield proc, workers
    finally:
        proc.kill()
        proc.wait()
        proc.stdin.close()
        for pid in workers:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


needs_children = pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs /proc/<pid>/task/<tid>/children")


@needs_children
def test_sigterm_mid_score_leaves_no_temp_file_and_no_worker(tmp_path):
    with score_mid_run(tmp_path) as (proc, workers):
        terminate(proc)
        survivors = [pid for pid in workers if running(pid)]
    assert workers and survivors == []
    assert proc.returncode == -signal.SIGTERM
    assert os.listdir(tmp_path) == []


@needs_children
def test_sigkill_mid_score_leaves_no_worker(tmp_path):
    with score_mid_run(tmp_path) as (proc, workers):
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.02)
        survivors = [pid for pid in workers if running(pid)]
    assert workers and survivors == []


def ignores_sigint(pid: int) -> bool:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        ignored = next(line for line in fh if line.startswith("SigIgn:")).split()[1]
    return bool(int(ignored, 16) >> (signal.SIGINT - 1) & 1)


@needs_children
def test_ctrl_c_mid_score_leaves_no_temp_file_and_no_worker(tmp_path):
    with score_mid_run(tmp_path) as (proc, workers):
        # the parent runs no thread of its own: nothing is left to join
        assert os.listdir(f"/proc/{proc.pid}/task") == [str(proc.pid)]
        # only the parent reacts to Ctrl-C; a worker ignores it from its start
        deadline = time.monotonic() + 10
        while not all(map(ignores_sigint, workers)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert all(map(ignores_sigint, workers))
        os.killpg(proc.pid, signal.SIGINT)  # as Ctrl-C does: to the workers too
        proc.wait(timeout=10)
        survivors = [pid for pid in workers if running(pid)]
    assert workers and survivors == []
    assert proc.returncode == -signal.SIGINT
    assert os.listdir(tmp_path) == []


@needs_children
def test_sigterm_ends_score_while_its_workers_hold_their_chunks(tmp_path):
    # every worker sleeps on its first chunk, so score waits in its selector
    # loop with chunks in flight and, its lines being larger than a pipe's
    # buffer, with request bytes that no pipe has taken
    inputs, outputs = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    outputs.mkdir()
    write_jsonl(inputs / "bundles.jsonl",
                [mk_bundle(i, UP, greedy_body="word " * 40_000) for i in range(10)])
    argv, env = cli_argv(["score", str(inputs / "bundles.jsonl"), str(outputs / "out.jsonl"),
                          "--provider", "lexical"])
    argv[2] = """
import time
from curator import cli, score_workers

score_workers._score_chunk = lambda *args: time.sleep(60)
cli.entry()
"""
    proc = subprocess.Popen(argv, env=env, stderr=subprocess.DEVNULL)
    workers: list[int] = []
    try:
        wait_for_temp_output(proc, outputs)
        workers = children(proc.pid)
        terminate(proc)
        survivors = [pid for pid in workers if running(pid)]
    finally:
        proc.kill()
        proc.wait()
        for pid in workers:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
    assert workers and survivors == []
    assert proc.returncode == -signal.SIGTERM
    assert os.listdir(outputs) == []


def run_entry(main_source: str) -> subprocess.CompletedProcess:
    """Run `cli.entry` in a child process, with `cli.main` replaced by the
    function `main` defined in main_source."""
    argv, env = cli_argv([])
    code = "\n".join(["import os, signal, time", "from curator import cli", main_source,
                      "cli.main = main", "cli.entry()"])
    return subprocess.run([argv[0], "-c", code], env=env, capture_output=True, text=True,
                          timeout=30)


def test_sigterm_raised_inside_a_finalizer_still_ends_the_process():
    # os.kill runs the handler at once, inside __del__, where Python drops
    # whatever it raises
    done = run_entry("""
class Finalized:
    def __del__(self):
        os.kill(os.getpid(), signal.SIGTERM)

def main():
    Finalized()
    time.sleep(20)
    return 0
""")
    assert done.returncode == -signal.SIGTERM


def test_second_sigterm_kills_outright():
    # the first one's exception is dropped, as some extension modules drop
    # one raised while they load
    done = run_entry("""
def main():
    try:
        os.kill(os.getpid(), signal.SIGTERM)
    except BaseException:
        pass
    os.kill(os.getpid(), signal.SIGTERM)
    time.sleep(20)
    return 0
""")
    assert done.returncode == -signal.SIGTERM


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


@pytest.mark.parametrize("edit, named", [
    (b"reas\xffoning", "not valid UTF-8 at character"),
    (b"reas\\ud800oning", "trace text holds the lone surrogate \\ud800"),
], ids=["byte", "surrogate-escape"])
def test_text_that_is_not_utf8_exits_1_naming_its_line(tmp_path, capsys, edit, named):
    bundles = tmp_path / "b.jsonl"
    write_jsonl(str(bundles), [mk_bundle(i) for i in range(4)])
    lines = bundles.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b"reasoning", edit, 1)
    bundles.write_bytes(b"\n".join(lines))
    out = tmp_path / "scored.jsonl"
    assert main(["score", str(bundles), str(out), "--provider", "lexical"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bundles}:3: {named}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.jsonl"]


def test_generate_lone_surrogate_content_fails_only_that_query(tmp_path, endpoint):
    def app(request):
        user = request.body["messages"][1]["content"]
        body = "steady \ud800 induction" if "the PERT1 gene" in user else "steady induction"
        return 200, completion_body(trace_text(UP, body), logprobs=[-0.1, -0.2])

    server = endpoint(app)
    out = tmp_path / "gen.jsonl"
    rc = main(["generate", queries_file(tmp_path, n=3), str(out),
               "--base-url", server.base_url, "--model", "m", "--k", "1"])
    assert rc == 2
    assert [b.query.id for b in read_bundles(str(out))] == ["q-0", "q-2"]
    usage = json.loads((tmp_path / "gen.jsonl.usage.json").read_text(encoding="utf-8"))
    assert [f["id"] for f in usage["failures"]] == ["q-1"]
    assert "lone surrogate \\ud800" in usage["failures"][0]["error"]


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
        # a value out of range is refused like a wrong type, by every command
        ({"filter": {"fraction": 1.5}}, {}, "filter",
         ["bad filter config: fraction must be in (0, 1], got 1.5 (config file "]),
        (None, {"CURATOR_BOOTSTRAP_N_RESAMPLES": "0"}, "evaluate",
         ["bad bootstrap config: n_resamples must be >= 1, got 0 "
          "(env var CURATOR_BOOTSTRAP_N_RESAMPLES)"]),
        (None, {"CURATOR_FILTER_FRACTION": "0"}, "export-sft",
         ["bad filter config: fraction must be in (0, 1], got 0.0 (env var CURATOR_FILTER_FRACTION)"]),
        (None, {}, "evaluate --resamples 0",
         ["bad bootstrap config: n_resamples must be >= 1, got 0 (flag)"]),
        (None, {}, "filter --fraction 2",
         ["bad filter config: fraction must be in (0, 1], got 2.0 (flag)"]),
    ],
    ids=["file-fraction-for-int", "env-non-json-bool", "env-fraction-for-int", "file-bool-for-int",
         "flag-unknown-choice", "file-fraction-out-of-range", "env-zero-resamples",
         "env-fraction-out-of-range-any-command", "flag-zero-resamples",
         "flag-fraction-out-of-range"],
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


# --- filter reads its input twice ---


def filter_subset(src: str, out, **stdin) -> bytes:
    """Run `filter` on src in a child process (see run_cli); return the subset."""
    argv = ["filter", src, str(out), "--strategy", "per-class", "--fraction", "0.3"]
    assert run_cli(argv, None, **stdin) == 0
    return out.read_bytes()


@pytest.fixture
def scored_file(tmp_path):
    path = tmp_path / "scored.jsonl"
    labels = (UP, DOWN, NONREG)
    write_scored(str(path), [mk_scored(i, labels[i % 3], float(i * 7 % 40), gold=UP)
                             for i in range(40)])
    return path


@pytest.mark.parametrize("source", ["-", "/dev/stdin"])
def test_filter_from_a_pipe_matches_a_regular_file(tmp_path, scored_file, source):
    expected = filter_subset(str(scored_file), tmp_path / "a.jsonl")
    data = scored_file.read_bytes()
    assert filter_subset(source, tmp_path / "b.jsonl", input=data) == expected
    assert len(expected.splitlines()) == 10


def test_filter_from_stdin_past_the_start_of_a_file(tmp_path, scored_file):
    # stdin is seekable but starts after the first line: the input is the rest
    head, tail = scored_file.read_bytes().split(b"\n", 1)
    rest = tmp_path / "rest.jsonl"
    rest.write_bytes(tail)
    expected = filter_subset(str(rest), tmp_path / "a.jsonl")
    with open(scored_file, "rb") as stdin:
        stdin.seek(len(head) + 1)
        assert filter_subset("-", tmp_path / "b.jsonl", stdin=stdin) == expected


def test_filter_from_a_fifo_matches_a_regular_file(tmp_path, scored_file):
    import threading

    expected = filter_subset(str(scored_file), tmp_path / "a.jsonl")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(scored_file.read_bytes())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    out = tmp_path / "b.jsonl"
    assert main(["filter", str(fifo), str(out), "--strategy", "per-class",
                 "--fraction", "0.3"]) == 0
    writer.join(timeout=10)
    assert out.read_bytes() == expected


# Keys out of order, integers where floats belong, a label in another case
# and an alias, and a stored answer that its text contradicts: the subset
# is written in the canonical line format with answers taken from the text.
NONCANONICAL_SCORED = (
    '{"scores":{"cocoa":3.0,"inconsistency":0.5,"ppl":3.0},"samples":[{"sampling":{"top_k":50,'
    '"top_p":1,"temperature":1},"text":"<think>s</think><answer>up</answer>"}],"greedy":{"answer":'
    '"downregulated","sampling":{"top_k":null,"temperature":0,"top_p":1},"logprobs":[-1,-0.5],'
    '"text":"<think>r</think><answer>upregulated</answer>"},"query":{"gold_label":"Upregulated",'
    '"gene":"G1","perturbation":"P1","cell_type":"K562","id":"q-1"},"v":1}\n'
    '{"v":1,"query":{"id":"q-2","cell_type":"K562","perturbation":"P2","gene":"G2"},"greedy":'
    '{"text":"<answer>down</answer>","sampling":{"temperature":0.0,"top_p":1.0,"top_k":null}},'
    '"samples":[],"scores":{"ppl":null,"inconsistency":0.0,"cocoa":null}}\n'
    '{"v":1,"query":{"id":"q-3","cell_type":"K562","perturbation":"P3","gene":"G3"},"greedy":'
    '{"text":"<answer>up</answer>","answer":"upregulated","logprobs":[-0.25],"sampling":'
    '{"temperature":0.0,"top_p":1.0,"top_k":null}},"samples":[],'
    '"scores":{"ppl":2.0,"inconsistency":1.0,"cocoa":4.0}}\n'
)

GOLDEN_SUBSET = (
    '{"v":1,"query":{"id":"q-1","cell_type":"K562","perturbation":"P1","gene":"G1",'
    '"gold_label":"upregulated"},"greedy":{"text":"<think>r</think><answer>upregulated</answer>",'
    '"answer":"upregulated","logprobs":[-1.0,-0.5],"sampling":{"temperature":0.0,"top_p":1.0,'
    '"top_k":null}},"samples":[{"text":"<think>s</think><answer>up</answer>","answer":'
    '"upregulated","sampling":{"temperature":1.0,"top_p":1.0,"top_k":50}}],'
    '"scores":{"ppl":3.0,"inconsistency":0.5,"cocoa":3.0}}\n'
    '{"v":1,"query":{"id":"q-2","cell_type":"K562","perturbation":"P2","gene":"G2"},"greedy":'
    '{"text":"<answer>down</answer>","answer":"downregulated","sampling":{"temperature":0.0,'
    '"top_p":1.0,"top_k":null}},"samples":[],'
    '"scores":{"ppl":null,"inconsistency":0.0,"cocoa":null}}\n'
)


def test_filter_writes_a_noncanonical_input_canonically(tmp_path):
    src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    src.write_text(NONCANONICAL_SCORED, encoding="utf-8")
    rc = main(["filter", str(src), str(out), "--strategy", "global", "--fraction", "0.67",
               "--key", "consistency"])
    assert rc == 0
    assert out.read_text(encoding="utf-8") == GOLDEN_SUBSET


@pytest.mark.parametrize("change, message", [
    (lambda lines: [lines[0], lines[1].replace('"q-0001"', '"q-0099"'), *lines[2:]],
     ":2: query id 'q-0099' was 'q-0001' when first read"),
    (lambda lines: lines[:2], ":3: line is gone"),
], ids=["id-changed", "truncated"])
def test_filter_refuses_an_input_that_changes_between_its_reads(
        tmp_path, monkeypatch, capsys, scored_file, change, message):
    from curator import storage

    first_read = storage.read_scored

    def read_then_change(path, fh=None):
        yield from first_read(path, fh)
        lines = scored_file.read_text(encoding="utf-8").splitlines(keepends=True)
        with open(scored_file, "w", encoding="utf-8") as same_inode:
            same_inode.writelines(change(lines))

    monkeypatch.setattr(storage, "read_scored", read_then_change)
    out = tmp_path / "out.jsonl"
    rc = main(["filter", str(scored_file), str(out), "--strategy", "global", "--fraction", "1.0"])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["scored.jsonl"]


def test_stratify_refuses_rows_without_gold_labels(tmp_path, capsys):
    scored = tmp_path / "scored.jsonl"
    write_scored(str(scored), [mk_scored(i, UP, float(i), gold=UP if i % 2 else None)
                               for i in range(40)])
    out = tmp_path / "deciles.csv"
    assert main(["stratify", str(scored), str(out)]) == 1
    assert "20 of 40 examples lack gold labels" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_same_seed_same_bytes_via_cli(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["simulate", str(a), "--n", "40", "--seed", "9"]) == 0
    assert main(["simulate", str(b), "--n", "40", "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("args, env", [
    (["--class-scale", "up=1e308,down=1,nonreg=1"], {}),
    (["--class-scale", "up=2"], {"CURATOR_SIM_PERPLEXITY_GAIN": "1e308"}),
], ids=["class-scale", "gain"])
def test_simulate_refuses_log_probabilities_that_overflow(tmp_path, monkeypatch, capsys, args,
                                                          env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(["simulate", str(tmp_path / "o.jsonl"), "--n", "3", *args]) == 64
    assert capsys.readouterr().err.startswith("usage error: bad sim config: perplexity_base + "
                                              "perplexity_gain * max(class_scale) overflows")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("fractions", ["0.1,0.5", "0.1,0.6"])
def test_sweep_refuses_rows_without_gold_labels_whatever_the_fractions(tmp_path, capsys,
                                                                         fractions):
    # the 20 least uncertain rows carry gold labels: 0.5 keeps only those
    scored = tmp_path / "scored.jsonl"
    write_scored(str(scored), [mk_scored(i, UP, float(i), gold=UP if i < 20 else None)
                               for i in range(40)])
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(scored), str(out), "--fractions", fractions]) == 1
    assert "20 of 40 examples lack gold labels" in capsys.readouterr().err
    assert not out.exists()


def test_stratify_names_a_line_nested_too_deeply(tmp_path, capsys):
    scored = tmp_path / "scored.jsonl"
    write_scored(str(scored), [mk_scored(0, UP, 1.0, gold=UP)])
    with open(scored, "a", encoding="utf-8") as fh:
        fh.write("[" * 200_000 + "\n")
    out = tmp_path / "deciles.csv"
    assert main(["stratify", str(scored), str(out)]) == 1
    assert f"error: {scored}:2: invalid JSON: maximum recursion depth" in capsys.readouterr().err
    assert not out.exists()


def test_generate_body_nested_too_deeply_fails_only_that_query(tmp_path, endpoint, no_sleep):
    def app(request):
        if "the PERT1 gene" in request.body["messages"][1]["content"]:
            return 200, b"[" * 200_000
        return 200, completion_body(trace_text(UP, "steady induction"), logprobs=[-0.1, -0.2])

    server = endpoint(app)
    out = tmp_path / "gen.jsonl"
    rc = main(["generate", queries_file(tmp_path, n=3), str(out),
               "--base-url", server.base_url, "--model", "m", "--k", "1"])
    assert rc == 2
    assert [b.query.id for b in read_bundles(str(out))] == ["q-0", "q-2"]
    usage = json.loads((tmp_path / "gen.jsonl.usage.json").read_text(encoding="utf-8"))
    assert [f["id"] for f in usage["failures"]] == ["q-1"]
    assert "non-JSON body" in usage["failures"][0]["error"]


# --- values from outside follow model.checked's rule ---


def test_remote_score_beyond_a_float_is_a_named_error(tmp_path, endpoint, capsys):
    server = endpoint(lambda request: (200, {"scores": [10**400] * len(request.body["pairs"])}))
    bundles = tmp_path / "b.jsonl"
    write_jsonl(str(bundles), [mk_bundle(i) for i in range(3)])
    rc = main(["score", str(bundles), str(tmp_path / "scored.jsonl"),
               "--provider", "remote", "--scorer-url", server.base_url])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scorer returned a non-finite or non-numeric score: "
                          "score must be a finite number, got 1000"), err
    assert len(err) < 300  # the 400 digits are cut
    assert os.listdir(tmp_path) == ["b.jsonl"]


#: per endpoint command: the flags it needs to reach its endpoint, and the
#: section of its endpoint settings
ENDPOINT_COMMANDS = {
    "generate": (["--model", "m", "--base-url"], "LLM"),
    "score": (["--provider", "remote", "--scorer-url"], "SCORER"),
}
#: environment names that differ between the two sections (the scorer has
#: no model, so its text that is not UTF-8 goes into its URL)
ENV_KEYS = {"LLM": {"TIMEOUT": "REQUEST_TIMEOUT"}, "SCORER": {"MODEL": "BASE_URL"}}


@pytest.mark.parametrize("command", list(ENDPOINT_COMMANDS))
@pytest.mark.parametrize("url, env, named", [
    ("notaurl", {}, "base_url must be an http or https URL with a host"),
    ("http://[::1", {}, "base_url 'http://[::1' is not a URL: Invalid IPv6 URL"),
    ("http://127.0.0.1:99999", {}, "is not a URL: Port out of range"),
    ("http://127.0.0.1:9/a b", {}, "without spaces, got 'http://127.0.0.1:9/a b'"),
    ("http://127.0.0.1:9", {"API_KEY": "ключ"}, "api_key must be printable ASCII"),
    ("http://127.0.0.1:9", {"TIMEOUT": "-1"}, "timeout must be positive, got -1.0"),
    ("http://127.0.0.1:9", {"MODEL": "m\udcff"}, "holds the lone surrogate \\udcff"),
], ids=["not-a-url", "open-bracket", "port-out-of-range", "space", "non-ascii-key",
        "negative-timeout", "not-utf8"])
def test_bad_endpoint_setting_is_usage_error(
    tmp_path, monkeypatch, capsys, no_sleep, command, url, env, named
):
    flags, section = ENDPOINT_COMMANDS[command]
    data = tmp_path / "in.jsonl"
    if command == "generate":
        write_jsonl(str(data), [mk_query(i) for i in range(2)], query_to_dict)
    else:
        write_jsonl(str(data), [mk_bundle(i) for i in range(2)])
    env = {f"CURATOR_{section}_{ENV_KEYS[section].get(k, k)}": v for k, v in env.items()}
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    rc = main([command, str(data), str(tmp_path / "out.jsonl"), *flags, url])
    assert rc == 64
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: bad {section.lower()} config: ") and named in err, err
    # set_option names the flag or the variable that set the value
    source = f"(env var {next(iter(env))})" if env else "(flag)"
    assert source in err, err
    assert "ключ" not in err
    assert os.listdir(tmp_path) == ["in.jsonl"]


@pytest.mark.parametrize("layer, named", [
    ("file", "request_timeout must be positive, got -1.0 (config file "),
    ("env", "request_timeout must be positive, got -1.0 (env var CURATOR_LLM_REQUEST_TIMEOUT)"),
    ("flag", "max_in_flight must be >= 1, got 0 (flag)"),
], ids=["file", "env", "flag"])
def test_endpoint_refusal_names_the_key_and_its_source(tmp_path, monkeypatch, capsys, layer,
                                                       named):
    queries = tmp_path / "q.jsonl"
    write_jsonl(str(queries), [mk_query(0)], query_to_dict)
    argv = ["generate", str(queries), str(tmp_path / "o.jsonl"),
            "--base-url", "http://127.0.0.1:9", "--model", "m"]
    if layer == "file":
        (tmp_path / "c.json").write_text('{"llm": {"request_timeout": -1}}', encoding="utf-8")
        argv = ["--config", str(tmp_path / "c.json"), *argv]
    elif layer == "env":
        monkeypatch.setenv("CURATOR_LLM_REQUEST_TIMEOUT", "-1")
    else:
        argv += ["--max-in-flight", "0"]
    assert main(argv) == 64
    assert f"usage error: bad llm config: {named}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["score", "filter"])
def test_manifest_records_an_input_path_that_is_not_utf8(tmp_path, command):
    # paths are bytes: this one is valid, and the manifest must still be UTF-8
    data = os.path.join(tmp_path, os.fsdecode(b"in-\xff.jsonl"))
    write_scored(data, [mk_scored(i, UP, float(i + 1)) for i in range(4)])
    out = tmp_path / "out.jsonl"
    assert main([command, data, str(out)]) == 0
    raw = (tmp_path / "out.jsonl.manifest.json").read_bytes()
    assert json.loads(raw.decode("utf-8"))["source_path"] == f"{tmp_path}/in-\\xff.jsonl"
