"""Layered configuration: file/env/flag precedence, hashing, object builders."""

import copy
import hashlib
import json
from contextlib import suppress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curator.config import (
    DEFAULTS,
    config_hash,
    filter_spec,
    generation_config,
    load_config,
    scorer_config,
    set_option,
    sim_config,
)
from curator.errors import InvalidConfig, UsageError
from curator.filtering import FilterStrategy
from curator.model import MetricVariant

from helpers import NONREG, UP


def test_defaults_without_file_or_env():
    cfg = load_config(None, environ={})
    assert cfg == DEFAULTS
    assert cfg is not DEFAULTS  # caller owns a private copy
    assert cfg["filter"]["fraction"] == 0.1
    assert cfg["score"]["provider"] == "lexical"


def test_mutating_loaded_config_leaves_defaults_alone():
    cfg = load_config(None, environ={})
    cfg["sim"]["class_prior"]["upregulated"] = 0.9
    assert DEFAULTS["sim"]["class_prior"]["upregulated"] == 0.1


# --- config file layer ---


def write_cfg(tmp_path, payload) -> str:
    p = tmp_path / "curator.json"
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def test_file_overrides_defaults(tmp_path):
    path = write_cfg(tmp_path, {"seed": 7, "filter": {"fraction": 0.25}})
    cfg = load_config(path, environ={})
    assert cfg["seed"] == 7
    assert cfg["filter"]["fraction"] == 0.25
    assert cfg["filter"]["strategy"] == "per-class"  # untouched keys keep defaults


def test_unknown_top_level_key_is_rejected(tmp_path):
    path = write_cfg(tmp_path, {"fliter": {}})
    with pytest.raises(InvalidConfig, match="fliter"):
        load_config(path, environ={})


def test_unknown_section_key_is_rejected(tmp_path):
    path = write_cfg(tmp_path, {"filter": {"fractoin": 0.5}})
    with pytest.raises(InvalidConfig, match="filter.fractoin"):
        load_config(path, environ={})


def test_section_must_be_an_object(tmp_path):
    path = write_cfg(tmp_path, {"llm": 3})
    with pytest.raises(InvalidConfig, match="must be an object"):
        load_config(path, environ={})


def test_config_must_be_an_object(tmp_path):
    path = write_cfg(tmp_path, [1, 2])
    with pytest.raises(InvalidConfig, match="JSON object"):
        load_config(path, environ={})


def test_invalid_json_is_reported(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope", encoding="utf-8")
    with pytest.raises(InvalidConfig, match="invalid JSON"):
        load_config(str(p), environ={})


def test_integer_literal_too_long_to_convert_is_invalid_json(tmp_path):
    p = tmp_path / "big.json"
    p.write_text('{"seed": ' + "9" * 5000 + "}", encoding="utf-8")
    with pytest.raises(InvalidConfig, match="invalid JSON"):
        load_config(str(p), environ={})


def test_file_nested_too_deeply_is_invalid_json(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 200_000, encoding="utf-8")
    with pytest.raises(InvalidConfig, match="invalid JSON: maximum recursion depth"):
        load_config(str(p), environ={})


def test_missing_file_is_a_usage_error(tmp_path):
    with pytest.raises(UsageError, match="cannot read config file"):
        load_config(str(tmp_path / "absent.json"), environ={})


# --- environment layer ---


def test_env_overrides_file(tmp_path):
    path = write_cfg(tmp_path, {"filter": {"fraction": 0.25}})
    cfg = load_config(path, environ={"CURATOR_FILTER_FRACTION": "0.5"})
    assert cfg["filter"]["fraction"] == 0.5


def test_env_values_parse_as_json():
    env = {
        "CURATOR_SIM_N": "48000",
        "CURATOR_LLM_LOGPROBS": "false",
        "CURATOR_LLM_TOP_K": "null",
        "CURATOR_SIM_CLASS_SCALE": '{"upregulated": 3.0, "downregulated": 3.0, "not differentially expressed": 1.0}',
    }
    cfg = load_config(None, environ=env)
    assert cfg["sim"]["n"] == 48000
    assert cfg["llm"]["logprobs"] is False
    assert cfg["llm"]["top_k"] is None
    assert cfg["sim"]["class_scale"]["upregulated"] == 3.0


def test_env_value_nested_too_deeply_is_a_raw_string():
    # as any value that is not JSON: the type check names the variable
    with pytest.raises(UsageError, match=r"seed must be an integer, got '\[\[.*\(env var CURATOR_SEED\)"):
        load_config(None, environ={"CURATOR_SEED": "[" * 200_000})


def test_string_keys_are_never_json_decoded():
    # "null" is a legal model name, not JSON null.
    cfg = load_config(None, environ={"CURATOR_LLM_MODEL": "null"})
    assert cfg["llm"]["model"] == "null"


def test_top_level_env_keys():
    cfg = load_config(None, environ={"CURATOR_SEED": "42", "CURATOR_LOG_LEVEL": "debug"})
    assert cfg["seed"] == 42
    assert cfg["log_level"] == "debug"


def test_unknown_env_override_is_rejected():
    with pytest.raises(InvalidConfig, match="CURATOR_FILTER_FRACTOIN"):
        load_config(None, environ={"CURATOR_FILTER_FRACTOIN": "0.5"})


@pytest.mark.parametrize("name", ["CURATOR_", "CURATOR__FOO", "CURATOR__SEED", "CURATOR_LLM",
                                  "CURATOR_SEED_X"])
def test_env_override_without_a_known_section_is_rejected(name):
    with pytest.raises(InvalidConfig, match=f"override {name}$"):
        load_config(None, environ={name: "1"})


def test_unrelated_env_vars_are_ignored():
    cfg = load_config(None, environ={"PATH": "/bin", "CURATORIAL": "x"})
    assert cfg == DEFAULTS


def test_key_with_underscores_routes_to_section():
    cfg = load_config(None, environ={"CURATOR_LLM_BASE_URL": "http://h:1"})
    assert cfg["llm"]["base_url"] == "http://h:1"


# --- flag layer ---


def test_set_option_beats_env(tmp_path):
    path = write_cfg(tmp_path, {"filter": {"fraction": 0.3}})
    cfg = load_config(path, environ={"CURATOR_FILTER_FRACTION": "0.4"})
    set_option(cfg, "filter", "fraction", 0.05)
    assert cfg["filter"]["fraction"] == 0.05


def test_set_option_none_means_flag_absent():
    cfg = load_config(None, environ={})
    set_option(cfg, "filter", "fraction", None)
    assert cfg["filter"]["fraction"] == 0.1


def test_set_option_top_level():
    cfg = load_config(None, environ={})
    set_option(cfg, "", "seed", 9)
    assert cfg["seed"] == 9


# --- one type rule for every layer ---


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("bootstrap", "n_resamples", 2.9, "bad bootstrap config: n_resamples must be an integer, got 2.9"),
        ("sim", "k", True, "sim.*k must be an integer, got True"),
        ("sim", "independent_noise", "False", "independent_noise must be a boolean"),
        ("filter", "fraction", None, "fraction must be a finite number, got None"),
        ("filter", "fraction", float("nan"), "fraction must be a finite number"),
        ("llm", "top_k", "50", "top_k must be an integer or null"),
        ("llm", "model", 7, "model must be a string"),
        ("sim", "class_scale", [1, 2, 3], "class_scale must be an object"),
        ("", "seed", 1.5, "bad config: seed must be an integer"),
        ("", "seed", -1, r"^bad config: seed must be >= 0, got -1 \("),
        ("filter", "seed", -3, r"^bad filter config: seed must be >= 0, got -3 \("),
        ("sim", "seed", -1, r"^bad sim config: seed must be >= 0, got -1 \("),
        ("bootstrap", "seed", -1, r"^bad bootstrap config: seed must be >= 0, got -1 \("),
        ("bootstrap", "n_resamples", 0,
         r"^bad bootstrap config: n_resamples must be >= 1, got 0 \("),
        ("filter", "fraction", 0, r"^bad filter config: fraction must be in \(0, 1\], got 0.0 \("),
        ("filter", "fraction", 1.5,
         r"^bad filter config: fraction must be in \(0, 1\], got 1.5 \("),
        ("llm", "max_tokens", 0, r"^bad llm config: max_tokens must be >= 1, got 0 \("),
        ("llm", "max_retries", -1, r"^bad llm config: max_retries must be >= 0, got -1 \("),
        ("scorer", "max_batch", 0, r"^bad scorer config: max_batch must be >= 1, got 0 \("),
    ],
)
def test_set_option_refuses_a_value_of_the_wrong_type(section, key, value, message):
    cfg = load_config(None, environ={})
    with pytest.raises(UsageError, match=message) as err:
        set_option(cfg, section, key, value, "test source")
    assert "(test source)" in str(err.value)
    assert cfg == DEFAULTS


def test_an_integer_for_a_number_key_is_stored_as_a_float(tmp_path):
    path = write_cfg(tmp_path, {"filter": {"fraction": 1}, "llm": {"temperature": 0}})
    cfg = load_config(path, environ={"CURATOR_SIM_CALIBRATION": "2"})
    for value in (cfg["filter"]["fraction"], cfg["llm"]["temperature"], cfg["sim"]["calibration"]):
        assert type(value) is float
    assert cfg["filter"]["fraction"] == 1.0


def test_only_nullable_keys_take_null(tmp_path):
    nulls = {"llm": {"api_key": None, "top_k": None, "sample_seed": None},
             "scorer": {"api_key": None}, "filter": {"seed": None}}
    cfg = load_config(write_cfg(tmp_path, nulls), environ={})
    assert cfg["llm"]["top_k"] is None
    with pytest.raises(UsageError, match="bad sim config: k must be an integer, got None"):
        load_config(write_cfg(tmp_path, {"sim": {"k": None}}), environ={})


def test_mistyped_file_value_names_key_and_file(tmp_path):
    path = write_cfg(tmp_path, {"bootstrap": {"n_resamples": 2.9}})
    with pytest.raises(UsageError, match=f"n_resamples .*got 2.9 \\(config file {path}\\)"):
        load_config(path, environ={})


def test_env_value_that_is_not_json_fails_the_type_check():
    with pytest.raises(UsageError, match="n must be an integer, got 'many' \\(env var CURATOR_SIM_N\\)"):
        load_config(None, environ={"CURATOR_SIM_N": "many"})
    with pytest.raises(UsageError, match="CURATOR_SIM_INDEPENDENT_NOISE"):
        load_config(None, environ={"CURATOR_SIM_INDEPENDENT_NOISE": "False"})


def test_choice_keys_accept_only_their_names():
    cfg = load_config(None, environ={"CURATOR_LLM_PPL_SPAN": "answer"})
    assert cfg["llm"]["ppl_span"] == "answer"
    for section, key in [("llm", "ppl_span"), ("score", "provider"), ("score", "variant"),
                         ("filter", "key"), ("filter", "strategy")]:
        with pytest.raises(UsageError, match=f"unknown {section}.{key} 'bogus'; choose from"):
            set_option(cfg, section, key, "bogus")
    with pytest.raises(UsageError, match="unknown log_level 'verbose'; choose from DEBUG, INFO"):
        set_option(cfg, "", "log_level", "verbose", "config file c.json")
    set_option(cfg, "", "log_level", "warning")
    assert cfg["log_level"] == "warning"  # kept as given: the config hash does not change


# --- hashing ---


def test_hash_is_stable_and_sensitive():
    a = load_config(None, environ={})
    b = load_config(None, environ={})
    assert config_hash(a) == config_hash(b)
    b["filter"]["fraction"] = 0.2
    assert config_hash(a) != config_hash(b)


def test_hash_masks_secrets():
    a = load_config(None, environ={"CURATOR_LLM_API_KEY": "sk-alpha"})
    b = load_config(None, environ={"CURATOR_LLM_API_KEY": "sk-beta"})
    unset = load_config(None, environ={})
    assert config_hash(a) == config_hash(b)  # value never enters the hash
    assert config_hash(a) != config_hash(unset)  # but set-ness does
    assert a["llm"]["api_key"] == "sk-alpha"  # key itself stays usable


def test_default_hash_is_pinned():
    # every manifest written with default settings carries this hash
    assert config_hash(load_config(None, environ={})) == (
        "b10d0355245949c7f6088043dd2e890de9f6d3288d70ccf56ba0bac878dc0667"
    )


@pytest.mark.parametrize("environ", [
    {},
    {"CURATOR_LLM_API_KEY": "sk-alpha", "CURATOR_SCORER_API_KEY": "sk-beta"},
    {"CURATOR_LLM_MODEL": "modèle-ü-模型-🧬"},
], ids=["default", "secrets", "non-ascii"])
def test_hash_is_the_standard_sha256(environ):
    # the interpreter's own SHA-256 computes it, and hashlib's must agree
    config = load_config(None, environ=environ)
    masked = copy.deepcopy(config)
    for section in ("llm", "scorer"):
        masked[section]["api_key"] = "set" if config[section]["api_key"] else "unset"
    canonical = json.dumps(masked, sort_keys=True, separators=(",", ":"))
    assert config_hash(config) == hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_hash_is_hex_sha256():
    h = config_hash(load_config(None, environ={}))
    assert len(h) == 64
    int(h, 16)


# --- typed builders ---


def test_generation_config_requires_endpoint():
    cfg = load_config(None, environ={})
    with pytest.raises(UsageError, match="llm.base_url"):
        generation_config(cfg)
    cfg["llm"]["base_url"] = "http://h:1"
    with pytest.raises(UsageError, match="llm.model"):
        generation_config(cfg)


def test_generation_config_builds_sampling_params():
    cfg = load_config(
        None,
        environ={
            "CURATOR_LLM_BASE_URL": "http://h:1",
            "CURATOR_LLM_MODEL": "m",
            "CURATOR_LLM_K": "4",
            "CURATOR_LLM_SAMPLE_SEED": "77",
        },
    )
    gen = generation_config(cfg)
    assert gen.k == 4
    assert gen.sample_params.temperature == 1.0
    assert gen.sample_params.top_k == 50
    assert gen.sample_params.seed == 77
    assert gen.ppl_span == "full"


def test_generation_config_rejects_bad_values():
    cfg = load_config(
        None,
        environ={
            "CURATOR_LLM_BASE_URL": "http://h:1",
            "CURATOR_LLM_MODEL": "m",
        },
    )
    with pytest.raises(UsageError, match="bad llm config"):
        set_option(cfg, "llm", "temperature", -2.0)  # SamplingParams refuses it where it is set
    assert generation_config(cfg).sample_params.temperature == 1.0


def test_scorer_config_requires_base_url():
    cfg = load_config(None, environ={})
    with pytest.raises(UsageError, match="scorer.base_url"):
        scorer_config(cfg)
    cfg["scorer"]["base_url"] = "http://s:2"
    sc = scorer_config(cfg)
    assert sc.max_batch == 32
    assert sc.timeout == 30.0


def test_filter_spec_from_defaults():
    spec = filter_spec(load_config(None, environ={}))
    assert spec.strategy is FilterStrategy.PER_CLASS
    assert spec.fraction == 0.1
    assert spec.ranking_key is MetricVariant.COCOA
    assert spec.seed is None  # score-ranked strategies need no seed


def test_filter_spec_random_falls_back_to_global_seed():
    cfg = load_config(None, environ={"CURATOR_SEED": "31"})
    cfg["filter"]["strategy"] = "random"
    spec = filter_spec(cfg)
    assert spec.seed == 31


def test_filter_spec_explicit_seed_wins():
    cfg = load_config(None, environ={"CURATOR_SEED": "31"})
    cfg["filter"]["strategy"] = "random-stratified"
    cfg["filter"]["seed"] = 5
    assert filter_spec(cfg).seed == 5


def test_filter_spec_rejects_unknown_strategy():
    # choices are checked where the value is assigned, before any builder runs
    cfg = load_config(None, environ={})
    with pytest.raises(UsageError, match="unknown filter.strategy 'best-effort'; choose from per-class"):
        set_option(cfg, "filter", "strategy", "best-effort")
    assert cfg["filter"]["strategy"] == "per-class"


def test_filter_spec_rejects_unknown_key():
    cfg = load_config(None, environ={})
    with pytest.raises(UsageError, match="bleu"):
        set_option(cfg, "filter", "key", "bleu")
    assert filter_spec(cfg).ranking_key is MetricVariant.COCOA


def test_sim_config_from_defaults():
    sim = sim_config(load_config(None, environ={}))
    assert sim.n_examples == 1000
    assert sim.k == 8
    assert sim.class_prior[NONREG] == 0.8
    assert sim.class_scale[UP] == 1.0


def test_sim_config_parses_label_keyed_maps():
    cfg = load_config(None, environ={})
    cfg["sim"]["class_scale"] = {
        "upregulated": 3,
        "downregulated": 3,
        "not differentially expressed": 1,
    }
    sim = sim_config(cfg)
    assert sim.class_scale[UP] == 3.0


def test_sim_config_rejects_unknown_label():
    cfg = load_config(None, environ={})
    with pytest.raises(UsageError, match="sim.class_prior"):
        set_option(cfg, "sim", "class_prior", {"upregulated": 1.0, "sideways": 0.0})
    assert sim_config(cfg).class_prior[NONREG] == 0.8


def test_sim_config_wraps_validation_errors():
    cfg = load_config(None, environ={})
    with pytest.raises(UsageError, match="bad sim config"):
        set_option(cfg, "sim", "k", 0)  # SimConfig refuses it where it is set
    assert sim_config(cfg).k == 8


# --- whatever set_option accepts, every object builds ---

#: every settable key, "" the section of a top-level one
KEYS = [(section, key) for section, keys in DEFAULTS.items() if isinstance(keys, dict)
        for key in keys] + [("", key) for key, v in DEFAULTS.items() if not isinstance(v, dict)]
EDGES = [0, 1, -1, 2, 0.5, 1e-300, 1e308, -1e308, 10**30, -(10**30), 2**64]
NUMBERS = st.one_of(st.sampled_from(EDGES), st.integers(), st.floats())
STRINGS = st.one_of(st.sampled_from(["", "m", "full", "answer", "lexical", "remote", "cocoa",
                                     "ppl", "random", "global", "debug", "http://h:1",
                                     "http://u:p@h:1"]), st.text(max_size=12))
LABEL_MAPS = st.dictionaries(
    st.sampled_from(["up", "upregulated", "down", "downregulated", "nonregulated",
                     "not differentially expressed", "sideways"]),
    st.one_of(st.sampled_from([0.1, 0.8, 1.0, 3.0]), NUMBERS), max_size=4)


def drawn_value(section: str, key: str):
    default = DEFAULTS[section][key] if section else DEFAULTS[key]
    kinds = {bool: st.booleans(), int: NUMBERS, float: NUMBERS, str: STRINGS, dict: LABEL_MAPS,
             type(None): st.one_of(NUMBERS, STRINGS)}  # a key whose default is null
    return st.one_of(kinds[type(default)], st.none())


ASSIGNMENTS = st.lists(st.sampled_from(KEYS).flatmap(
    lambda sk: st.tuples(st.just(sk), drawn_value(*sk))), max_size=10)


@settings(max_examples=300, deadline=None)
@given(ASSIGNMENTS)
def test_every_accepted_setting_leaves_every_object_buildable(assignments):
    cfg = load_config(None, environ={})
    for (section, key), value in assignments:
        with suppress(UsageError):
            set_option(cfg, section, key, value, "test")
    for section, key, value in [("llm", "base_url", "http://h:1"), ("llm", "model", "m"),
                                ("scorer", "base_url", "http://s:2")]:
        if not cfg[section][key]:  # required by the builders, not by set_option
            set_option(cfg, section, key, value)
    sim_config(cfg)
    filter_spec(cfg)
    generation_config(cfg)
    scorer_config(cfg)
