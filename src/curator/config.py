"""Layered pipeline configuration.

One JSON config file holds every tunable, grouped into sections. Values
resolve in increasing precedence: built-in defaults, config file,
CURATOR_* environment variables, command-line flags. Unknown sections,
keys, or env overrides are rejected rather than ignored.

Environment overrides are named CURATOR_<SECTION>_<KEY>, e.g.
CURATOR_LLM_API_KEY or CURATOR_FILTER_FRACTION; the two top-level keys are
CURATOR_SEED and CURATOR_LOG_LEVEL. Values are parsed as JSON where that
makes sense for the field, otherwise taken as raw strings.

The fully resolved config is hashed (SHA-256 over canonical JSON, secrets
masked) and the hash lands in every output manifest, so any artifact can
be traced back to the exact settings that produced it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from enum import Enum
from typing import Any

from .errors import InvalidConfig, UsageError
from .filtering import FilterSpec, FilterStrategy
from .llm_client import GenerationConfig
from .model import MetricVariant, SamplingParams, parse_class_label
from .similarity import RemoteScorerConfig
from .simulate import DEFAULT_CLASS_PRIOR, UNIT_CLASS_SCALE, SimConfig

ENV_PREFIX = "CURATOR_"

DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "log_level": "INFO",
    "llm": {
        "base_url": "",
        "model": "",
        "api_key": None,
        "k": 8,
        "temperature": 1.0,
        "top_p": 1.0,
        "top_k": 50,
        "send_top_k": True,
        "sample_seed": None,
        "max_tokens": 2048,
        "request_timeout": 60.0,
        "max_retries": 3,
        "max_in_flight": 8,
        "logprobs": True,
        "ppl_span": "full",
    },
    "scorer": {
        "base_url": "",
        "api_key": None,
        "timeout": 30.0,
        "max_retries": 3,
        "max_batch": 32,
        "max_in_flight": 8,
    },
    "score": {
        "provider": "lexical",
        "variant": "cocoa",
    },
    "filter": {
        "strategy": "per-class",
        "fraction": 0.1,
        "key": "cocoa",
        "seed": None,
    },
    "bootstrap": {
        "n_resamples": 5000,
        "seed": 0,
    },
    "sim": {
        "n": 1000,
        "k": 8,
        "seed": 0,
        "calibration": 1.0,
        "class_prior": {label.value: p for label, p in DEFAULT_CLASS_PRIOR.items()},
        "class_scale": {label.value: s for label, s in UNIT_CLASS_SCALE.items()},
        "difficulty_alpha": 2.0,
        "difficulty_beta": 2.0,
        "agreement_gain": 1.0,
        "perplexity_base": 0.05,
        "perplexity_gain": 2.0,
        "independent_noise": False,
        "trace_tokens": 24,
    },
}

#: Keys whose values are secrets: masked in the config hash, never logged,
#: and, like string-typed keys, never JSON-decoded from the environment.
_SECRET_KEYS = {"api_key"}


def _merge_file(config: dict, loaded: Any, path: str) -> None:
    if not isinstance(loaded, dict):
        raise InvalidConfig(f"{path}: config must be a JSON object")
    for section, value in loaded.items():
        if section not in config:
            raise InvalidConfig(f"{path}: unknown config key {section!r}")
        default = config[section]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise InvalidConfig(f"{path}: section {section!r} must be an object")
            for key, v in value.items():
                if key not in default:
                    raise InvalidConfig(f"{path}: unknown key {section}.{key}")
                default[key] = v
        else:
            config[section] = value


def _coerce_env_value(raw: str, key: str, default: Any):
    if key in _SECRET_KEYS or isinstance(default, str):
        return raw
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _merge_env(config: dict, environ: dict) -> None:
    sections = [s for s, v in DEFAULTS.items() if isinstance(v, dict)]
    for name in sorted(environ):
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX) :]
        if rest in ("SEED", "LOG_LEVEL"):
            key = rest.lower()
            config[key] = _coerce_env_value(environ[name], key, DEFAULTS[key])
            continue
        section, _, key = rest.partition("_")
        section = section.lower()
        key = key.lower()
        if section not in sections or key not in DEFAULTS[section]:
            raise InvalidConfig(f"unrecognized environment override {name}")
        config[section][key] = _coerce_env_value(
            environ[name], key, DEFAULTS[section][key]
        )


def load_config(path: str | None = None, environ: dict | None = None) -> dict:
    """Resolve defaults, then a config file, then environment overrides."""
    config = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"{path}: invalid JSON: {exc}") from None
        _merge_file(config, loaded, path)
    _merge_env(config, os.environ if environ is None else environ)
    return config


def set_option(config: dict, section: str, key: str, value: Any) -> None:
    """Apply one command-line override; None means 'flag not given'."""
    if value is None:
        return
    if section:
        config[section][key] = value
    else:
        config[key] = value


def _masked(config: dict) -> dict:
    out = copy.deepcopy(config)
    for section in out.values():
        if isinstance(section, dict):
            for key in section:
                if key in _SECRET_KEYS:
                    section[key] = "set" if section[key] else "unset"
    return out


def config_hash(config: dict) -> str:
    """SHA-256 of the resolved config as canonical JSON, secrets masked."""
    canonical = json.dumps(_masked(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _parse_choice(kind: type[Enum], name: str, what: str) -> Any:
    try:
        return kind(name)
    except ValueError:
        choices = ", ".join(m.value for m in kind)
        raise UsageError(f"unknown {what} {name!r}; choose from {choices}") from None


def _parse_variant(name: str) -> MetricVariant:
    return _parse_choice(MetricVariant, name, "metric variant")


def generation_config(config: dict) -> GenerationConfig:
    c = config["llm"]
    if not c["base_url"]:
        raise UsageError("llm.base_url is required (config file, CURATOR_LLM_BASE_URL, or flag)")
    if not c["model"]:
        raise UsageError("llm.model is required (config file, CURATOR_LLM_MODEL, or flag)")
    try:
        sample_params = SamplingParams(
            temperature=float(c["temperature"]),
            top_p=float(c["top_p"]),
            top_k=None if c["top_k"] is None else int(c["top_k"]),
            seed=None if c["sample_seed"] is None else int(c["sample_seed"]),
        )
        return GenerationConfig(
            base_url=c["base_url"],
            model=c["model"],
            api_key=c["api_key"],
            k=int(c["k"]),
            sample_params=sample_params,
            max_tokens=int(c["max_tokens"]),
            request_timeout=float(c["request_timeout"]),
            max_retries=int(c["max_retries"]),
            max_in_flight=int(c["max_in_flight"]),
            logprobs=bool(c["logprobs"]),
            send_top_k=bool(c["send_top_k"]),
            ppl_span=c["ppl_span"],
        )
    except ValueError as exc:
        raise UsageError(f"bad llm config: {exc}") from None


def scorer_config(config: dict) -> RemoteScorerConfig:
    c = config["scorer"]
    if not c["base_url"]:
        raise UsageError(
            "scorer.base_url is required for the remote provider "
            "(config file, CURATOR_SCORER_BASE_URL, or flag)"
        )
    try:
        return RemoteScorerConfig(
            base_url=c["base_url"],
            api_key=c["api_key"],
            timeout=float(c["timeout"]),
            max_retries=int(c["max_retries"]),
            max_batch=int(c["max_batch"]),
            max_in_flight=int(c["max_in_flight"]),
        )
    except ValueError as exc:
        raise UsageError(f"bad scorer config: {exc}") from None


def filter_spec(config: dict) -> FilterSpec:
    c = config["filter"]
    strategy = _parse_choice(FilterStrategy, c["strategy"], "filter strategy")
    seed = c["seed"]
    if seed is None and strategy.is_random:
        seed = config["seed"]
    try:
        return FilterSpec(
            strategy=strategy,
            fraction=float(c["fraction"]),
            ranking_key=_parse_variant(c["key"]),
            seed=None if seed is None else int(seed),
        )
    except ValueError as exc:
        raise UsageError(f"bad filter config: {exc}") from None


def _label_map(raw: dict, what: str) -> dict:
    try:
        return {parse_class_label(k): float(v) for k, v in raw.items()}
    except Exception as exc:
        raise UsageError(f"bad {what}: {exc}") from None


def sim_config(config: dict) -> SimConfig:
    c = config["sim"]
    try:
        return SimConfig(
            n_examples=int(c["n"]),
            k=int(c["k"]),
            seed=int(c["seed"]),
            calibration=float(c["calibration"]),
            class_prior=_label_map(c["class_prior"], "sim.class_prior"),
            class_scale=_label_map(c["class_scale"], "sim.class_scale"),
            difficulty_alpha=float(c["difficulty_alpha"]),
            difficulty_beta=float(c["difficulty_beta"]),
            agreement_gain=float(c["agreement_gain"]),
            perplexity_base=float(c["perplexity_base"]),
            perplexity_gain=float(c["perplexity_gain"]),
            independent_noise=bool(c["independent_noise"]),
            trace_tokens=int(c["trace_tokens"]),
        )
    except InvalidConfig as exc:
        raise UsageError(f"bad sim config: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad sim config: {exc}") from None
