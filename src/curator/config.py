"""Layered pipeline configuration.

One JSON config file holds every tunable, grouped into sections. Values
resolve in increasing precedence: built-in defaults, config file,
CURATOR_* environment variables, command-line flags. Unknown sections,
keys, or env overrides are rejected rather than ignored.

Environment overrides are named CURATOR_<SECTION>_<KEY>, e.g.
CURATOR_LLM_API_KEY or CURATOR_FILTER_FRACTION; the two top-level keys are
CURATOR_SEED and CURATOR_LOG_LEVEL. A string key's value is taken verbatim;
any other value is JSON-decoded.

Every layer assigns through set_option, which holds each key to the type
of its default (a few keys may also be null), a few keys to a range and
each choice key to its names, so a mistyped or out-of-range setting is a
usage error wherever it comes from, and the error names where it was set.

The fully resolved config is hashed (SHA-256 over canonical JSON, secrets
masked) and the hash lands in every output manifest, so any artifact can
be traced back to the exact settings that produced it. The digest is the
standard SHA-256, computed by the interpreter's own module rather than
hashlib's OpenSSL, which only generate and remote score need.
"""

from __future__ import annotations

import copy
import json
import logging
import os
from typing import Any

try:  # the interpreter's own SHA-256, as random imports its sha512
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:  # a build without it
        from hashlib import sha256

from .errors import InvalidConfig, UsageError
from .filtering import FilterSpec, FilterStrategy
from .llm_client import PPL_SPANS, GenerationConfig, check_endpoint
from .model import MetricVariant, SamplingParams, checked, parse_class_label
from .similarity import PROVIDERS, RemoteScorerConfig
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

#: Keys whose values are secrets: masked in the config hash, never logged.
_SECRET_KEYS = {"api_key"}

#: The keys that may also be null, with the type of their other values.
_NULLABLE = {
    ("llm", "api_key"): str,
    ("scorer", "api_key"): str,
    ("llm", "top_k"): int,
    ("llm", "sample_seed"): int,
    ("filter", "seed"): int,
}

#: The names a choice key accepts, in the order error messages list them.
#: log_level takes logging's level names in any case, as logging does.
_CHOICES = {
    ("", "log_level"): tuple(map(logging.getLevelName, (
        logging.DEBUG, logging.INFO, logging.WARNING, logging.ERROR, logging.CRITICAL))),
    ("llm", "ppl_span"): PPL_SPANS,
    ("score", "provider"): tuple(PROVIDERS),
    ("score", "variant"): tuple(v.value for v in MetricVariant),
    ("filter", "key"): tuple(v.value for v in MetricVariant),
    ("filter", "strategy"): tuple(s.value for s in FilterStrategy),
}


#: The least value of each bounded integer or number key; seeds, >= 0, aside.
_MINIMUM = {
    ("bootstrap", "n_resamples"): 1,
    ("sim", "n"): 0,
    ("sim", "k"): 1,
    ("llm", "k"): 0,
    ("llm", "temperature"): 0,
}

#: The keys whose values must be in (0, 1].
_UNIT_INTERVAL = (("filter", "fraction"), ("llm", "top_p"))


def _kind(section: str, key: str) -> type:
    """The type a setting takes: its default value's, or for a nullable key
    the type of its non-null values."""
    if (section, key) in _NULLABLE:
        return _NULLABLE[section, key]
    return type(DEFAULTS[section][key] if section else DEFAULTS[key])


def set_option(config: dict, section: str, key: str, value: Any, source: str = "flag") -> None:
    """The one checked assignment of a setting, whether it comes from the
    config file, the environment or a flag; section "" names a top-level
    key. The value must have the key's type, a seed must be >= 0, a key in
    _MINIMUM at least its least value and one in _UNIT_INTERVAL in (0, 1],
    an endpoint setting must pass check_endpoint and a choice key's value
    must be one of its names, else UsageError names the key and the source.
    A flag's None means the flag was not given."""
    if value is None and source == "flag":
        return
    try:
        value = checked(value, key, _kind(section, key), (section, key) in _NULLABLE)
        if key == "seed" and value is not None and value < 0:
            raise ValueError(f"seed must be >= 0, got {value}")
        least = _MINIMUM.get((section, key))
        if least is not None and value < least:
            raise ValueError(f"{key} must be >= {least}, got {value}")
        if (section, key) in _UNIT_INTERVAL and not 0 < value <= 1:
            raise ValueError(f"{key} must be in (0, 1], got {value}")
        if section in ("llm", "scorer") and value != "":  # "" leaves base_url unset
            check_endpoint({key: value})
    except ValueError as exc:
        raise UsageError(f"bad {section + ' ' if section else ''}config: {exc} ({source})") from None
    choices = _CHOICES.get((section, key), ())
    if choices and (value.upper() if key == "log_level" else value) not in choices:
        name = f"{section}.{key}" if section else key
        raise UsageError(f"unknown {name} {value!r}; choose from {', '.join(choices)} ({source})")
    (config[section] if section else config)[key] = value


def _merge_file(config: dict, loaded: Any, path: str) -> None:
    if not isinstance(loaded, dict):
        raise InvalidConfig(f"{path}: config must be a JSON object")
    source = f"config file {path}"
    for section, value in loaded.items():
        if section not in config:
            raise InvalidConfig(f"{path}: unknown config key {section!r}")
        if not isinstance(config[section], dict):
            set_option(config, "", section, value, source)
            continue
        if not isinstance(value, dict):
            raise InvalidConfig(f"{path}: section {section!r} must be an object")
        for key, v in value.items():
            if key not in config[section]:
                raise InvalidConfig(f"{path}: unknown key {section}.{key}")
            set_option(config, section, key, v, source)


def _merge_env(config: dict, environ: dict) -> None:
    for name in sorted(environ):
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX) :].lower()
        if rest in ("seed", "log_level"):
            section, key = "", rest
        else:
            section, _, key = rest.partition("_")
            if not isinstance(DEFAULTS.get(section), dict) or key not in DEFAULTS[section]:
                raise InvalidConfig(f"unrecognized environment override {name}")
        value = environ[name]
        if _kind(section, key) is not str:
            try:
                value = json.loads(value)
            except (ValueError, RecursionError):
                pass  # a raw string: the type check names the variable
        set_option(config, section, key, value, f"env var {name}")


def load_config(path: str | None = None, environ: dict | None = None) -> dict:
    """Resolve defaults, then a config file, then environment overrides."""
    config = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from None
        # ValueError is also an integer literal too long to convert, and
        # RecursionError a value nested deeper than the interpreter's stack
        except (ValueError, RecursionError) as exc:
            raise InvalidConfig(f"{path}: invalid JSON: {exc}") from None
        _merge_file(config, loaded, path)
    _merge_env(config, os.environ if environ is None else environ)
    return config


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
    return sha256(canonical.encode("utf-8")).hexdigest()


_SAMPLING_KEYS = ("temperature", "top_p", "top_k", "sample_seed")


def generation_config(config: dict) -> GenerationConfig:
    c = config["llm"]
    if not c["base_url"]:
        raise UsageError("llm.base_url is required (config file, CURATOR_LLM_BASE_URL, or flag)")
    if not c["model"]:
        raise UsageError("llm.model is required (config file, CURATOR_LLM_MODEL, or flag)")
    try:
        return GenerationConfig(
            **{k: v for k, v in c.items() if k not in _SAMPLING_KEYS},
            sample_params=SamplingParams(*(c[k] for k in _SAMPLING_KEYS)),
        )
    except ValueError as exc:
        raise UsageError(f"bad llm config: {exc} (config file, CURATOR_LLM_*, or flag)") from None


def scorer_config(config: dict) -> RemoteScorerConfig:
    c = config["scorer"]
    if not c["base_url"]:
        raise UsageError(
            "scorer.base_url is required for the remote provider "
            "(config file, CURATOR_SCORER_BASE_URL, or flag)"
        )
    return RemoteScorerConfig(**c)  # set_option has checked every key


def filter_spec(config: dict) -> FilterSpec:
    c = config["filter"]
    strategy = FilterStrategy(c["strategy"])
    seed = c["seed"]
    if seed is None and strategy.is_random:
        seed = config["seed"]
    try:
        return FilterSpec(
            strategy=strategy, fraction=c["fraction"], ranking_key=MetricVariant(c["key"]), seed=seed
        )
    except ValueError as exc:
        raise UsageError(f"bad filter config: {exc}") from None


def _label_map(raw: dict, what: str) -> dict:
    try:
        return {parse_class_label(k): checked(v, k, float) for k, v in raw.items()}
    except ValueError as exc:
        raise UsageError(f"bad {what}: {exc}") from None


def sim_config(config: dict) -> SimConfig:
    c = config["sim"]
    try:
        return SimConfig(
            n_examples=c["n"],
            class_prior=_label_map(c["class_prior"], "sim.class_prior"),
            class_scale=_label_map(c["class_scale"], "sim.class_scale"),
            **{k: v for k, v in c.items() if k not in ("n", "class_prior", "class_scale")},
        )
    except InvalidConfig as exc:
        raise UsageError(f"bad sim config: {exc}") from None
