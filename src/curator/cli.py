"""Command-line pipeline for curating reasoning-trace datasets.

Subcommands cover the whole flow:

  generate    queries -> bundles, via an OpenAI-compatible endpoint
  score       bundles -> scored bundles (uncertainty values)
  filter      scored -> retained subset under a strategy and fraction
  evaluate    scored/subset -> accuracy and per-class metrics with bootstrap
  stratify    scored -> decile report CSV
  sweep       scored -> subset-quality CSV across retention fractions
  export-sft  subset -> chat-format fine-tuning examples
  simulate    nothing -> synthetic bundles with controllable difficulty

Every command that writes a dataset also writes `<output>.manifest.json`
with its examples per predicted class and the resolved-config hash (only
beside a regular file, not for stdout, /dev/null or a FIFO). An output is
complete or absent: a failed run leaves the path as it was, and an output
that names the command's input is refused as a usage error before anything
is read or written.
Exit codes: 0 success, 1 fatal error, 2 partial failure, 64 usage error.
Dataset paths accept '-' for stdin/stdout.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import config as cfgmod
from . import storage
from .errors import CuratorError, UsageError
from .filtering import (
    RANDOM_FILTER_PRNG,
    apply_filter,
    decile_stratify,
    subset_quality_sweep,
    sweep_csv_lines,
)
from .llm_client import UsageCounters, generate_dataset, sft_record
from .metrics import evaluate, pairs_from_scored
from .model import LABEL_ORDER, MetricVariant, ParseStatus
from .similarity import get_provider
from .simulate import SIM_PRNG, simulate_dataset
from .uncertainty import ScoreStats, score_dataset

log = logging.getLogger("curator")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as UsageError (exit 64)."""

    def error(self, message):
        raise UsageError(message)


def _check_not_input(in_path: str, out_path: str) -> None:
    """Refuse to write over the file being read: a successful run would
    replace its own input."""
    if "-" not in (in_path, out_path) and os.path.realpath(in_path) == os.path.realpath(out_path):
        raise UsageError(f"output {out_path!r} is the input file; write to another path")


def cmd_generate(config: dict, args) -> int:
    gen_cfg = cfgmod.generation_config(config)
    cfg_hash = cfgmod.config_hash(config)
    counters = UsageCounters()
    failures: list[dict] = []
    queries = storage.read_queries(args.input)

    def rows():
        for query, bundle, error in generate_dataset(gen_cfg, queries, counters):
            if bundle is None:
                failures.append({"id": query.id, "error": error})
            else:
                yield storage.bundle_to_record(bundle), bundle.greedy.answer

    counts = storage.write_dataset(args.out, rows())
    usage = {**counters.snapshot(), "failures": failures}
    if storage.is_file_output(args.out):
        storage.write_json(args.out + ".usage.json", usage)
    storage.write_manifest(args.out, args.input, cfg_hash, counts, rejected=counts[None])
    log.info(
        "generated %d bundles (%d unparsed answers, %d failed queries, %d requests)",
        counts.total(), counts[None], len(failures), usage["requests"],
    )
    if failures:
        log.warning("%d queries failed permanently", len(failures))
        return 2
    return 0


def cmd_score(config: dict, args) -> int:
    cfg_hash = cfgmod.config_hash(config)
    provider_name = config["score"]["provider"]
    scorer_cfg = cfgmod.scorer_config(config) if provider_name == "remote" else None
    provider = get_provider(provider_name, scorer_cfg)
    variant = MetricVariant(config["score"]["variant"])
    stats = ScoreStats()
    bundles = storage.read_bundles(args.input)
    try:
        counts = storage.write_scored(
            args.out, score_dataset(bundles, provider, variant, stats=stats)
        )
    finally:
        provider.close()
    storage.write_manifest(args.out, args.input, cfg_hash, counts, rejected=stats.rejected)
    log.info("scored %d bundles (%d rejected) with %s/%s",
             counts.total(), stats.rejected, provider.name, variant.value)
    return 0


def cmd_filter(config: dict, args) -> int:
    cfg_hash = cfgmod.config_hash(config)
    spec = cfgmod.filter_spec(config)
    scored = list(storage.read_scored(args.input))
    counts = storage.write_scored(args.out, apply_filter(scored, spec))
    rnd = spec.strategy.is_random
    storage.write_manifest(
        args.out, args.input, cfg_hash, counts,
        seed=spec.seed if rnd else None, prng=RANDOM_FILTER_PRNG if rnd else None,
    )
    log.info(
        "retained %d of %d examples (%s, fraction %s, key %s)",
        counts.total(), len(scored), spec.strategy.value, spec.fraction, spec.ranking_key.value,
    )
    return 0


def cmd_evaluate(config: dict, args) -> int:
    n_resamples, seed = config["bootstrap"]["n_resamples"], config["bootstrap"]["seed"]
    if n_resamples < 1:
        raise UsageError(f"--resamples must be >= 1, got {n_resamples}")
    pairs = pairs_from_scored(storage.read_scored(args.input))
    report = evaluate(pairs, n_resamples=n_resamples, seed=seed)
    storage.write_json(args.out, report.to_dict())
    acc = report.accuracy
    print(f"n={report.n} resamples={report.n_resamples} seed={report.seed}")
    print(f"accuracy {acc.point:.4f} +/- {acc.se:.4f} (95% CI {acc.ci_low:.4f}..{acc.ci_high:.4f})")
    print(f"{'class':<32}{'precision':>18}{'recall':>18}{'f1':>18}")
    for label in LABEL_ORDER:
        row = report.per_class[label]
        cells = "".join(
            f"{row[m].point:>11.4f} +/-{row[m].se:.4f}" for m in ("precision", "recall", "f1")
        )
        print(f"{label.value:<32}{cells}")
    return 0


def cmd_stratify(config: dict, args) -> int:
    key = MetricVariant(config["filter"]["key"])
    scored = list(storage.read_scored(args.input))
    report = decile_stratify(scored, key=key)
    with storage.open_output(args.out) as fh:
        fh.write("\n".join(report.csv_lines()) + "\n")
    log.info("wrote %d decile rows (key %s)", len(report.bins), key.value)
    return 0


def cmd_sweep(config: dict, args) -> int:
    try:
        fractions = [float(f) for f in args.fractions.split(",") if f.strip()]
    except ValueError:
        raise UsageError(f"bad --fractions list: {args.fractions!r}") from None
    if not fractions:
        raise UsageError("--fractions must name at least one fraction")
    bad = [f for f in fractions if not 0 < f <= 1]
    if bad:
        raise UsageError(f"--fractions must each be in (0, 1], got {bad[0]}")
    spec = cfgmod.filter_spec(config)
    scored = list(storage.read_scored(args.input))
    rows = subset_quality_sweep(
        scored, fractions, strategy=spec.strategy, key=spec.ranking_key, seed=spec.seed
    )
    with storage.open_output(args.out) as fh:
        fh.write("\n".join(sweep_csv_lines(rows)) + "\n")
    log.info("swept %d fractions (%s, key %s)",
             len(rows), spec.strategy.value, spec.ranking_key.value)
    return 0


def cmd_export_sft(config: dict, args) -> int:
    cfg_hash = cfgmod.config_hash(config)
    skipped: list[str] = []

    def rows():
        for bundle, _ in storage.read_records(args.input):
            if bundle.greedy.parse_status is ParseStatus.OK:
                yield sft_record(bundle), bundle.greedy.answer
            else:
                log.warning("skipping %s: greedy trace has no parsed answer", bundle.query.id)
                skipped.append(bundle.query.id)

    counts = storage.write_dataset(args.out, rows())
    storage.write_manifest(args.out, args.input, cfg_hash, counts, rejected=len(skipped))
    log.info("exported %d fine-tuning examples (%d skipped)", counts.total(), len(skipped))
    return 0


def cmd_simulate(config: dict, args) -> int:
    cfg_hash = cfgmod.config_hash(config)
    sim_cfg = cfgmod.sim_config(config)
    counts = storage.write_dataset(args.out, (
        (storage.bundle_to_record(bundle), bundle.greedy.answer)
        for bundle in simulate_dataset(sim_cfg)
    ))
    storage.write_manifest(
        args.out, "simulated", cfg_hash, counts, seed=sim_cfg.seed, prng=SIM_PRNG
    )
    log.info("simulated %d bundles (seed %d)", counts.total(), sim_cfg.seed)
    return 0


def build_parser() -> _Parser:
    """Every flag that sets a config key has dest "<section>.<key>"; main
    assigns it with config.set_option, which checks its type and choices."""
    parser = _Parser(prog="curator", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--log-level", help="logging level (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate trace bundles for a queries file")
    p.add_argument("input", metavar="queries", help="queries JSONL ('-' for stdin)")
    p.add_argument("out", help="output bundles JSONL ('-' for stdout)")
    p.add_argument("--base-url", dest="llm.base_url")
    p.add_argument("--model", dest="llm.model")
    p.add_argument("--k", dest="llm.k", type=int)
    p.add_argument("--max-in-flight", dest="llm.max_in_flight", type=int)
    p.add_argument("--max-retries", dest="llm.max_retries", type=int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("score", help="attach uncertainty scores to bundles")
    p.add_argument("input", metavar="bundles", help="bundles JSONL ('-' for stdin)")
    p.add_argument("out", help="output scored JSONL ('-' for stdout)")
    p.add_argument("--provider", dest="score.provider")
    p.add_argument("--variant", dest="score.variant")
    p.add_argument("--scorer-url", dest="scorer.base_url")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("filter", help="retain the lowest-uncertainty subset")
    p.add_argument("input", metavar="scored", help="scored JSONL ('-' for stdin)")
    p.add_argument("out", help="output subset JSONL ('-' for stdout)")
    p.add_argument("--strategy", dest="filter.strategy")
    p.add_argument("--fraction", dest="filter.fraction", type=float)
    p.add_argument("--key", dest="filter.key")
    p.add_argument("--seed", dest="filter.seed", type=int)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("evaluate", help="accuracy and per-class metrics with bootstrap")
    p.add_argument("input", metavar="scored", help="scored/subset JSONL with gold labels")
    p.add_argument("out", help="output report JSON ('-' for stdout)")
    p.add_argument("--resamples", dest="bootstrap.n_resamples", type=int)
    p.add_argument("--seed", dest="bootstrap.seed", type=int)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stratify", help="decile report over uncertainty bins")
    p.add_argument("input", metavar="scored", help="scored JSONL with gold labels")
    p.add_argument("out", help="output CSV ('-' for stdout)")
    p.add_argument("--key", dest="filter.key")
    p.set_defaults(func=cmd_stratify)

    p = sub.add_parser("sweep", help="subset quality across retention fractions")
    p.add_argument("input", metavar="scored", help="scored JSONL with gold labels")
    p.add_argument("out", help="output CSV ('-' for stdout)")
    p.add_argument("--fractions", required=True, help="comma-separated, e.g. 0.01,0.1,1.0")
    p.add_argument("--strategy", dest="filter.strategy")
    p.add_argument("--key", dest="filter.key")
    p.add_argument("--seed", dest="filter.seed", type=int)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-sft", help="render a subset as fine-tuning messages")
    p.add_argument("input", metavar="subset", help="bundles/scored JSONL ('-' for stdin)")
    p.add_argument("out", help="output SFT JSONL ('-' for stdout)")
    p.set_defaults(func=cmd_export_sft)

    p = sub.add_parser("simulate", help="produce a synthetic bundle dataset")
    p.add_argument("out", help="output bundles JSONL ('-' for stdout)")
    p.add_argument("--n", dest="sim.n", type=int)
    p.add_argument("--k", dest="sim.k", type=int)
    p.add_argument("--seed", dest="sim.seed", type=int)
    p.add_argument("--calibration", dest="sim.calibration", type=float)
    p.add_argument("--independent-noise", dest="sim.independent_noise", action="store_true",
                   default=None)
    p.add_argument("--class-scale", dest="sim.class_scale", type=_parse_scale_flag,
                   help='per-class perplexity scale, e.g. "up=3,down=3,nonreg=1"')
    p.set_defaults(func=cmd_simulate)

    return parser


_SCALE_ALIASES = {"up": "upregulated", "down": "downregulated", "nonreg": "not differentially expressed"}


def _parse_scale_flag(raw: str) -> dict:
    scale = {label.value: 1.0 for label in LABEL_ORDER}
    for part in raw.split(","):
        if not part.strip():
            continue
        name, _, value = part.partition("=")
        key = _SCALE_ALIASES.get(name.strip().lower())
        if key is None or not value:
            raise UsageError(f"bad --class-scale entry {part!r}; use up=,down=,nonreg=")
        try:
            scale[key] = float(value)
        except ValueError:
            raise UsageError(f"bad --class-scale value {value!r}") from None
    return scale


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "input"):  # every command but simulate
            _check_not_input(args.input, args.out)
        config = cfgmod.load_config(args.config)
        for dest, value in vars(args).items():
            section, dot, key = dest.partition(".")
            if dot:
                cfgmod.set_option(config, section, key, value)
        cfgmod.set_option(config, "", "log_level", args.log_level)
        logging.basicConfig(
            level=config["log_level"].upper(),
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        return args.func(config, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except (CuratorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
