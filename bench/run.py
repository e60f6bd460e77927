#!/usr/bin/env python3
"""The curator's benchmark: its CLI pipeline, end to end and per layer.

    python3 bench/run.py --workload offline-short --seed 1 --seconds 30 --trace 0

The program under test is `src/curator` of the checkout that holds this
file, run by the interpreter that runs this script. Work files go to
`.bench_work/` in that checkout and are removed at the end; run records
(versions, nproc, commit, seed, input sizes, every timing) stay in
`.bench_work/records/`.

Each workload is a closed-loop batch job: the curator CLI is the only
client, each command starts after the previous one ended, and on the
`endpoint` workload the client has at most 2 requests outstanding against
in-process mocks with a fixed service latency.

--trace 0 runs the pipeline as fresh `curator` processes, pass after pass
(at least MIN_PASSES, more while --seconds allow), checks every output of
every pass and reports medians over passes:

  setup_s       building inputs, starting mocks and a warm-up import,
                median of SETUP_REPEATS set-ups
  pipeline_s    sum of the pass's command wall times
  peak_rss_mb   largest peak RSS (os.wait4 rusage) over the pass's commands

Each command's wall time and peak RSS is printed in the summary above the
result and kept in the run record. Single commands are not end-to-end
metrics: one command lasts 0.4 to 6 s, and on a shared two-core host the
CPU speed swings by up to 1.6x over seconds, so a median of a few such
timings moves by 10 to 30 % between runs; the sum over a pass spreads
much less.

--trace 1 runs one pass of CLI processes (per-command wall time and peak
RSS), one pass with `curator.cli.main` called inside a fresh interpreter
per command, untraced, and the same pass traced (see spans.py); it reports
per-layer times and counts and the tracing overhead.

Operations are CLI commands plus HTTP requests the mocks received; a
non-zero exit, a non-200 response or a failed output check counts as a
failed operation. The last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import uuid
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

import check
import inputs
from mock import ChatCompletionsMock, ScorerMock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3
MAX_PASSES = 50
SETUP_REPEATS = 3
STARTUP_REPEATS = 3
COMMAND_TIMEOUT_S = 120

#: What `curator` (the console script) runs.
CLI_BOOT = "import sys; from curator.cli import entry; sys.argv[0] = 'curator'; entry()"
PROBE = (
    "import json, sys, numpy, curator.cli; "
    "print(json.dumps({'file': curator.cli.__file__, 'numpy': numpy.__version__, "
    "'python': sys.version.split()[0]}))"
)

COMMANDS = ("generate", "simulate", "score", "filter", "evaluate", "stratify", "sweep", "export-sft")

FRACTION = "0.1"
SWEEP_FRACTIONS = ["0.01", "0.05", "0.1", "0.2", "1.0"]
RESAMPLES = 5000
K = 8


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CURATOR_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


ENV = child_env()


# --------------------------------------------------------------- workloads


class Workload:
    """One set of inputs and the commands run on them.

    setup() builds the inputs into a directory and starts what the
    commands talk to; commands() lists (name, argv) with outputs relative
    to the pass directory; check() returns the violations of one pass.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.http: dict[str, dict] = {}

    def setup(self, directory: Path) -> dict:
        raise NotImplementedError

    def commands(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self, d: Path) -> list[str]:
        raise NotImplementedError

    def before(self, command: str) -> None:
        pass

    def after(self, command: str) -> dict:
        return {}

    def close(self) -> None:
        pass

    def _analysis(self, d: Path, n: int, similarity, deciles_and_sweep: bool) -> list[str]:
        scored_lines = check.read_lines(d / "scored.jsonl")
        scored = [json.loads(line) for line in scored_lines]
        subset_lines = check.read_lines(d / "subset.jsonl")
        subset = [json.loads(line) for line in subset_lines]
        out = check.check_scores(scored, n, self.seed, similarity)
        out += check.check_subset(scored_lines, scored, subset_lines, FRACTION)
        if (d / "report.json").exists():
            out += check.check_report(d / "report.json", subset, RESAMPLES)
        if (d / "sft.jsonl").exists():
            out += check.check_sft(d / "sft.jsonl", subset)
        if deciles_and_sweep:
            out += check.check_deciles(d / "deciles.csv", len(scored))
            out += check.check_sweep(d / "sweep.csv", scored, SWEEP_FRACTIONS)
        return out


def _score_filter_evaluate_export(bundles: str, provider: str) -> list[tuple[str, list[str]]]:
    return [
        ("score", ["score", bundles, "scored.jsonl", "--provider", provider, "--variant", "cocoa"]),
        ("filter", ["filter", "scored.jsonl", "subset.jsonl", "--strategy", "per-class",
                    "--fraction", FRACTION]),
        ("evaluate", ["evaluate", "subset.jsonl", "report.json", "--resamples", str(RESAMPLES),
                      "--seed", "0"]),
        ("export-sft", ["export-sft", "subset.jsonl", "sft.jsonl"]),
    ]


class OfflineShort(Workload):
    """The README walkthrough on simulated ~22-word traces. Per-record
    read/validate dominates the analysis commands, plus simulate and the
    bootstrap's per-resample loop; lexical similarity work is light."""

    name = "offline-short"
    n = 4000

    def setup(self, directory):
        return {"n": self.n, "k": K, "trace_words": "simulator default"}

    def commands(self):
        score, filt, evaluate, export = _score_filter_evaluate_export("bundles.jsonl", "lexical")
        return [
            ("simulate", ["simulate", "bundles.jsonl", "--n", str(self.n), "--k", str(K),
                          "--seed", str(self.seed)]),
            score, filt, evaluate,
            ("stratify", ["stratify", "scored.jsonl", "deciles.csv"]),
            ("sweep", ["sweep", "scored.jsonl", "sweep.csv", "--fractions", ",".join(SWEEP_FRACTIONS)]),
            export,
        ]

    def check(self, d):
        out = []
        if len(check.read_lines(d / "bundles.jsonl")) != self.n:
            out.append("simulate: wrong number of bundles")
        return out + self._analysis(d, self.n, check.lexical_similarity, True)


class OfflineLong(Workload):
    """~600-word traces with one logprob per word. Bytes per record, JSON
    decode and lexical tokenisation dominate; n is large enough that the
    lexical provider's 8192-entry TF-vector cache fills with long vectors,
    which sets score's peak RSS."""

    name = "offline-long"
    n = 1000
    words = 600

    def setup(self, directory):
        self.bundles = str(directory / "bundles.jsonl")
        return inputs.write_long_bundles(self.bundles, self.n, K, self.words, self.seed)

    def commands(self):
        return _score_filter_evaluate_export(self.bundles, "lexical")

    def check(self, d):
        return self._analysis(d, self.n, check.lexical_similarity, False)


class Endpoint(Workload):
    """generate and remote score against the mocks (10 ms service latency,
    at most 2 requests in flight): wall time is request count x latency /
    concurrency, so this measures the HTTP clients and batching and
    bypasses lexical similarity and the bootstrap."""

    name = "endpoint"
    n = 50
    words = 300
    latency_s = 0.010
    in_flight = 2
    sample_seed = 1000

    def __init__(self, seed):
        super().__init__(seed)
        self.mocks: list = []

    def setup(self, directory):
        built = inputs.build_endpoint(
            str(directory / "queries.jsonl"), self.n, K, self.words, self.seed, self.sample_seed
        )
        self.served = built["served"]
        self.queries = str(directory / "queries.jsonl")
        self.chat = ChatCompletionsMock(built["chat"], r"EPP\d{6}", self.latency_s)
        self.mocks.append(self.chat)
        self.scorer = ScorerMock(built["scorer"], self.latency_s)
        self.mocks.append(self.scorer)
        self.config = str(directory / "config.json")
        config = {
            "llm": {"base_url": self.chat.base_url, "model": "bench-model", "k": K,
                    "max_in_flight": self.in_flight, "sample_seed": self.sample_seed},
            "scorer": {"base_url": self.scorer.base_url, "max_in_flight": self.in_flight},
        }
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2)
        return built["stats"]

    def commands(self):
        score, filt, _, _ = _score_filter_evaluate_export("bundles.jsonl", "remote")
        cfg = ["--config", self.config]
        return [
            ("generate", cfg + ["generate", self.queries, "bundles.jsonl"]),
            ("score", cfg + score[1]),
            ("filter", cfg + filt[1]),
        ]

    def before(self, command):
        for m in self.mocks:
            m.reset()

    def after(self, command):
        return {"chat": self.chat.counters(), "scorer": self.scorer.counters()}

    def check(self, d):
        out = []
        gen, score = self.http.get("generate", {}), self.http.get("score", {})
        want_requests, want_pairs = self.n * (K + 1), self.n * K
        if gen.get("chat", {}).get("requests") != want_requests:
            out.append(f"generate: {gen.get('chat')} requests, expected {want_requests}")
        if score.get("scorer", {}).get("pairs") != want_pairs:
            out.append(f"score: scorer got {score.get('scorer')} pairs, expected {want_pairs}")
        bundles = [json.loads(line) for line in check.read_lines(d / "bundles.jsonl")]
        out += check.check_generated(bundles, self.served)

        def served_similarity(row, j):
            return self.served[row["query"]["id"]]["scores"][j]

        return out + self._analysis(d, self.n, served_similarity, False)

    def close(self):
        for m in self.mocks:
            m.close()
        self.mocks.clear()


WORKLOADS = {w.name: w for w in (OfflineShort, OfflineLong, Endpoint)}


# ---------------------------------------------------------------- running


class Launcher:
    """Client of launcher.py, which starts every child process so that
    their peak RSS does not start from this process's size."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], cwd: Path, stderr: Path, stdout: Path | None = None) -> dict:
        request = {"argv": [sys.executable, *argv], "cwd": str(cwd), "env": ENV,
                   "stdout": None if stdout is None else str(stdout), "stderr": str(stderr),
                   "timeout_s": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=COMMAND_TIMEOUT_S)


def run_cli(launcher: Launcher, argv: list[str], cwd: Path, log: Path) -> dict:
    """One fresh `curator` process: wall time and os.wait4 peak RSS."""
    return launcher.run(["-c", CLI_BOOT, *argv], cwd, log)


def run_inproc(launcher: Launcher, traced: bool, run_id: str, command: str, argv: list[str],
               cwd: Path, log: Path) -> dict:
    """`curator.cli.main(argv)` inside a fresh interpreter (see inproc.py);
    wall_s is the time of main() alone."""
    out = cwd.parent / f"{cwd.name}-{command}.out"
    started = launcher.run([str(BENCH / "inproc.py"), "1" if traced else "0", run_id, command,
                            *argv], cwd, log, stdout=out)
    if started["exit"] != 0:
        return {**started, "spans": []}
    result = json.loads(out.read_text(encoding="utf-8").splitlines()[-1])
    out.unlink()
    return {**started, "exit": result["exit"], "wall_s": result["wall_s"], "spans": result["spans"]}


def run_pass(launcher: Launcher, workload: Workload, directory: Path, mode: str, run_id: str) -> dict:
    """Run every command once in a fresh directory, check the outputs,
    hash them, then delete them. mode is cli, inproc or traced."""
    directory.mkdir(parents=True)
    workload.http = {}
    commands = {}
    log = directory / "commands.log"
    for name, argv in workload.commands():
        workload.before(name)
        if mode == "cli":
            result = run_cli(launcher, argv, directory, log)
        else:
            result = run_inproc(launcher, mode == "traced", run_id, name, argv, directory, log)
        workload.http[name] = workload.after(name)
        commands[name] = result
        if result["exit"] != 0:
            break
    violations = [f"{n}: exit code {r['exit']}" for n, r in commands.items() if r["exit"] != 0]
    if not violations:
        violations = workload.check(directory)
    if violations:
        sys.stderr.write(log.read_text(errors="replace")[-4000:] if log.exists() else "")
    result = {
        "mode": mode,
        "commands": commands,
        "http": workload.http,
        "wall_s": sum(r["wall_s"] for r in commands.values()),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in commands.values()),
        "digests": check.digests(directory),
        "violations": violations,
    }
    shutil.rmtree(directory)
    return result


def probe(launcher: Launcher, directory: Path) -> dict:
    """Import the CLI in a fresh interpreter; returns versions and the
    import's wall time, and fails unless it is the checkout's curator."""
    out, log = directory / "probe.out", directory / "probe.log"
    started = launcher.run(["-c", PROBE], directory, log, stdout=out)
    if started["exit"] != 0:
        raise SystemExit(f"cannot import curator.cli from {SRC}:\n{log.read_text()[-2000:]}")
    info = json.loads(out.read_text().splitlines()[-1])
    out.unlink()
    log.unlink()
    if not Path(info["file"]).resolve().is_relative_to(SRC):
        raise SystemExit(f"curator.cli imported from {info['file']}, not from {SRC}")
    return {**info, "wall_s": started["wall_s"]}


def set_up(launcher: Launcher, workload_cls, seed: int, directory: Path):
    """Build inputs, start mocks, warm up; returns (workload, sizes,
    versions, seconds)."""
    t0 = perf_counter()
    directory.mkdir(parents=True)
    workload = workload_cls(seed)
    try:
        sizes = workload.setup(directory)
        versions = probe(launcher, directory)
    except BaseException:
        workload.close()
        raise
    return workload, sizes, versions, perf_counter() - t0


def input_digests(directory: Path) -> dict:
    """Hashes of the built inputs; config.json names the mocks' random ports."""
    return {k: v for k, v in check.digests(directory).items() if k != "config.json"}


# ---------------------------------------------------------------- metrics


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def compare_digests(workload: Workload, passes: list[dict], key: dict) -> list[str]:
    """Artifacts must hash the same in every pass, and in every run of the
    same seed, input size and source tree (kept in .bench_work/digests.json)."""
    out = []
    first = passes[0]["digests"]
    for i, p in enumerate(passes[1:], start=2):
        for name in sorted(set(first) | set(p["digests"])):
            if first.get(name) != p["digests"].get(name):
                out.append(f"{name}: SHA-256 differs between pass 1 and pass {i}")
    store_path = WORK / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    k = json.dumps(key, sort_keys=True)
    if k in store and store[k] != first:
        out.append(f"{workload.name}: artifacts differ from an earlier run of seed {workload.seed}")
    elif not out:
        store[k] = first
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, store_path)
    return out


def count_ops(passes: list[dict], violations: list[str]) -> tuple[int, int]:
    """(attempted, failed) operations: CLI commands plus HTTP requests; a
    failed operation is a violation (exit codes included) or a non-200."""
    attempted, failed = 0, len(violations)
    for p in passes:
        for name in p["commands"]:
            attempted += 1
            for counters in p["http"].get(name, {}).values():
                attempted += counters["requests"]
                failed += counters["non_200"]
    return attempted, failed


def _median_of(passes, fn):
    return statistics.median(fn(p) for p in passes)


def end_to_end(passes: list[dict], setup_times: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pipeline_s": (_median_of(passes, lambda p: p["wall_s"]), "s"),
        "peak_rss_mb": (_median_of(passes, lambda p: p["peak_rss_mb"]), "MB"),
    }


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def per_layer(spans: list[dict], cli_pass: dict, inproc_pass: dict, traced_pass: dict,
              startup_s: float) -> dict:
    by_id = {s["id"]: s for s in spans}

    def named(prefix):
        return [s for s in spans if s["name"].startswith(prefix)]

    def outer(prefix):
        return [s for s in named(prefix)
                if not by_id.get(s["parent"], {"name": ""})["name"].startswith(prefix)]

    def total(prefix, field="self"):
        return sum(s[field] for s in named(prefix))

    def attr(prefix, key, spans_=None):
        return sum(s["attrs"].get(key, 0) for s in (named(prefix) if spans_ is None else spans_))

    reads = outer("storage.read.")
    records_read = sum(s["items"] for s in reads)
    bytes_read = attr("", "bytes", reads)
    read_s = total("storage.read.")
    scored = sum(s["items"] for s in named("uncertainty.score_dataset"))
    lexical_pairs = attr("similarity.lexical", "pairs")
    scorer = traced_pass["http"].get("score", {}).get("scorer", {})
    chat = traced_pass["http"].get("generate", {}).get("chat", {})
    generations = named("llm_client.generate_dataset")
    usage = generations[0]["attrs"]["usage"] if generations else {}
    requests = usage.get("requests", 0)
    roots = {s["name"][4:]: s for s in spans if s["parent"] is None and s["name"].startswith("cli.")}

    m = {
        "simulate.us_per_bundle":
            (_per(total("simulate."), sum(s["items"] for s in outer("simulate.")), 1e6), "us"),
        "storage.read.us_per_record": (_per(read_s, records_read, 1e6), "us"),
        "storage.records_read": (records_read, "count"),
        "storage.read.mb_per_s": (_per(bytes_read / 1e6, read_s), "MB/s"),
        "storage.bytes_read": (bytes_read, "bytes"),
        "storage.write.us_per_record":
            (_per(total("storage.write."), len(named("storage.write.dumps")), 1e6), "us"),
        "storage.bytes_written": (attr("storage.write.io", "bytes"), "bytes"),
        "uncertainty.self_us_per_example": (_per(total("uncertainty."), scored, 1e6), "us"),
        "uncertainty.rejected": (attr("uncertainty.score_dataset", "rejected"), "count"),
        "similarity.pairs": (attr("similarity.", "pairs"), "count"),
        "similarity.lexical.us_per_pair": (_per(total("similarity.lexical"), lexical_pairs, 1e6), "us"),
        "similarity.remote.requests": (scorer.get("requests", 0), "count"),
        "similarity.remote.pairs_per_request":
            (_per(scorer.get("pairs", 0), scorer.get("requests", 0)), "count"),
        "similarity.remote.max_in_flight": (scorer.get("peak_active", 0), "count"),
        "similarity.remote.ms_per_request":
            (_per(total("similarity.remote", "busy"), scorer.get("requests", 0), 1e3), "ms"),
        "similarity.remote.non_200": (scorer.get("non_200", 0), "count"),
        "filtering.apply_filter.us_per_example":
            (_per(total("filtering.apply_filter"), attr("filtering.apply_filter", "examples"), 1e6),
             "us"),
        "filtering.decile_stratify.us_per_example":
            (_per(total("filtering.decile_stratify"),
                  attr("filtering.decile_stratify", "examples"), 1e6), "us"),
        "metrics.evaluate.ms_per_1k_resamples":
            (_per(total("metrics.evaluate"), attr("metrics.evaluate", "resamples") / 1000, 1e3), "ms"),
        "metrics.sweep.ms_per_fraction":
            (_per(total("metrics.subset_quality_sweep", "busy"),
                  attr("metrics.subset_quality_sweep", "fractions"), 1e3), "ms"),
        "llm_client.requests": (requests, "count"),
        "llm_client.requests_per_query":
            (_per(requests, sum(s["items"] for s in generations)), "count"),
        "llm_client.requests_per_s": (_per(requests, total("llm_client.generate_dataset", "busy")), "1/s"),
        "llm_client.max_in_flight": (chat.get("peak_active", 0), "count"),
        "llm_client.retried": (usage.get("retried", 0), "count"),
        "llm_client.failed": (usage.get("failed", 0), "count"),
        "cli.startup_s": (startup_s, "s"),
    }
    for name in COMMANDS:
        root = roots.get(name)
        cli_cmd = cli_pass["commands"].get(name, {})
        m[f"cli.{name}.wall_s"] = (cli_cmd.get("wall_s", 0.0), "s")
        m[f"cli.{name}.self_s"] = (root["self"] if root else 0.0, "s")
        m[f"cli.{name}.peak_rss_mb"] = (cli_cmd.get("peak_rss_mb", 0.0), "MB")
    traced_s = sum(r["busy"] for r in roots.values())
    untraced_s = sum(r["wall_s"] for r in inproc_pass["commands"].values())
    m["trace.overhead_ratio"] = (_per(traced_s, untraced_s), "ratio")
    return m


def self_time_violations(spans: list[dict]) -> tuple[list[str], float]:
    """Each command's main-thread self times must add up to its span."""
    out, worst = [], 0.0
    for root in (s for s in spans if s["parent"] is None and s["name"].startswith("cli.")):
        prefix = root["id"].split("/")[0] + "/"
        parts = sum(s["self"] for s in spans if s["thread"] == "main" and s["id"].startswith(prefix))
        gap = abs(parts - root["busy"])
        worst = max(worst, gap)
        if gap > 1e-6 * max(1.0, root["busy"]):
            out.append(f"{root['name']}: self times sum to {parts!r}, span is {root['busy']!r}")
    return out, worst


# ------------------------------------------------------------------- main


def _summary(workload, passes, metrics, attempted, failed, violations) -> None:
    print(f"workload {workload.name} seed {workload.seed}: {len(passes)} pass(es)")
    for mode in dict.fromkeys(p["mode"] for p in passes):
        group = [p for p in passes if p["mode"] == mode]
        print(f"  {mode} pass(es): {len(group)}")
        for name in COMMANDS:
            walls = [p["commands"][name]["wall_s"] for p in group if name in p["commands"]]
            rss = [p["commands"][name]["peak_rss_mb"] for p in group if name in p["commands"]]
            if walls:
                print(f"    {name:<11} wall median {statistics.median(walls):8.4f} s  "
                      f"[{min(walls):.4f} .. {max(walls):.4f}]  peak RSS {max(rss):7.1f} MB")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  error_rate {failed}/{attempted} operations (CLI commands + HTTP requests)")
    for v in violations:
        print(f"  VIOLATION {v}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "curator" / "cli.py").is_file():
        print(f"error: no curator sources at {SRC}", file=sys.stderr)
        return 2

    run_id = uuid.uuid4().hex[:12]
    work = WORK / f"run-{run_id}"
    started_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    workload = None
    work.mkdir(parents=True)
    launcher = Launcher()
    try:
        workload_cls = WORKLOADS[args.workload]
        setup_times, setup_inputs = [], []
        for i in range(SETUP_REPEATS if args.trace == 0 else 1):
            if workload is not None:
                workload.close()
            workload, sizes, versions, seconds = set_up(launcher, workload_cls, args.seed,
                                                        work / f"setup{i}")
            setup_times.append(seconds)
            setup_inputs.append(input_digests(work / f"setup{i}"))
        violations = [f"setup {i + 1}: inputs differ from setup 1"
                      for i, d in enumerate(setup_inputs) if d != setup_inputs[0]]

        if args.trace == 0:
            passes = []
            t0 = perf_counter()
            while len(passes) < MAX_PASSES:
                passes.append(run_pass(launcher, workload, work / f"pass{len(passes)}", "cli",
                                       run_id))
                elapsed = perf_counter() - t0
                if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > args.seconds:
                    break
            spans, startup = [], None
        else:
            startups = [probe(launcher, work)["wall_s"] for _ in range(STARTUP_REPEATS)]
            startup = statistics.median(startups)
            passes = [run_pass(launcher, workload, work / f"pass-{mode}", mode, run_id)
                      for mode in ("cli", "inproc", "traced")]
            spans = [s for name in COMMANDS
                     for s in passes[2]["commands"].get(name, {}).get("spans", [])]
            gaps, worst_gap = self_time_violations(spans)
            violations += gaps

        for i, p in enumerate(passes, start=1):
            violations += [f"pass {i} ({p['mode']}): {v}" for v in p["violations"]]
        key = {"workload": workload.name, "seed": args.seed, "sizes": sizes, "src": src_digest()}
        violations += compare_digests(workload, passes, key)
        attempted, failed = count_ops(passes, violations)

        if args.trace == 0:
            metrics = end_to_end(passes, setup_times)
        else:
            metrics = per_layer(spans, passes[0], passes[1], passes[2], startup)
        _summary(workload, passes, metrics, attempted, failed, violations)
        if args.trace == 1:
            print(f"  self-time sums match command spans within {worst_gap:.3g} s")

        records = WORK / "records"
        records.mkdir(parents=True, exist_ok=True)
        stem = f"{started_at.replace(':', '')}-{workload.name}-seed{args.seed}-trace{args.trace}"
        for p in passes:
            for r in p["commands"].values():
                r.pop("spans", None)
        record = {
            "run": run_id, "started_at": started_at, "workload": workload.name,
            "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
            "python": versions["python"], "numpy": versions["numpy"], "nproc": os.cpu_count(),
            "git_commit": git_commit(), "src_sha256": key["src"], "inputs": sizes,
            "setup_s": setup_times, "passes": passes, "violations": violations,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        (records / f"{stem}.json").write_text(json.dumps(record, indent=1))
        if spans:
            with open(records / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(s) + "\n" for s in spans)
    finally:
        if workload is not None:
            workload.close()
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
