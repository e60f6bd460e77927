"""Each command loads only the modules it uses: nothing heavy at import,
no numpy in any command (the package draws every random stream from the
standard library), the HTTP client only for generate and remote score, and
the worker pool (`curator.score_workers`, which needs neither
`multiprocessing` nor `concurrent.futures.process`) only for score with a
local provider. OpenSSL (`_hashlib`, `_ssl`) and `_datetime` come only
with the HTTP client: the config hash uses the interpreter's own SHA-256
and the manifest clock uses `time`. The traced bench finds every name it
wraps."""

import json
import os
import subprocess
import sys

import pytest

import curator
from curator.storage import write_scored

from conftest import completion_body
from helpers import DOWN, NONREG, UP, mk_scored, trace_text

SRC = os.path.dirname(os.path.dirname(curator.__file__))
BENCH = os.path.join(os.path.dirname(SRC), "bench")

HEAVY = ("numpy", "numpy.ma", "requests", "urllib.request", "http.client",
         "_hashlib", "_ssl", "_datetime", "multiprocessing", "concurrent.futures.process",
         "concurrent.futures.thread")
#: what the HTTP client loads of HEAVY, for generate and remote score alone
HTTP = ["urllib.request", "http.client", "_hashlib", "_ssl", "_datetime",
        "concurrent.futures.thread"]
POOL = ("curator.score_workers",)


def loaded_after(code: str, modules: tuple[str, ...] = HEAVY) -> dict:
    """Run code in a fresh interpreter; return which of modules it left
    loaded, with whatever `rc` the code set."""
    probe = (f"import json, sys\nrc = None\n{code}\n"
             f"print(json.dumps({{'rc': rc, 'loaded': [m for m in {modules!r} if m in sys.modules]}}))")
    env = {k: v for k, v in os.environ.items() if not k.startswith("CURATOR_")}
    env["PYTHONPATH"] = SRC
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_heavy_module():
    assert loaded_after("import curator.cli") == {"rc": None, "loaded": []}


@pytest.fixture
def scored(tmp_path) -> str:
    path = str(tmp_path / "scored.jsonl")
    labels = (UP, DOWN, NONREG)
    write_scored(path, [mk_scored(i, labels[i % 3], float(i), gold=labels[i // 3 % 3])
                        for i in range(30)])
    return path


@pytest.mark.parametrize("argv", [
    ["score", "{scored}", "{out}"],
    ["score", "{scored}", "{out}", "--provider", "answer"],
    ["filter", "{scored}", "{out}"],
    ["export-sft", "{scored}", "{out}"],
    ["evaluate", "{scored}", "{out}", "--resamples", "10"],
    ["stratify", "{scored}", "{out}"],
    ["sweep", "{scored}", "{out}", "--fractions", "0.5,1.0"],
    ["simulate", "{out}", "--n", "3"],
], ids=["score", "score-answer", "filter", "export-sft", "evaluate", "stratify", "sweep",
        "simulate"])
def test_a_command_loads_numpy_only_if_it_computes_with_it(tmp_path, scored, argv):
    # none computes with it, and none of these offline commands loads OpenSSL
    argv = [a.format(scored=scored, out=tmp_path / "out") for a in argv]
    code = f"from curator.cli import main\nrc = main({argv!r})"
    assert loaded_after(code) == {"rc": 0, "loaded": []}


def test_generate_loads_the_http_client_but_not_numpy(tmp_path, endpoint):
    server = endpoint(lambda request: (200, completion_body(trace_text(UP), [-0.5])))
    queries = tmp_path / "queries.jsonl"
    queries.write_text('{"id": "q", "cell_type": "K562", "perturbation": "A", "gene": "B"}\n',
                       encoding="utf-8")
    argv = ["generate", str(queries), str(tmp_path / "out"), "--base-url", server.base_url,
            "--model", "m", "--k", "1"]
    code = f"from curator.cli import main\nrc = main({argv!r})"
    assert loaded_after(code) == {"rc": 0, "loaded": HTTP}
    assert len(server.requests) == 2


def test_only_score_with_a_local_provider_loads_the_worker_pool(tmp_path, scored, endpoint):
    assert loaded_after("import curator.cli", POOL) == {"rc": None, "loaded": []}
    server = endpoint(lambda request: (200, {"scores": [0.5] * len(request.body["pairs"])}))
    out = str(tmp_path / "out")
    # remote score loads the HTTP client (and OpenSSL) in place of the pool
    for flags, loaded in [(["--provider", "remote", "--scorer-url", server.base_url], HTTP),
                          (["--provider", "lexical"], list(POOL))]:
        code = f"from curator.cli import main\nrc = main({['score', scored, out, *flags]!r})"
        assert loaded_after(code, POOL + HEAVY) == {"rc": 0, "loaded": loaded}
    assert len(server.requests) == 1


def test_the_traced_bench_finds_every_name_it_wraps():
    # bench/spans.py replaces names in the curator's modules with timing
    # wrappers: renaming or deleting one of them under src/ fails here
    code = f"sys.path.insert(0, {BENCH!r})\nimport spans\nspans.install(spans.Tracer('r', 's'))"
    assert loaded_after(code)["rc"] is None
