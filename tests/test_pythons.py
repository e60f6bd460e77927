"""One output on every supported Python: a seeded walkthrough through every
offline command, and one `generate` against an in-process endpoint (so the
socket HTTP client runs on each), writes the same bytes under each CPython
>= 3.10 the test can find as under the one running the tests. Each run
starts as `python -S` with only the package on PYTHONPATH, so no
third-party package can load: the package needs none."""

import glob
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import curator

from conftest import completion_body
from helpers import DOWN, NONREG, UP, trace_text

SRC = os.path.dirname(os.path.dirname(curator.__file__))

STRATEGIES = ("per-class", "global", "random", "random-stratified")
WALKTHROUGH = [
    ["simulate", "bundles.jsonl", "--n", "240", "--k", "4", "--seed", "31"],
    ["simulate", "noisy.jsonl", "--n", "40", "--k", "2", "--seed", "32", "--independent-noise",
     "--class-scale", "up=3,down=2,nonreg=1"],
    ["score", "bundles.jsonl", "lexical.jsonl", "--provider", "lexical"],
    ["score", "bundles.jsonl", "answer.jsonl", "--provider", "answer"],
    *(["filter", "lexical.jsonl", f"{strategy}.jsonl", "--strategy", strategy,
       "--fraction", "0.3", "--seed", "33"] for strategy in STRATEGIES),
    ["evaluate", "per-class.jsonl", "report.json", "--resamples", "300", "--seed", "34"],
    ["stratify", "answer.jsonl", "deciles.csv"],
    ["sweep", "lexical.jsonl", "sweep.csv", "--fractions", "0.1,0.5,1.0"],
    ["export-sft", "per-class.jsonl", "sft.jsonl"],
]

QUERIES = "".join(json.dumps({"id": f"q{i}", "cell_type": "K562", "perturbation": f"P{i}",
                               "gene": f"G{i}"}) + "\n" for i in range(6))
GENERATE = ["generate", "queries.jsonl", "generated.jsonl", "--model", "m", "--k", "2",
            "--base-url"]


def complete(request):
    """A completion that depends only on the request: its user message and
    whether it asks for log-probabilities (the greedy request does)."""
    greedy = "logprobs" in request.body
    label = (UP, DOWN, NONREG)[(sum(map(ord, request.body["messages"][1]["content"])) + greedy) % 3]
    return 200, completion_body(trace_text(label), [-0.25, -0.5] if greedy else None)


#: Runs the walkthrough given as JSON in argv[1] in the working directory,
#: after checking that drawing a bundle imports nothing: simulate draws
#: after its output has opened, where an import can swallow a SIGTERM.
RUN = """import json, sys
from curator.cli import main
from curator.simulate import SimConfig, simulate_bundle
loaded = set(sys.modules)
simulate_bundle(SimConfig(n_examples=1), 0)
if set(sys.modules) != loaded:
    sys.exit("drawing a bundle imported %s" % sorted(set(sys.modules) - loaded))
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit("%s exited non-zero" % argv[0])
"""

#: Prints the implementation, major and minor version, version string and
#: executable; any Python, 2.7 included, runs it.
PROBE = ("import sys; print('%s %d %d %s %s' % (getattr(getattr(sys, 'implementation', sys), "
         "'name', '?'), sys.version_info[0], sys.version_info[1], sys.version.split()[0], "
         "sys.executable))")


def other_pythons() -> dict[str, str]:
    """Every CPython >= 3.10 other than the running one that starts, as
    {real path of its executable: its version}. It looks for python3.N in
    every PATH directory and for pyenv's versions/*/bin/python."""
    found = [path for directory in os.environ.get("PATH", "").split(os.pathsep)
             for path in glob.glob(os.path.join(directory, "python3.*"))
             if re.fullmatch(r"python3\.\d+", os.path.basename(path))]
    pyenv = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    found += glob.glob(os.path.join(pyenv, "versions", "*", "bin", "python"))
    pythons = {}
    for path in sorted(found):
        try:
            probe = subprocess.run([path, "-S", "-c", PROBE], capture_output=True, text=True,
                                   timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        fields = probe.stdout.strip().split(" ", 4)
        if probe.returncode != 0 or len(fields) != 5:
            continue
        name, major, minor, version, executable = fields
        if name == "cpython" and (int(major), int(minor)) >= (3, 10):
            pythons[os.path.realpath(executable)] = version
    pythons.pop(os.path.realpath(sys.executable), None)
    return pythons


def walkthrough(python: str, out, base_url: str) -> dict:
    """Run the walkthrough, generating from base_url, under `python -S` in a
    new directory out; return each artifact's SHA-256, and each manifest
    without the fields that name the time or the path it was written at."""
    out.mkdir()
    (out / "queries.jsonl").write_text(QUERIES, encoding="utf-8")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CURATOR_") and not k.lower().endswith("_proxy")}
    env["PYTHONPATH"] = SRC
    argvs = [*WALKTHROUGH, [*GENERATE, base_url]]
    done = subprocess.run([python, "-S", "-c", RUN, json.dumps(argvs)], cwd=out, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, f"{python}: {done.stderr}"
    artifacts = {}
    for path in sorted(out.iterdir()):
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(path.read_text(encoding="utf-8"))
            del manifest["created_at"], manifest["source_path"]
            artifacts[path.name] = manifest
        else:
            artifacts[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return artifacts


def test_every_python_writes_the_same_bytes(tmp_path, endpoint):
    pythons = other_pythons()
    if not pythons:
        pytest.skip("no CPython >= 3.10 other than the running one was found: "
                    "nothing to compare its output with")
    server = endpoint(complete)
    expected = walkthrough(sys.executable, tmp_path / "running", server.base_url)
    # the queries, fourteen outputs, and a manifest beside each of the ten datasets
    assert len(expected) == 25
    print(f"\n{sys.version.split()[0]} {sys.executable} against:")
    for i, (python, version) in enumerate(sorted(pythons.items())):
        print(f"  {version} {python}")
        assert walkthrough(python, tmp_path / str(i), server.base_url) == expected, python
    assert len(server.requests) == 6 * 3 * (1 + len(pythons))
