"""One output on every supported Python: a seeded walkthrough through every
offline command writes the same bytes under each CPython >= 3.10 the test
can find as under the one running the tests. Each run starts as
`python -S` with only the package on PYTHONPATH, so no third-party package
can load: the package needs none."""

import glob
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import curator

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


def walkthrough(python: str, out) -> dict:
    """Run the walkthrough under `python -S` in a new directory out; return
    each artifact's SHA-256, and each manifest without the fields that name
    the time or the path it was written at."""
    out.mkdir()
    env = {k: v for k, v in os.environ.items() if not k.startswith("CURATOR_")}
    env["PYTHONPATH"] = SRC
    done = subprocess.run([python, "-S", "-c", RUN, json.dumps(WALKTHROUGH)], cwd=out, env=env,
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


def test_every_python_writes_the_same_bytes(tmp_path):
    pythons = other_pythons()
    if not pythons:
        pytest.skip("no CPython >= 3.10 other than the running one was found: "
                    "nothing to compare its output with")
    expected = walkthrough(sys.executable, tmp_path / "running")
    assert len(expected) == 21  # twelve outputs, and a manifest beside each of the nine datasets
    print(f"\n{sys.version.split()[0]} {sys.executable} against:")
    for i, (python, version) in enumerate(sorted(pythons.items())):
        print(f"  {version} {python}")
        assert walkthrough(python, tmp_path / str(i)) == expected, python
