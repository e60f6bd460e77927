"""Run one curator command inside this interpreter, traced or not.

    python3 bench/inproc.py <trace 0|1> <run id> <command name> <curator argv...>

Imports `curator.cli` first (the import is not timed), then calls
`curator.cli.main(argv)` with the same argv the CLI would get. With trace 1
the curator's public functions are wrapped by `spans.install` and the call
is the root span `cli.<command>`. The command's own stdout is discarded;
the last line printed is one JSON object with the exit code, the wall time
of `main` and the spans.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from time import perf_counter


def main() -> int:
    trace, run_id, command, argv = sys.argv[1] == "1", sys.argv[2], sys.argv[3], sys.argv[4:]
    import curator.cli as cli

    tracer = root = None
    if trace:
        from spans import Tracer, install

        tracer = Tracer(run_id, command + "/")
        install(tracer)
        root = tracer.new("cli." + command)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = perf_counter()
        if tracer is None:
            rc = cli.main(argv)
        else:
            s0 = tracer.enter(root)
            try:
                rc = cli.main(argv)
            finally:
                tracer.leave(root, s0)
        wall = perf_counter() - t0
    result = {
        "exit": rc,
        "wall_s": wall,
        "spans": tracer.export() if tracer else [],
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
