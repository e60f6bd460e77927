"""Small long-lived process that starts the benchmark's child processes.

    python3 bench/launcher.py

Reads one JSON request per line on stdin:
    {"argv": [...], "cwd": dir, "env": {...}, "stdout": path, "stderr": path,
     "timeout_s": seconds}
and answers one JSON line on stdout:
    {"exit": code, "wall_s": seconds, "peak_rss_mb": MB}

Why a separate process: on Linux a child's peak RSS (ru_maxrss from
os.wait4) starts from the RSS of the process it was forked from, so
children started by the benchmark itself, which holds parsed outputs and
the mocks' tables, would all report at least the benchmark's own size.
This process imports little and stays around 10 MB, so that floor stays
far below any curator command. Children are started with posix_spawn and
killed after timeout_s.
"""

import json
import os
import signal
import sys
import threading
from time import perf_counter


def _run(req: dict) -> dict:
    os.chdir(req["cwd"])
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req.get("stdout") or os.devnull,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
    ]
    t0 = perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
    timer = threading.Timer(req["timeout_s"], os.kill, (pid, signal.SIGKILL))
    timer.start()
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - t0
    timer.cancel()
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(_run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
