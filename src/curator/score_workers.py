"""`score` with a local similarity provider, in forked worker processes.

The parent is the only reader of the input and the only writer of the
output. It cuts the input into chunks of whole lines, about CHUNK_CHARS
characters each, and keeps at most two chunks per worker in flight, so its
memory does not grow with the input. A worker decodes, validates, scores
and encodes each line of a chunk with the serial path's functions
(storage.decode_line, storage.record_to_bundle, uncertainty.score_dataset
on that one bundle, storage.dumps) and sends back, per line, the query id
the line claims and an outcome: an encoded row with its label, None for a
rejected bundle, or the CuratorError the line raised (MissingScoreInputs
for a missing input). The parent takes the outcomes in line order: it
checks for a duplicate id, raises the first error, writes the rows, and
tallies rejected and missing bundles. So the output, the manifest and the
error a run stops at are the serial path's, for any number of workers.

There is one worker per CPU this process may run on, and no setting. The
workers are forked, not spawned: they inherit the input path, the
provider (which may be a proxy that cannot be pickled) and the variant,
and only lines and outcomes cross the pipe. A local provider starts no
thread, so nothing is forked mid-operation; the remote provider, whose
thread pool must not be forked, scores in the parent (cli.cmd_score).
"""

from __future__ import annotations

import os
import signal
import sys
from collections import Counter, deque
from concurrent.futures import Future, ProcessPoolExecutor
from itertools import islice
from multiprocessing import active_children, get_context
from typing import Any, Iterator, TextIO

from . import storage
from .errors import CuratorError, MissingScoreInputs
from .model import MetricVariant
from .similarity import SimilarityProvider
from .uncertainty import ScoreStats, score_dataset

#: a chunk ends with the line that takes it to this many characters
CHUNK_CHARS = 1 << 17

Chunk = tuple[int, list[str]]  # (number of its first line, its lines)
Outcome = tuple[int, str | None, Any]  # (line number, claimed id, outcome)


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def score_file(in_path: str, out_path: str, provider: SimilarityProvider,
               variant: MetricVariant, stats: ScoreStats) -> Counter:
    """storage.write_scored(out_path, score_dataset(read_bundles(in_path),
    provider, variant, stats)), computed in worker processes: the same
    bytes, counts and errors. Every worker has exited when this returns or
    raises, and on Linux when this process is killed.

    On SIGTERM or Ctrl-C the workers are killed and the pool is not
    joined: the signal may have left a future's lock held (bpo-29988), on
    which the pool's manager thread blocks for good. cli.entry then ends a
    SIGTERMed run by the signal, which waits for no thread."""
    workers = usable_cpus()
    # a worker flushes its copies of these when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    pool = ProcessPoolExecutor(workers, get_context("fork"), initializer=_start_worker,
                               initargs=(os.getpid(), in_path, provider, variant))
    join = True
    try:
        with storage.open_input(in_path) as fh:
            chunks = _chunks(fh)
            # the first submit forks every worker, before the output is opened
            in_flight = deque(pool.submit(_score_chunk, *chunk)
                              for chunk in islice(chunks, 2 * workers))
            return storage.write_dataset(
                out_path, _rows(in_path, pool, chunks, in_flight, stats)
            )
    except BaseException as exc:
        join = isinstance(exc, Exception)
        raise
    finally:
        pool.shutdown(wait=join, cancel_futures=True)
        if not join:
            for worker in active_children():
                worker.kill()
                worker.join()


def _chunks(fh: TextIO) -> Iterator[Chunk]:
    first, lines, size = 1, [], 0
    for lineno, line in enumerate(fh, start=1):
        lines.append(line)
        size += len(line)
        if size >= CHUNK_CHARS:
            yield first, lines
            first, lines, size = lineno + 1, [], 0
    if lines:
        yield first, lines


def _rows(path: str, pool: ProcessPoolExecutor, chunks: Iterator[Chunk],
          in_flight: deque[Future], stats: ScoreStats) -> Iterator[tuple[str, Any]]:
    """The encoded rows, in line order, as the outcomes arrive; one chunk
    is submitted for each one taken, so the number in flight stays put."""
    seen: set[str] = set()
    while in_flight:
        outcomes: list[Outcome] = in_flight.popleft().result()
        chunk = next(chunks, None)
        if chunk is not None:
            in_flight.append(pool.submit(_score_chunk, *chunk))
        for lineno, qid, outcome in outcomes:
            storage.check_new_id(seen, qid, path, lineno)
            if isinstance(outcome, MissingScoreInputs):
                stats.add_missing(outcome.ids, outcome.reason)
            elif isinstance(outcome, CuratorError):
                raise outcome
            elif outcome is None:
                stats.rejected += 1
            else:
                yield outcome
    stats.raise_missing()


# set in each worker process, from the parent's arguments, by _start_worker
_job: tuple[str, SimilarityProvider, MetricVariant]


def _start_worker(parent: int, path: str, provider: SimilarityProvider,
                  variant: MetricVariant) -> None:
    global _job
    if sys.platform.startswith("linux"):
        # the kernel sends SIGKILL when the thread that forked this worker
        # ends: the fork context forks on the first submit, in the main thread
        import ctypes

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
        prctl.restype = ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:  # the parent died before the request was made
        os._exit(1)
    _job = path, provider, variant
    # the parent's SIGTERM handler (cli.entry) is for the parent alone
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _score_chunk(first: int, lines: list[str]) -> list[Outcome]:
    """The outcome of every non-blank line in the chunk."""
    path, provider, variant = _job
    outcomes = []
    for lineno, line in enumerate(lines, start=first):
        qid = None
        try:
            decoded = storage.decode_line(path, lineno, line)
            if decoded is None:
                continue
            ctx, obj, qid = decoded
            bundle, _ = storage.record_to_bundle(obj, ctx)
            scored = list(score_dataset((bundle,), provider, variant))
        except CuratorError as exc:
            outcomes.append((lineno, qid, exc))
            continue
        if scored:
            ex = scored[0]
            outcome = storage.dumps(storage.scored_to_record(ex)), ex.bundle.greedy.answer
        else:
            outcome = None
        outcomes.append((lineno, qid, outcome))
    return outcomes
