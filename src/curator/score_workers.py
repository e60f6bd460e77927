"""`score` with a local similarity provider, in forked worker processes.

The parent is the only reader of the input and the only writer of the
output. It cuts the input into chunks of whole lines, about CHUNK_CHARS
characters each. A worker decodes, validates, scores and encodes each
line of a chunk with the serial path's functions (storage.decode_line,
storage.record_to_bundle, uncertainty.score_dataset on that one bundle,
storage.dumps) and sends back, per line, the query id the line claims and
an outcome: an encoded row with its label, None for a rejected bundle, or
the CuratorError the line raised (MissingScoreInputs for a missing
input). The parent takes the outcomes in line order: it checks for a
duplicate id, raises the first error, writes the rows, and tallies
rejected and missing bundles. So the output, the manifest and the error a
run stops at are the serial path's, for any number of workers.

There is one worker per CPU this process may run on, and no setting. The
workers are forked with os.fork, not spawned: they inherit the input
path, the provider (which may be a proxy that cannot be pickled) and the
variant, and only chunks and outcomes cross their pipes, one pipe each
way per worker, each message a pickle. The parent runs no thread. Each
worker holds one chunk at a time, so a pipe holds at most one message and
neither end can block the other: the parent reads the reply of whichever
worker is ready and sends it the next chunk at once, while fewer than two
chunks per worker wait to be written. A reply ahead of line order waits
for its turn, so a slow chunk holds back a bounded number. A dead worker
is a CuratorError naming its pid and how it ended. A local provider
starts no thread either, so nothing is forked mid-operation; the remote
provider's thread pool must not be forked: it scores in cli.cmd_score.
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import sys
from collections import Counter
from contextlib import suppress
from typing import Any, BinaryIO, Iterator, NoReturn, TextIO

from . import storage
from .errors import CuratorError, MissingScoreInputs
from .model import MetricVariant
from .similarity import SimilarityProvider
from .uncertainty import ScoreStats, score_dataset

#: a chunk ends with the line that takes it to this many characters
CHUNK_CHARS = 1 << 15

Chunk = tuple[int, list[str]]  # (number of its first line, its lines)
Outcome = tuple[int, str | None, Any]  # (line number, claimed id, outcome)
Job = tuple[str, SimilarityProvider, MetricVariant]  # (input path, provider, variant)


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
    bytes, counts and errors. Every worker has been killed and reaped when
    this returns or raises, SIGTERM and Ctrl-C included, and on Linux
    every worker dies when this process is killed."""
    # a worker inherits the buffers of these, and must not write them again
    sys.stdout.flush()
    sys.stderr.flush()
    pool = _Pool()
    try:
        with storage.open_input(in_path) as fh:
            # the workers are forked after the input opens, before the output does
            for _ in range(usable_cpus()):
                pool.fork((in_path, provider, variant))
            return storage.write_dataset(out_path, _rows(in_path, pool.map(_chunks(fh)), stats))
    finally:
        pool.close()


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


def _rows(path: str, chunk_outcomes: Iterator[list[Outcome]],
          stats: ScoreStats) -> Iterator[tuple[str, Any]]:
    """The encoded rows, in line order, as the outcomes arrive."""
    seen: set[str] = set()
    for outcomes in chunk_outcomes:
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


class _Worker:
    """A forked worker and the parent's ends of its request and reply pipes."""

    def __init__(self, requests: BinaryIO, replies: BinaryIO):
        self.pid = 0  # 0 before the fork and once reaped
        self.requests, self.replies = requests, replies
        self.chunk = 0  # the number of the chunk it holds, counted from 0


class _Pool:
    """The parent's side of the workers, in one thread."""

    def __init__(self):
        self.workers: list[_Worker] = []
        self.selector = selectors.DefaultSelector()

    def fork(self, job: Job) -> None:
        requests, to_worker = os.pipe()
        from_worker, replies = os.pipe()
        worker = _Worker(open(to_worker, "wb"), open(from_worker, "rb"))
        self.workers.append(worker)
        self.selector.register(worker.replies, selectors.EVENT_READ, worker)
        parent = os.getpid()
        # no signal handler may run in the child before it is a worker
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        try:
            worker.pid = os.fork()
            if worker.pid == 0:
                os.close(to_worker)
                os.close(from_worker)
                _serve(parent, mask, requests, replies, job)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(requests)
            os.close(replies)

    def map(self, chunks: Iterator[Chunk]) -> Iterator[list[Outcome]]:
        """The outcomes of each chunk, in line order, as the workers reply."""
        early: dict[int, list[Outcome]] = {}  # replies ahead of line order
        idle, window, sent, taken = list(self.workers), 2 * len(self.workers), 0, 0
        while True:
            while taken in early:
                yield early.pop(taken)
                taken += 1
            # zip takes a chunk only once it has a worker and room in the window
            for worker, chunk in zip(idle[:window - (sent - taken)], chunks):
                try:
                    pickle.dump(chunk, worker.requests)
                    worker.requests.flush()
                except BrokenPipeError:
                    self._ended(worker)
                worker.chunk, sent = sent, sent + 1
                idle.remove(worker)
            if taken == sent:
                return
            for key, _ in self.selector.select():
                try:
                    early[key.data.chunk] = pickle.load(key.data.replies)
                except (EOFError, pickle.UnpicklingError):
                    self._ended(key.data)
                idle.append(key.data)

    def _ended(self, worker: _Worker) -> NoReturn:
        """Reap a worker whose pipe closed, and say how it ended."""
        pid, worker.pid = worker.pid, 0
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise CuratorError(f"score worker {pid} {how}")

    def close(self) -> None:
        """Kill and reap every worker, and close its pipes."""
        self.selector.close()
        for worker in self.workers:
            if worker.pid:
                os.kill(worker.pid, signal.SIGKILL)
                os.waitpid(worker.pid, 0)
            worker.replies.close()
            with suppress(BrokenPipeError):  # a request cut short has no reader left
                worker.requests.close()


def _serve(parent: int, mask: set, requests: int, replies: int, job: Job) -> NoReturn:
    """A worker's life: score each chunk that arrives on requests and send
    its outcomes back on replies, until requests closes. It leaves only by
    os._exit, so none of the parent's cleanup runs here."""
    status = 1
    try:
        # Ctrl-C and the SIGTERM handler (cli.entry) are for the parent alone
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if sys.platform.startswith("linux"):
            # the kernel sends SIGKILL when the thread that forked this worker
            # ends: the parent's main thread, its only one
            import ctypes

            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
            prctl.restype = ctypes.c_int
            prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
        if os.getppid() == parent:  # else the parent died before the request was made
            inbox, outbox = open(requests, "rb"), open(replies, "wb")
            while inbox.peek(1):  # empty once the parent closes the pipe
                pickle.dump(_score_chunk(job, *pickle.load(inbox)), outbox)
                outbox.flush()
            status = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


def _score_chunk(job: Job, first: int, lines: list[str]) -> list[Outcome]:
    """The outcome of every non-blank line in the chunk."""
    path, provider, variant = job
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
