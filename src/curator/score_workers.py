"""`score` with a local similarity provider, in forked worker processes.

The parent is the only reader of the input and the only writer of the
output. It cuts the input into chunks of whole lines, about CHUNK_CHARS
characters each, and keeps two chunks per worker in flight, so its memory
does not grow with the input. A worker decodes, validates, scores and
encodes each line of a chunk with the serial path's functions
(storage.decode_line, storage.record_to_bundle, uncertainty.score_dataset
on that one bundle, storage.dumps) and sends back, per line, the query id
the line claims and an outcome: an encoded row with its label, None for a
rejected bundle, or the CuratorError the line raised (MissingScoreInputs
for a missing input). The parent takes the outcomes in line order: it
checks for a duplicate id, raises the first error, writes the rows, and
tallies rejected and missing bundles. So the output, the manifest and the
error a run stops at are the serial path's, for any number of workers.

There is one worker per CPU this process may run on, and no setting. The
workers are forked with os.fork, not spawned: they inherit the input path,
the provider (which may be a proxy that cannot be pickled) and the
variant, and only chunks and outcomes cross their pipes, one pipe each
way per worker, each message an 8-byte length and a pickle. The parent
runs no thread: it sends each chunk to the worker with the fewest
requests outstanding, writes without blocking, and reads every worker's
replies while it waits for the next one in line order, so a message
larger than a pipe's buffer cannot deadlock the two ends. A worker that
dies is a CuratorError naming its pid and how it ended. A local provider
starts no thread either, so nothing is forked mid-operation; the remote
provider, whose thread pool must not be forked, scores in the parent
(cli.cmd_score).
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import sys
from collections import Counter, deque
from itertools import islice
from typing import Any, Iterator, NoReturn, TextIO

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
            chunks = _chunks(fh)
            for chunk in islice(chunks, 2 * len(pool.workers)):
                pool.send(chunk)
            return storage.write_dataset(out_path, _rows(in_path, pool, chunks, stats))
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


def _rows(path: str, pool: _Pool, chunks: Iterator[Chunk],
          stats: ScoreStats) -> Iterator[tuple[str, Any]]:
    """The encoded rows, in line order, as the outcomes arrive; one chunk
    is sent for each one taken, so the number in flight stays put."""
    seen: set[str] = set()
    while pool.in_flight:
        outcomes = pool.take()
        chunk = next(chunks, None)
        if chunk is not None:
            pool.send(chunk)
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

    def __init__(self, requests: int, replies: int):
        self.pid = 0  # 0 before the fork and once reaped
        self.requests, self.replies = requests, replies
        self.unsent = bytearray()  # framed requests the pipe has not taken yet
        self.received = bytearray()  # reply bytes short of a whole reply
        self.done: deque[bytearray] = deque()  # whole replies, oldest first
        self.outstanding = 0  # requests sent and not yet answered


class _Pool:
    """The parent's side of the workers, in one thread."""

    def __init__(self):
        self.workers: list[_Worker] = []
        self.in_flight: deque[_Worker] = deque()  # the worker of each chunk, in line order
        self.selector = selectors.DefaultSelector()

    def fork(self, job: Job) -> None:
        requests, to_worker = os.pipe()
        from_worker, replies = os.pipe()
        worker = _Worker(to_worker, from_worker)
        self.workers.append(worker)
        self.selector.register(from_worker, selectors.EVENT_READ, worker)
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
        os.set_blocking(to_worker, False)

    def send(self, chunk: Chunk) -> None:
        """Queue chunk to the worker with the fewest requests outstanding."""
        worker = min(self.workers, key=lambda w: w.outstanding)
        request = pickle.dumps(chunk)
        worker.unsent += len(request).to_bytes(8, "little")
        worker.unsent += request
        worker.outstanding += 1
        self.in_flight.append(worker)
        self._write(worker)

    def take(self) -> list[Outcome]:
        """The outcomes of the oldest chunk in flight. Waiting for them, it
        writes and reads whatever pipe is ready, so no worker stays blocked
        on a full pipe."""
        worker = self.in_flight.popleft()
        while not worker.done:
            for key, _ in self.selector.select():
                if key.fd == key.data.requests:
                    self._write(key.data)
                else:
                    self._read(key.data)
        return pickle.loads(worker.done.popleft())

    def _write(self, worker: _Worker) -> None:
        try:
            del worker.unsent[:os.write(worker.requests, worker.unsent)]
        except BlockingIOError:
            pass
        except BrokenPipeError:
            self._ended(worker)
        waiting = worker.requests in self.selector.get_map()
        if worker.unsent and not waiting:
            self.selector.register(worker.requests, selectors.EVENT_WRITE, worker)
        elif waiting and not worker.unsent:
            self.selector.unregister(worker.requests)

    def _read(self, worker: _Worker) -> None:
        data = os.read(worker.replies, 1 << 16)
        if not data:
            self._ended(worker)
        worker.received += data
        while len(worker.received) >= 8:
            end = 8 + int.from_bytes(worker.received[:8], "little")
            if len(worker.received) < end:
                break
            worker.done.append(worker.received[8:end])
            del worker.received[:end]
            worker.outstanding -= 1

    def _ended(self, worker: _Worker) -> NoReturn:
        """Reap a worker whose pipe closed, and say how it ended."""
        pid, worker.pid = worker.pid, 0
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise CuratorError(f"score worker {pid} {how}")

    def close(self) -> None:
        """Close every pipe, then kill and reap every worker."""
        self.selector.close()
        for worker in self.workers:
            os.close(worker.requests)
            os.close(worker.replies)
        for worker in self.workers:
            if worker.pid:
                os.kill(worker.pid, signal.SIGKILL)
                os.waitpid(worker.pid, 0)


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
            while header := inbox.read(8):
                chunk = pickle.loads(inbox.read(int.from_bytes(header, "little")))
                reply = pickle.dumps(_score_chunk(job, *chunk))
                outbox.write(len(reply).to_bytes(8, "little"))
                outbox.write(reply)
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
