"""Span recorder for the benchmark's traced run.

Nothing under `src/` knows about it: `install` replaces public names of
the curator's modules *where they are looked up* (for example
`curator.cli.score_dataset`, `curator.storage.read_scored`,
`curator.filtering.apply_filter`) with timing wrappers, and wraps the
provider returned by `get_provider` in a timing proxy.

Timing model: a span is busy while the call it wraps runs; for an iterator
(the readers, the scorer, the simulator) that is the time spent inside
`next()`, and for an output file the time spent inside `write`, open and
close. Every busy interval is charged to the span that was innermost on
the same thread's stack when it started, so a span's self time (busy minus
the busy time of its children) never counts time twice, and the self
times of one thread's spans add up to its root span. Spans opened on
worker threads (the generation client's pool) are roots of their own and
overlap the main thread's time.

Spans live in memory with the run id and the parent span's id; `export`
hands them over once, when the command ends.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from time import perf_counter


class Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end", "busy", "child", "items", "attrs")

    def __init__(self, sid: str, name: str, thread: str):
        self.id = sid
        self.name = name
        self.thread = thread
        self.parent = None
        self.start = None
        self.end = None
        self.busy = 0.0
        self.child = 0.0
        self.items = 0
        self.attrs: dict = {}


class Tracer:
    def __init__(self, run_id: str, prefix: str):
        self.run_id = run_id
        self.prefix = prefix
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def new(self, name: str, **attrs) -> Span:
        thread = "main" if threading.current_thread() is threading.main_thread() else "worker"
        span = Span(f"{self.prefix}{next(self._ids)}", name, thread)
        span.attrs.update(attrs)
        self.spans.append(span)
        return span

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, span: Span) -> float:
        stack = self._stack()
        first = span.start is None
        if first:
            span.parent = stack[-1].id if stack else None
        stack.append(span)
        t0 = perf_counter()
        if first:
            span.start = t0
        return t0

    def leave(self, span: Span, t0: float) -> None:
        t1 = perf_counter()
        dt = t1 - t0
        stack = self._stack()
        stack.pop()
        span.busy += dt
        span.end = t1
        if stack:
            stack[-1].child += dt

    def wrap_call(self, name: str, fn, attrs_of=None):
        """Time every call of fn as one span; attrs_of(args, kwargs) adds
        attributes (callables are evaluated at export)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.new(name)
            if attrs_of is not None:
                span.attrs.update(attrs_of(args, kwargs))
            t0 = self.enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(span, t0)

        return traced

    def wrap_iter(self, name: str, fn, attrs_of=None):
        """Time the iterator fn returns: one span, busy inside next()."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.new(name)
            if attrs_of is not None:
                span.attrs.update(attrs_of(args, kwargs))
            return _TracedIter(self, span, iter(fn(*args, **kwargs)))

        return traced

    def export(self) -> list[dict]:
        out = []
        for s in self.spans:
            attrs = {k: (v() if callable(v) else v) for k, v in s.attrs.items()}
            out.append({
                "run": self.run_id,
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "thread": s.thread,
                "start": s.start,
                "end": s.end,
                "busy": s.busy,
                "self": s.busy - s.child,
                "items": s.items,
                "attrs": attrs,
            })
        return out


class _TracedIter:
    def __init__(self, tracer: Tracer, span: Span, it):
        self._tracer = tracer
        self._span = span
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        t0 = self._tracer.enter(self._span)
        try:
            item = next(self._it)
        finally:
            self._tracer.leave(self._span, t0)
        self._span.items += 1
        return item


class _TimedWriter:
    """File proxy whose writes are busy time of the output's span."""

    def __init__(self, tracer: Tracer, span: Span, fh):
        self._tracer = tracer
        self._span = span
        self._fh = fh

    def write(self, s):
        t0 = self._tracer.enter(self._span)
        try:
            return self._fh.write(s)
        finally:
            self._tracer.leave(self._span, t0)

    def __getattr__(self, attr):
        return getattr(self._fh, attr)


class _TracedOutput:
    """Context manager standing in for storage.open_output(path)."""

    def __init__(self, tracer: Tracer, open_output, path: str):
        self._tracer = tracer
        self._cm = open_output(path)
        self._path = path
        self._span = tracer.new("storage.write.io", path=path)

    def __enter__(self):
        t0 = self._tracer.enter(self._span)
        try:
            fh = self._cm.__enter__()
        finally:
            self._tracer.leave(self._span, t0)
        return _TimedWriter(self._tracer, self._span, fh)

    def __exit__(self, *exc):
        t0 = self._tracer.enter(self._span)
        try:
            return self._cm.__exit__(*exc)
        finally:
            self._tracer.leave(self._span, t0)
            if self._path != "-" and os.path.exists(self._path):
                self._span.attrs["bytes"] = os.path.getsize(self._path)


class _TimedProvider:
    """Proxy around a similarity provider; each batch call is a span named
    after the provider, carrying its pair count."""

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner
        self.name = inner.name

    def score(self, a, b):
        return self._timed("score", 1, a, b)

    def score_many(self, pairs):
        return self._timed("score_many", len(pairs), pairs)

    def _timed(self, method, n_pairs, *args):
        span = self._tracer.new("similarity." + self.name, pairs=n_pairs)
        t0 = self._tracer.enter(span)
        try:
            return getattr(self._inner, method)(*args)
        finally:
            self._tracer.leave(span, t0)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _input_bytes(args, kwargs):
    path = _arg(args, kwargs, 0, "path")
    return {"path": path, "bytes": os.path.getsize(path) if path != "-" else 0}


def install(tracer: Tracer) -> None:
    """Wrap the curator's public functions where the CLI looks them up."""
    import curator.cli as cli
    from curator import filtering, llm_client, storage, uncertainty

    def patch(module, attr, wrap, name, attrs_of=None):
        setattr(module, attr, wrap(name, getattr(module, attr), attrs_of))

    c, it = tracer.wrap_call, tracer.wrap_iter
    for attr in ("read_bundles", "read_records", "read_scored", "read_queries"):
        patch(storage, attr, it, "storage.read." + attr, _input_bytes)
    for attr in ("write_scored", "dumps", "bundle_to_record", "scored_to_record"):
        patch(storage, attr, c, "storage.write." + attr)
    patch(storage, "write_manifest", c, "storage.manifest.write_manifest")
    open_output = storage.open_output
    storage.open_output = lambda path: _TracedOutput(tracer, open_output, path)

    patch(cli, "simulate_dataset", it, "simulate.simulate_dataset")
    patch(cli, "score_dataset", it, "uncertainty.score_dataset",
          lambda a, k: {"rejected": lambda s=_arg(a, k, 4, "stats"): getattr(s, "rejected", 0)})
    for attr in ("score_bundle", "perplexity", "inconsistency"):
        patch(uncertainty, attr, c, "uncertainty." + attr)
    get_provider = cli.get_provider
    cli.get_provider = lambda *a, **k: _TimedProvider(tracer, get_provider(*a, **k))

    traced_filter = c("filtering.apply_filter", filtering.apply_filter,
                      lambda a, k: {"examples": len(a[0])})
    cli.apply_filter = filtering.apply_filter = traced_filter
    patch(cli, "decile_stratify", c, "filtering.decile_stratify",
          lambda a, k: {"examples": len(a[0])})
    patch(cli, "pairs_from_scored", c, "metrics.pairs_from_scored")
    patch(cli, "evaluate", c, "metrics.evaluate",
          lambda a, k: {"examples": len(a[0]), "resamples": _arg(a, k, 1, "n_resamples")})
    patch(cli, "subset_quality_sweep", c, "metrics.subset_quality_sweep",
          lambda a, k: {"examples": len(a[0]), "fractions": len(a[1])})

    patch(cli, "generate_dataset", it, "llm_client.generate_dataset",
          lambda a, k: {"usage": _arg(a, k, 2, "counters").snapshot})
    patch(llm_client, "generate_bundle", c, "llm_client.generate_bundle")
    patch(cli, "sft_record", c, "llm_client.sft_record")
