"""Exception hierarchy shared across the curation pipeline.

Everything raised on purpose derives from CuratorError so the CLI can map
failures onto exit codes in one place. Value-level misuse of constructors
(bad temperatures, inconsistent fields, a string that is not a class
label) raises plain ValueError instead.
"""

from __future__ import annotations


class CuratorError(Exception):
    """Base class for all pipeline errors."""


class UnparsedTrace(CuratorError):
    """An operation needed a parsed answer but the trace has none."""


class EmptyLogProbs(CuratorError):
    """Perplexity was requested for a trace without token log-probabilities."""


class MissingScoreInputs(CuratorError):
    """Scoreable bundles lacked inputs required by the metric variant."""

    def __init__(self, ids: list[str], reason: str):
        self.ids = list(ids)
        self.reason = reason
        shown = ", ".join(self.ids[:20])
        if len(self.ids) > 20:
            shown += f", ... ({len(self.ids)} total)"
        super().__init__(f"{reason} for query ids: {shown}")

    def __reduce__(self):  # unpickled from a score worker
        return type(self), (self.ids, self.reason)


class EndpointError(CuratorError):
    """The generation endpoint or the remote scorer refused a request, sent
    a malformed response or stayed unreachable."""


class InvalidConfig(CuratorError):
    """The config file or the environment is malformed (not a JSON object,
    an unknown section, key or CURATOR_ variable); a bad value is a UsageError."""


class JsonlFormatError(CuratorError):
    """A dataset file violates its schema; carries the failing line."""

    def __init__(self, path: str, lineno: int, message: str):
        self.path = path
        self.lineno = lineno
        self.message = message
        super().__init__(f"{path}:{lineno}: {message}")

    def __reduce__(self):  # unpickled from a score worker
        return type(self), (self.path, self.lineno, self.message)


class UsageError(CuratorError):
    """Bad command-line or config usage; maps to exit code 64."""
