"""Exception hierarchy for the repro (Zenesis reproduction) library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch the whole family with one clause while still discriminating on the
specific failure mode.  :func:`error_record` is the one structured form of
an error that the API, the HTTP server, failed jobs and the CLI report.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (shape, dtype, range, or enum value)."""


class FormatError(ReproError, ValueError):
    """A byte stream is not a valid instance of the declared file format."""


class CodecError(FormatError):
    """A file is syntactically valid but uses an unsupported encoding."""


class UnknownFormatError(FormatError):
    """A byte stream matches no known format signature.

    ``reason`` distinguishes an empty (zero-byte) file from content whose
    magic bytes match nothing — the upload path reports them differently.
    """

    def __init__(self, message: str, *, reason: str = "unknown_magic") -> None:
        super().__init__(message)
        self.reason = reason


class CorruptTileError(FormatError):
    """One tile (slice/page) of a streamed volume failed validation.

    ``kind`` classifies the damage:

    * ``"torn"``       — truncated tail: the file ends before the tile's
      declared bytes (power cut / interrupted transfer).
    * ``"flip"``       — the tile decoded structurally but its checksum
      disagrees with the sidecar manifest (bit rot / bad DMA).
    * ``"unreadable"`` — the tile's metadata or encoding is malformed
      (corrupt IFD entry, bad zlib stream, shape mismatch).

    ``salvage`` optionally carries a best-effort decode (e.g. a torn tile
    zero-filled to full shape) for the ``on_corrupt="degrade"`` policy.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "unreadable",
        tile: int | None = None,
        path: str | None = None,
        salvage=None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.tile = tile
        self.path = path
        self.salvage = salvage


class ModelConfigError(ReproError, ValueError):
    """A model was constructed with an inconsistent configuration."""


class PromptError(ReproError, ValueError):
    """A segmentation prompt is malformed or inconsistent with the image."""


class PipelineError(ReproError, RuntimeError):
    """A pipeline stage failed in a way that invalidates downstream stages."""


class GroundingError(PipelineError):
    """The grounding stage produced no usable boxes for the given prompt."""


class EvaluationError(ReproError, RuntimeError):
    """Metric evaluation was requested on incompatible inputs."""


class SessionError(ReproError, RuntimeError):
    """A platform session was driven through an invalid state transition."""


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint manifest or mask shard is unusable for resume.

    Raised when a resume is requested against a manifest whose fingerprint
    does not match the current (volume, prompt, config) triple, or when a
    shard referenced by the manifest cannot be read back.
    """


class RetryExhaustedError(ReproError, RuntimeError):
    """A :class:`repro.resilience.RetryPolicy` ran out of attempts.

    The final underlying exception is attached as ``__cause__`` so callers
    can still discriminate on the original failure mode.
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """A :class:`repro.resilience.Deadline` budget was exhausted mid-operation."""


class JobError(ReproError, RuntimeError):
    """A background job could not be submitted, scheduled, or executed."""


class UnknownJobError(JobError):
    """A job id does not resolve to any job the store has ever journaled."""


class JobCancelledError(JobError):
    """A job observed its cooperative cancel flag and stopped cleanly.

    Raised from inside the job's execution path (via the request-deadline
    machinery) so the runner can mark the record ``cancelled`` rather than
    ``failed``.
    """


class ZooError(ReproError, RuntimeError):
    """The model-zoo registry or batch orchestrator was misused or misread.

    Covers malformed ``zoo.json`` overlays, invalid preset definitions, and
    batch-level orchestration failures that are not attributable to a single
    job (those surface as :class:`JobError` on the job record instead).
    """


class UnknownPresetError(ZooError):
    """A preset name does not resolve to any registry entry.

    ``known`` carries the sorted names the registry does hold so CLI and
    platform callers can render an actionable structured error instead of a
    ``KeyError`` traceback.
    """

    def __init__(self, message: str, *, known: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.known = tuple(known)


class EmptyBatchError(ZooError):
    """A batch submission found zero recognizable volumes in the directory.

    ``skipped`` lists ``(name, reason)`` pairs for entries that were present
    but rejected by the sniffers, so the error distinguishes "empty folder"
    from "folder full of unreadable files".
    """

    def __init__(self, message: str, *, skipped: tuple[tuple[str, str], ...] = ()) -> None:
        super().__init__(message)
        self.skipped = tuple(skipped)


class UnknownSessionError(SessionError):
    """A session id does not resolve to a live session.

    ``evicted_reason`` distinguishes ids the store never issued (``None``)
    from sessions it evicted (``"ttl"`` / ``"capacity"``), so the API can
    tell a client to recreate its workspace rather than retry.
    """

    def __init__(self, message: str, *, evicted_reason: str | None = None) -> None:
        super().__init__(message)
        self.evicted_reason = evicted_reason


#: Errors that belong to the request, not to the system serving it: bad
#: input and the request's own time budget or cancellation.  A serving
#: breaker never counts them and a job never retries them.
REQUEST_ERRORS = (ValidationError, PromptError, DeadlineExceededError, JobCancelledError)


def _plain(value):
    """``value`` with tuples turned into lists, as JSON would read it back."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def error_record(exc: BaseException) -> dict:
    """The structured record of ``exc``: ``{"type", "error"}`` plus any of
    ``known``, ``skipped``, ``reason`` and ``evicted_reason`` it sets."""
    record = {"type": type(exc).__name__, "error": str(exc)}
    for name in ("known", "skipped", "reason", "evicted_reason"):
        value = getattr(exc, name, None)
        if value:
            record[name] = _plain(value)
    return record
