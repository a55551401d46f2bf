"""Shared identifiers, sizes, error types, and the retry policy."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

__all__ = [
    "KB",
    "MB",
    "GB",
    "US",
    "MS",
    "PAGE_SIZE",
    "PageId",
    "slotted",
    "RetryPolicy",
    "ReproError",
    "StorageError",
    "SegmentFrozenError",
    "SegmentNotFoundError",
    "StaleRouteError",
    "LeaseExpiredError",
    "CapacityError",
    "DeadlineExceededError",
    "RingExhaustedError",
    "RecoveryError",
    "QueryError",
    "TransactionAborted",
    "OverloadError",
]

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024
US = 1e-6
MS = 1e-3

#: Default database page size (InnoDB-style 16 KB, as in the paper).
PAGE_SIZE = 16 * KB


class PageId(NamedTuple):
    """Identifies a data page: (tablespace number, page number).

    The paper calls this pair the *page ID* and keys the EBP index with it.

    A tuple, so hashing, equality and ordering run in C on every
    ``page_versions`` / LRU / EBP-index probe; ``hash(page_id)`` is
    ``hash((space_no, page_no))``, which the buffer pool's LRU striping
    and PageStore's ``segment_of`` both depend on.  ``Table.page_id``
    hands out one instance per page, so those probes usually hit by
    identity.  (Being a tuple also means ``"%s" % page_id`` needs the
    one-element-tuple form.)
    """

    space_no: int
    page_no: int

    def __str__(self) -> str:
        return "%d:%d" % self


def slotted(cls):
    """Rebuild a dataclass with ``__slots__`` for its fields and no
    ``__dict__``: ``@dataclass(slots=True)`` on Pythons that lack it.  Use
    it on classes created in bulk (a REDO record and its page op, an
    AStore entry), where a per-instance dict is most of the memory."""
    names = tuple(f.name for f in fields(cls))
    body = {key: value for key, value in cls.__dict__.items()
            if key not in names and key not in ("__dict__", "__weakref__")}
    body["__slots__"] = names
    slotted_cls = type(cls)(cls.__name__, cls.__bases__, body)
    slotted_cls.__qualname__ = cls.__qualname__
    return slotted_cls


class ReproError(Exception):
    """Base class for all library errors."""


class StorageError(ReproError):
    """A storage operation failed (replica down, I/O error)."""


class SegmentFrozenError(StorageError):
    """Write refused: the segment was frozen after a replica failure."""


class SegmentNotFoundError(StorageError):
    """The segment id is unknown to the addressed server or the CM."""


class StaleRouteError(StorageError):
    """A client used routing information that a rebuild invalidated."""


class LeaseExpiredError(StorageError):
    """A client's CM lease expired (or ownership moved) before the write."""


class CapacityError(StorageError):
    """Allocation failed: the device or quota is full."""


class DeadlineExceededError(StorageError):
    """An operation's per-call deadline elapsed before it completed."""


class RingExhaustedError(StorageError):
    """A SegmentRing walked its whole ring without finding writable space
    (every segment frozen/unrecyclable - typically a total replica outage)."""


class RecoveryError(ReproError):
    """Crash recovery could not complete."""


class QueryError(ReproError):
    """SQL parsing, planning, or execution error."""


class TransactionAborted(ReproError):
    """The transaction was rolled back (deadlock victim or explicit)."""


class OverloadError(ReproError):
    """The serving frontend shed this request instead of queueing it.

    Raised by admission control when a class's admission queue is full or
    the request waited past its admission deadline.  Clients are expected
    to back off and retry; the request never reached the engine."""


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline + bounded exponential backoff with deterministic jitter.

    The policy itself is pure state: callers combine it with their own
    :class:`repro.sim.rand.Rng` stream (``backoff(attempt, rng)``), so a
    retried operation draws jitter from the component's named substream and
    whole experiments stay bit-identical across runs.

    ``op_timeout`` is the per-attempt deadline: an attempt still in flight
    when it elapses is abandoned with :class:`DeadlineExceededError` instead
    of hanging its sim process forever.  ``deadline`` bounds the *total*
    time an operation (attempts + backoffs) may take.
    """

    max_attempts: int = 4
    initial_backoff: float = 1e-3
    max_backoff: float = 50e-3
    multiplier: float = 2.0
    jitter: float = 0.2
    #: Total budget across attempts and backoffs (seconds).
    deadline: float = 2.0
    #: Per-attempt timeout (seconds); None disables attempt deadlines.
    op_timeout: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.initial_backoff <= 0 or self.max_backoff < self.initial_backoff:
            raise ValueError("backoff bounds must satisfy 0 < initial <= max")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.op_timeout is not None and self.op_timeout <= 0:
            raise ValueError("op_timeout must be positive (or None)")

    def backoff(self, attempt: int, rng) -> float:
        """Backoff before retry number ``attempt`` (0-based), jittered.

        Jitter is symmetric (+/- ``jitter`` fraction) and drawn from the
        caller's deterministic stream.
        """
        base = min(
            self.initial_backoff * self.multiplier ** max(attempt, 0),
            self.max_backoff,
        )
        if self.jitter:
            base *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return base
