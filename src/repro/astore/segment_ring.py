"""SegmentRing: the AStore log container that replaces BlobGroup.

Paper Section V-A.  A SegmentRing manages a fixed collection of append-only
segments arranged circularly.  Two deliberate contrasts with BlobGroup:

1. Large log writes are *not* split into fixed-size physical I/Os - a 256 KB
   one-sided WRITE already completes in ~0.1 ms, so splitting only adds
   verbs.
2. All segments are pre-created at DBEngine initialization, keeping the
   multi-millisecond segment-creation RPC off the commit path forever.

Each segment carries a header ``{status, start_lsn}``.  After a DBEngine
crash, a binary search over the headers finds the segment holding the
largest start LSN; scanning that segment yields the true log tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Tuple

from ..common import (
    MB,
    RecoveryError,
    RingExhaustedError,
    SegmentFrozenError,
    StorageError,
)
from .client import AStoreClient

__all__ = ["SegmentRing", "SegmentHeader", "RingRecoveryResult", "SegmentStatus"]

#: Bytes reserved at the front of each segment for the header.
HEADER_BYTES = 64


class SegmentStatus:
    """Segment lifecycle states stored in the header."""

    EMPTY = "empty"
    IN_USE = "in-use"
    FULL = "full"
    ERROR = "in-error"


@dataclass
class SegmentHeader:
    """The on-PMem header: status plus the LSN of the first record."""

    status: str
    start_lsn: int


@dataclass
class RingRecoveryResult:
    """What crash recovery reconstructs from the ring."""

    active_index: int
    start_lsn: int
    records: List[Tuple[int, Any]]  # (lsn, payload) in LSN order

    @property
    def max_lsn(self) -> int:
        if not self.records:
            return self.start_lsn
        return self.records[-1][0]


class SegmentRing:
    """A circular container of pre-created log segments."""

    def __init__(
        self,
        client: AStoreClient,
        ring_size: int = 8,
        segment_size: int = 4 * MB,
        replication: int = 3,
        reclaim: Optional[Callable[[int], Generator]] = None,
    ):
        if ring_size < 2:
            raise ValueError("ring needs at least 2 segments")
        self.client = client
        self.ring_size = ring_size
        self.segment_size = segment_size
        self.replication = replication
        #: reclaim(lsn): generator returning once PageStore holds every
        #: record below ``lsn`` (StorageError if it cannot); None: always
        #: recyclable (the paper notes REDO lifespan is short, GC prompt).
        self.reclaim = reclaim
        self.segment_ids: List[int] = []
        self.headers: List[SegmentHeader] = []
        self.current_index = 0
        self._initialized = False
        self.appends = 0
        self.segment_advances = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(self, first_lsn: int = 0):
        """Generator: pre-create every ring segment and write headers."""
        if self._initialized:
            raise StorageError("ring already initialized")
        for index in range(self.ring_size):
            segment_id = yield from self.client.create(
                self.segment_size, replication=self.replication
            )
            self.segment_ids.append(segment_id)
            status = SegmentStatus.IN_USE if index == 0 else SegmentStatus.EMPTY
            header = SegmentHeader(status, first_lsn if index == 0 else -1)
            self.headers.append(header)
            yield from self.client.write_header(segment_id, HEADER_BYTES, header)
        self.current_index = 0
        self._initialized = True

    def _require_initialized(self) -> None:
        if not self._initialized:
            raise StorageError("ring not initialized")

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------
    def _free_space(self) -> int:
        segment_id = self.segment_ids[self.current_index]
        meta = self.client.open_segments.get(segment_id)
        if meta is None:
            # The CM dropped the route (every replica died) and a route
            # refresh evicted the segment from the client cache.  Treat
            # the slot like a frozen segment so the append loop advances
            # past it instead of crashing the group-commit daemon.
            raise SegmentFrozenError(
                "segment %d no longer routed" % segment_id
            )
        return meta.free_space

    def append(self, lsn: int, length: int, payload: Any):
        """Generator: append one log write (already merged upstream).

        Advances the ring when the current segment lacks space; retries on
        a frozen segment (replica failure) by advancing as well, which is
        exactly the SDK behaviour the paper describes ("close the failed
        segment, create a new segment, and automatically retry").

        Returns (segment_id, offset).
        """
        self._require_initialized()
        if length + HEADER_BYTES > self.segment_size:
            raise StorageError(
                "log write of %d bytes exceeds segment size %d"
                % (length, self.segment_size)
            )
        attempts = 0
        while attempts < 2 * self.ring_size + 2:
            segment_id = self.segment_ids[self.current_index]
            try:
                free = self._free_space()
            except SegmentFrozenError:
                self.headers[self.current_index].status = SegmentStatus.ERROR
                yield from self._guarded_advance(lsn, full=False)
                attempts += 1
                continue
            if free < length:
                yield from self._guarded_advance(lsn, full=True)
                attempts += 1
                continue
            try:
                # Records are stored tagged with their LSN so the recovery
                # tail scan can rebuild LSN order without a separate index.
                offset, _ = yield from self.client.write(
                    segment_id, length, (lsn, payload)
                )
            except SegmentFrozenError:
                self.headers[self.current_index].status = SegmentStatus.ERROR
                yield from self._guarded_advance(lsn, full=False)
                attempts += 1
                continue
            self.appends += 1
            return (segment_id, offset)
        raise RingExhaustedError(
            "log space exhausted: no recyclable segment"
        )

    def _guarded_advance(self, lsn: int, full: bool):
        """Generator: advance; if even the next segment cannot be brought
        into use (its replicas are down too, or no healthy server remains
        for a replacement), mark the slot ERROR and let the append loop
        keep walking the ring.  :class:`RingExhaustedError` (the ring
        wrapped onto un-applied log) is a stop signal, never swallowed."""
        try:
            yield from self._advance(lsn, full=full)
        except RingExhaustedError:
            raise
        except StorageError:
            self.headers[self.current_index].status = SegmentStatus.ERROR

    def _advance(self, next_lsn: int, full: bool):
        """Generator: freeze the current segment and move to the next.

        A FULL next segment is recycled in place once PageStore holds its
        REDO (the ring demands that ship and waits).  If recycling fails (a
        replica died), the SDK does what the paper describes: it *creates a
        new segment* from the CM - placed away from failed nodes - instead.
        """
        current = self.headers[self.current_index]
        current.status = SegmentStatus.FULL if full else SegmentStatus.ERROR
        try:
            yield from self.client.write_header(
                self.segment_ids[self.current_index], HEADER_BYTES, current
            )
        except StorageError:
            pass  # the segment is being abandoned anyway
        next_index = (self.current_index + 1) % self.ring_size
        next_header = self.headers[next_index]
        if next_header.status in (SegmentStatus.FULL, SegmentStatus.ERROR):
            if next_header.status == SegmentStatus.FULL and self.reclaim:
                # Its records end where the segment after it starts.
                after = self.headers[(next_index + 1) % self.ring_size]
                try:
                    yield from self.reclaim(after.start_lsn)
                except StorageError as exc:
                    raise RingExhaustedError(
                        "ring wrapped onto un-applied segment (start_lsn=%d): %s"
                        % (next_header.start_lsn, exc)) from exc
            try:
                yield from self.client.reset(self.segment_ids[next_index])
            except StorageError:
                replacement = yield from self.client.create(
                    self.segment_size, replication=self.replication
                )
                self.segment_ids[next_index] = replacement
        self.current_index = next_index
        new_header = SegmentHeader(SegmentStatus.IN_USE, next_lsn)
        self.headers[next_index] = new_header
        yield from self.client.write_header(
            self.segment_ids[next_index], HEADER_BYTES, new_header
        )
        self.segment_advances += 1

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def recover(self):
        """Generator: locate the live log tail after a DBEngine crash.

        Binary search over the ring headers for the largest start LSN: the
        ring is a circularly sorted array of start LSNs (with EMPTY
        segments marked -1), so the probe count is O(log ring_size) header
        reads.  The winning segment's entries are then bulk-read.

        Returns a :class:`RingRecoveryResult`.
        """
        self._require_initialized()
        headers: List[Optional[SegmentHeader]] = [None] * self.ring_size

        def header_at(index: int):
            if headers[index] is None:
                payload = yield from self.client.read(
                    self.segment_ids[index], 0, HEADER_BYTES
                )
                headers[index] = payload
            return headers[index]

        # Probe 0 anchors the rotation; then binary-search the boundary
        # where start LSNs stop increasing.
        first = yield from header_at(0)
        low, high = 0, self.ring_size - 1
        best_index, best_lsn = 0, first.start_lsn
        while low <= high:
            mid = (low + high) // 2
            header = yield from header_at(mid)
            if header.start_lsn >= first.start_lsn and header.status in (
                SegmentStatus.IN_USE,
                SegmentStatus.FULL,
            ):
                if header.start_lsn >= best_lsn:
                    best_index, best_lsn = mid, header.start_lsn
                low = mid + 1
            else:
                high = mid - 1
        header = headers[best_index]
        if header is None or header.status == SegmentStatus.EMPTY:
            raise RecoveryError("ring contains no live segment")
        entries = yield from self.client.read_entries(self.segment_ids[best_index])
        records: List[Tuple[int, Any]] = []
        for offset, _length, payload in entries:
            if offset == 0:
                continue  # header entry
            lsn, record = payload
            records.append((lsn, record))
        records.sort(key=lambda pair: pair[0])
        self.current_index = best_index
        return RingRecoveryResult(
            active_index=best_index, start_lsn=header.start_lsn, records=records
        )
