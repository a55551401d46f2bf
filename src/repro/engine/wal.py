"""Write-ahead logging: REDO records, LSN allocation, and the log buffer.

veDB uses ARIES-style REDO with the log-is-database twist: REDO records are
the *only* thing the engine persists.  Records carry page-level operations
(:class:`~repro.engine.page.PageOp`); LSNs are byte offsets in a single
conceptual log stream, allocated here.

The :class:`LogBuffer` implements group commit on demand: transactions
deposit their records as pages mutate and wait only on their commit
marker; a single log-writer process sleeps until a queued record has a
waiter, the buffer is full, or the WAL rule, a fresh read, a rollback or
recovery asks for an LSN to be durable - then performs one storage write
for everything queued and wakes every waiter.  A MySQL-derived engine
writes its log at commit, on a full log buffer, or when a page's LSN must
be durable - not per mini-transaction - and neither does this one.  Group
commit is what couples storage write latency to transaction throughput -
the faster AStore completes a flush, the more batches per second, the lower
the commit latency under load.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Deque, List, Optional, Tuple

from ..common import PageId, slotted
from ..sim.core import Environment, Event
from .page import PageOp

__all__ = ["RedoRecord", "LsnAllocator", "Demand", "LogBuffer",
           "encode_records_size", "encode_batch", "decode_batch"]


@slotted
@dataclass
class RedoRecord:
    """One page-level REDO record.

    ``txn_id`` groups records for undo decisions; ``back_link`` is the LSN
    of the previous record *of the same PageStore segment* - the paper's
    mechanism for PageStore replicas to detect gaps and gossip.  It is
    PageStore framing, stamped at ship time: the log never holds it
    (:func:`encode_batch`), and two records that differ only in it are
    equal.

    ``undo_row`` is the before image for update/delete records: the engine
    logs immediately (ARIES steal/no-force), so crash recovery must be able
    to roll back loser transactions whose records persisted.
    """

    lsn: int
    txn_id: int
    page_id: PageId
    op: PageOp
    back_link: int = field(default=-1, compare=False)
    commit: bool = False  # commit marker record
    abort: bool = False  # abort marker (rollback fully compensated)
    clr: bool = False  # compensation record written by rollback
    #: For CLRs: the LSN of the original record this compensates.
    compensates: int = -1
    undo_row: Optional[bytes] = None
    #: Two-phase commit markers.  A prepare marker makes a participant's
    #: vote durable (its data records are flushed no later than the marker,
    #: FIFO group commit); a decision marker is the coordinator's durable
    #: commit decision for a global transaction.  Both carry the global
    #: transaction id so recovery can match in-doubt participants against
    #: decisions.
    prepare: bool = False
    decision: bool = False
    gtid: Optional[str] = None
    #: Serialized size: the op, the before image, and 24 bytes of lsn +
    #: txn + back-link framing.  Sized once, here - ``op`` and
    #: ``undo_row`` never change after construction (``back_link`` does,
    #: and is part of the fixed framing).
    log_bytes: int = field(init=False, repr=False, compare=False)
    #: Markers live in the log only; PageStore never applies them.  Every
    #: consumer of the REDO feed asks once per record, so it is settled
    #: here (the four flags are set at construction and never after).
    is_marker: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        undo_row = self.undo_row
        self.log_bytes = self.op.log_bytes + 24 + (
            len(undo_row) if undo_row is not None else 0
        )
        self.is_marker = (
            self.commit or self.abort or self.prepare or self.decision
        )


_log_bytes_of = attrgetter("log_bytes")


def encode_records_size(records: List[RedoRecord]) -> int:
    """Total serialized size of a record batch."""
    return sum(map(_log_bytes_of, records))


#: The fixed per-record header of an encoded batch, little-endian: lsn,
#: txn id, page id (space, page), op kind (index into
#: ``PageOp.VALID_KINDS``), flags, slot, compensates, then the byte
#: lengths of the row, the before image and the gtid that follow it.
_RECORD_HEADER = struct.Struct("<qqIIBBIqIIH")
_KIND_CODE = {kind: code for code, kind in enumerate(PageOp.VALID_KINDS)}
#: Flag bits: the four marker flags, ``clr``, and which of the three
#: optional byte strings are present (None and ``b""`` differ).
_COMMIT, _ABORT, _CLR, _PREPARE, _DECISION = 1, 2, 4, 8, 16
_HAS_ROW, _HAS_UNDO, _HAS_GTID = 32, 64, 128


def encode_batch(records: List[RedoRecord]) -> bytes:
    """One group-commit batch as the bytes the log persists.

    Per record, in order: the :data:`_RECORD_HEADER` struct, then the op's
    row, the before image and the UTF-8 gtid, each as long as the header
    says.  Every field recovery and 2PC harvesting read is kept;
    ``back_link`` (PageStore framing) and the derived ``log_bytes`` /
    ``is_marker`` are not.  The virtual clock is charged
    :func:`encode_records_size`, not ``len()`` of this.
    """
    pack = _RECORD_HEADER.pack
    kind_code = _KIND_CODE
    parts: List[bytes] = []
    append = parts.append
    for record in records:
        op = record.op
        row, undo_row, gtid = op.row, record.undo_row, record.gtid
        flags = record.clr << 2
        if record.is_marker:
            flags |= (record.commit | record.abort << 1
                      | record.prepare << 3 | record.decision << 4)
        if row is not None:
            flags |= _HAS_ROW
        else:
            row = b""
        if undo_row is not None:
            flags |= _HAS_UNDO
        else:
            undo_row = b""
        if gtid is not None:
            flags |= _HAS_GTID
            gtid = gtid.encode()
        else:
            gtid = b""
        page_id = record.page_id
        append(pack(record.lsn, record.txn_id, page_id[0], page_id[1],
                    kind_code[op.kind], flags, op.slot, record.compensates,
                    len(row), len(undo_row), len(gtid)))
        append(row)
        append(undo_row)
        append(gtid)
    return b"".join(parts)


def decode_batch(blob: bytes) -> List[RedoRecord]:
    """The records :func:`encode_batch` wrote, equal to the originals."""
    unpack = _RECORD_HEADER.unpack_from
    header_bytes = _RECORD_HEADER.size
    kinds = PageOp.VALID_KINDS
    records: List[RedoRecord] = []
    pos, end = 0, len(blob)
    while pos < end:
        (lsn, txn_id, space_no, page_no, kind, flags, slot, compensates,
         row_len, undo_len, gtid_len) = unpack(blob, pos)
        pos += header_bytes
        row = blob[pos:pos + row_len] if flags & _HAS_ROW else None
        pos += row_len
        undo_row = blob[pos:pos + undo_len] if flags & _HAS_UNDO else None
        pos += undo_len
        gtid = blob[pos:pos + gtid_len].decode() if flags & _HAS_GTID else None
        pos += gtid_len
        records.append(RedoRecord(
            lsn, txn_id, PageId(space_no, page_no),
            PageOp(kinds[kind], slot, row),
            commit=bool(flags & _COMMIT), abort=bool(flags & _ABORT),
            clr=bool(flags & _CLR), compensates=compensates,
            undo_row=undo_row, prepare=bool(flags & _PREPARE),
            decision=bool(flags & _DECISION), gtid=gtid,
        ))
    return records


class LsnAllocator:
    """Monotonic LSN source; LSNs are byte offsets in the log stream."""

    def __init__(self, start: int = 1):
        self._next = start

    @property
    def current(self) -> int:
        return self._next

    def allocate(self, nbytes: int) -> int:
        """Reserve ``nbytes`` of log space; returns the record's LSN."""
        lsn = self._next
        self._next += max(nbytes, 1)
        return lsn

    def advance_to(self, lsn: int) -> None:
        """Recovery: resume allocation after the recovered tail."""
        if lsn >= self._next:
            self._next = lsn + 1


class Demand:
    """The wake-up of a daemon that works only when ``due()`` names why
    (None: let the work sit) - the log writer's and the PageStore
    shipper's.  :meth:`wait` sleeps until it does and returns the cause;
    :meth:`poke` wakes the sleeper only then, and schedules nothing else.
    """

    def __init__(self, env: Environment, due: Callable[[], Optional[str]]):
        self.env, self.due, self._wakeup = env, due, None

    def poke(self) -> None:
        wakeup = self._wakeup
        if wakeup is not None and not wakeup.triggered and self.due():
            wakeup.succeed()

    def wait(self):
        while (cause := self.due()) is None:
            self._wakeup = Event(self.env)
            yield self._wakeup
        return cause


class LogBuffer:
    """Group-commit staging area in front of the log store.

    ``flush_fn(records, nbytes)`` is a generator performing the durable
    write (either LogStore.append or SegmentRing.append).  The single
    writer sleeps until somebody *needs* durability - never merely
    because it is idle - and then one flush carries everything queued,
    FIFO, up to ``max_batch_bytes``.  Three demands wake it:

    - a queued record has a waiter (``append(wait=True)`` / ``submit``:
      commit, prepare and decision markers) - counted ``commit``;
    - the queued bytes reach ``max_batch_bytes`` - counted ``full``;
    - :meth:`flush_through` asked for durability up to an LSN without
      blocking on it (the WAL guard, a fresh read, a rollback,
      recovery) - counted under the cause the caller names.

    An un-waited ``append`` below the byte cap is host bookkeeping only:
    it schedules no event, so an open transaction's page ops ride with
    its own commit marker.  ``flush_demand`` counts flushes by what
    demanded them.
    """

    #: Every cause a flush can be counted under.
    DEMANDS = ("commit", "full", "wal_evict", "fresh_read", "rollback",
               "recovery")

    def __init__(
        self,
        env: Environment,
        flush_fn: Callable[[List[RedoRecord], int], Any],
        max_batch_bytes: int = 1024 * 1024,
    ):
        self.env = env
        self.flush_fn = flush_fn
        self.max_batch_bytes = max_batch_bytes
        self._pending: Deque[Tuple[RedoRecord, Optional[Event]]] = deque()
        #: Serialized size of the queued records.
        self.pending_bytes = 0
        #: Queued records somebody waits on.
        self._waiters = 0
        #: ``flush_through``'s high-water mark and who set it.
        self._through_lsn = 0
        self._through_cause = ""
        #: Highest LSN the writer has taken out of the buffer: records up
        #: to it are durable or in flight, and will reach every REDO
        #: consumer whatever happens to the rest of their transaction.
        self.taken_lsn = 0
        self._demand = Demand(env, self._due)
        self.persistent_lsn = 0
        self.flushes = 0
        self.records_flushed = 0
        self.flush_demand = dict.fromkeys(self.DEMANDS, 0)
        self._running = False

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def append(self, record: RedoRecord, wait: bool = False) -> Optional[Event]:
        """Queue one record; with ``wait`` returns an Event that fires
        once it is durable, and the writer is woken for it.

        Without, the record stays queued until a demand takes it along
        and nobody blocks on it (page ops inside a transaction).
        """
        done = Event(self.env) if wait else None
        self._pending.append((record, done))
        self.pending_bytes += record.log_bytes
        if wait:
            self._waiters += 1
        if wait or self.pending_bytes >= self.max_batch_bytes:
            self._demand.poke()
        return done

    def submit(self, records: List[RedoRecord], wait: bool = True) -> Optional[Event]:
        """Queue a batch in order; the Event (``wait``) is the last
        record's, so it fires once the whole batch is durable."""
        if not records:
            raise ValueError("empty record batch")
        for record in records[:-1]:
            self.append(record)
        return self.append(records[-1], wait)

    def flush_through(self, lsn: int, cause: str) -> None:
        """Demand durability of every queued record up to ``lsn`` without
        blocking on it; ``cause`` (one of :attr:`DEMANDS`) is what the
        resulting flush is counted under.  Nothing queued that low - it
        is durable or in flight already - means nothing to do."""
        if lsn <= self._through_lsn:
            return
        self._through_lsn, self._through_cause = lsn, cause
        self._demand.poke()

    def discard(self, error: BaseException) -> None:
        """Crash: the buffer is volatile.  Queued records are lost and
        their waiters fail with ``error``; a batch the writer already
        took is on the wire and lands or not on its own."""
        for _record, done in self._pending:
            if done is not None and not done.triggered:
                done._defused = True  # the waiter may be gone as well
                done.fail(error)
        self._pending.clear()
        self.pending_bytes = 0
        self._waiters = 0

    def _due(self) -> Optional[str]:
        """Why the queue must be flushed now, or None to let it sit."""
        pending = self._pending
        if not pending:
            return None
        if pending[0][0].lsn <= self._through_lsn:
            return self._through_cause
        if self._waiters:
            return "commit"
        if self.pending_bytes >= self.max_batch_bytes:
            return "full"
        return None

    # ------------------------------------------------------------------
    # Log-writer process
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the single log-writer daemon."""
        if self._running:
            return
        self._running = True
        self.env.process(self._writer_loop(), name="log-writer")

    def _writer_loop(self):
        pending = self._pending
        while True:
            cause = yield from self._demand.wait()
            records: List[RedoRecord] = []
            waiters: List[Event] = []
            batch_bytes = 0
            while pending and batch_bytes < self.max_batch_bytes:
                record, done = pending.popleft()
                records.append(record)
                batch_bytes += record.log_bytes
                if done is not None:
                    waiters.append(done)
            self.pending_bytes -= batch_bytes
            self._waiters -= len(waiters)
            self.taken_lsn = max(self.taken_lsn, records[-1].lsn)
            yield from self.flush_fn(records, batch_bytes)
            self.flushes += 1
            self.flush_demand[cause] += 1
            self.records_flushed += len(records)
            self.persistent_lsn = max(self.persistent_lsn, records[-1].lsn)
            for done in waiters:
                if not done.triggered:
                    done.succeed(self.persistent_lsn)

    @property
    def queue_depth(self) -> int:
        return len(self._pending)
