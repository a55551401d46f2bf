"""AStore Server: PMem resource management and the one-sided data plane.

The server's job (paper Section IV-A) is to manage PMem efficiently: it maps
the device, registers it with the RDMA NIC, and divides it into superblock,
segment-meta, I/O-meta and segment-storage areas.  A bitmap tracks segment
slot allocation.

Crucially, the *data plane does not execute server code*: clients perform
one-sided RDMA READ/WRITE against the registered PMem region.  In this model
that is expressed by :meth:`one_sided_write` / :meth:`one_sided_read`
charging fabric + PMem media time but **zero server CPU**.  Only control
operations (allocate/release, recovery scans) and push-down query execution
consume :attr:`cpu`.

Stale-segment handling: when the CM reassigns a segment (after failure
rebuild) it asks the server to clean the old copy.  The server defers the
actual cleaning by :attr:`cleanup_delay` - much longer than any client's
route-refresh period - so a client acting on a slightly old route can never
touch reclaimed memory (paper Section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..common import (
    MB,
    CapacityError,
    SegmentNotFoundError,
    StaleRouteError,
    StorageError,
    slotted,
)
from ..obs import obs_of
from ..sim.core import Environment
from ..sim.devices import PMemDevice
from ..sim.network import RdmaFabric
from ..sim.rand import Rng
from ..sim.resources import CpuPool

__all__ = ["AStoreServer", "ServerSegment", "SegmentBitmap"]


class SegmentBitmap:
    """Bitmap allocator over fixed-size segment slots (paper Section IV-A)."""

    def __init__(self, slots: int):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.slots = slots
        self._bits = [False] * slots

    @property
    def used(self) -> int:
        return sum(self._bits)

    @property
    def free(self) -> int:
        return self.slots - self.used

    def allocate(self) -> int:
        """Return the first free slot index; raises CapacityError when full."""
        for index, bit in enumerate(self._bits):
            if not bit:
                self._bits[index] = True
                return index
        raise CapacityError("no free segment slots")

    def release(self, index: int) -> None:
        if not 0 <= index < self.slots:
            raise ValueError("slot index out of range")
        if not self._bits[index]:
            raise ValueError("slot %d is not allocated" % index)
        self._bits[index] = False


@slotted
@dataclass
class _Entry:
    """One appended record inside a segment."""

    offset: int
    length: int
    payload: Any


@dataclass
class ServerSegment:
    """A segment replica resident in this server's PMem.

    ``entries`` maps append offset to the stored record.  AStore's external
    interface is append-only over (offset, length) pairs - reads must address
    a previously written entry exactly, matching the paper's read API.
    ``write_offset`` is the end of the furthest entry; positional writes
    may leave unwritten holes below it.  ``generation`` counts the resets.
    """

    segment_id: int
    slot: int
    size: int
    epoch: int
    write_offset: int = 0
    generation: int = 0
    frozen: bool = False
    stale: bool = False
    entries: Dict[int, _Entry] = field(default_factory=dict)

    @property
    def free_space(self) -> int:
        return self.size - self.write_offset


class AStoreServer:
    """One PMem storage node of the AStore cluster."""

    def __init__(
        self,
        env: Environment,
        rng: Rng,
        server_id: str,
        pmem_capacity: int = 64 * MB,
        segment_slot_size: int = 1 * MB,
        cpu_cores: int = 8,
        cleanup_delay: float = 30.0,
    ):
        if pmem_capacity < segment_slot_size:
            raise ValueError("capacity smaller than a single slot")
        self.env = env
        self.server_id = server_id
        self.pmem = PMemDevice(env, rng, name="%s-pmem" % server_id,
                               capacity=pmem_capacity)
        self.fabric = RdmaFabric(env, rng, name=server_id)
        self.cpu = CpuPool(env, cores=cpu_cores)
        self.obs = obs_of(env)
        self.segment_slot_size = segment_slot_size
        self.bitmap = SegmentBitmap(pmem_capacity // segment_slot_size)
        self.cleanup_delay = cleanup_delay
        self.alive = True
        #: Peer endpoint names this node is partitioned from ("*" = all).
        #: A partitioned node is powered on (PMem intact) but its NIC is
        #: unreachable from those peers - heartbeats and one-sided verbs
        #: from them fail alike.
        self.partitioned_from: set = set()
        self.segments: Dict[int, ServerSegment] = {}
        # EBP support: latest-LSN map pushed by DBEngine, used to prune
        # stale pages when rebuilding the EBP index after an engine crash.
        self.ebp_latest_lsn: Dict[Any, int] = {}
        self._pending_cleanups: List[Tuple[float, int, int]] = []

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Power-fail the node.  PMem contents survive (persistence)."""
        self.alive = False

    def restart(self) -> None:
        """Bring the node back.  Segments persisted in PMem are intact but
        the CM considers them stale and will have them cleaned up
        (paper Section IV-C); local EBP re-use is explicitly future work."""
        self.alive = True

    def partition(self, peer: str = "*") -> None:
        """Cut the network between this node and ``peer`` ("*" = everyone).

        Unlike :meth:`crash` the node keeps running: segments stay warm
        and no recovery is needed once :meth:`heal` reconnects it - but
        from the affected peers' point of view it is indistinguishable
        from a dead node.
        """
        self.partitioned_from.add(peer)

    def heal(self, peer: Optional[str] = None) -> None:
        """Reconnect ``peer`` (or everyone, when ``peer`` is None)."""
        if peer is None:
            self.partitioned_from.clear()
        else:
            self.partitioned_from.discard(peer)

    def reachable_from(self, peer: str) -> bool:
        """True when ``peer`` can currently reach this node's NIC."""
        return self.alive and not (
            "*" in self.partitioned_from or peer in self.partitioned_from
        )

    def _check_alive(self) -> None:
        if not self.alive:
            raise StorageError("server %s is down" % self.server_id)

    # ------------------------------------------------------------------
    # Control plane (RPC handlers; latency charged by the caller's RpcNetwork)
    # ------------------------------------------------------------------
    def allocate_segment(self, segment_id: int, size: int, epoch: int) -> None:
        """Reserve a slot and create an empty segment replica."""
        self._check_alive()
        if size > self.segment_slot_size:
            raise CapacityError(
                "segment size %d exceeds slot size %d" % (size, self.segment_slot_size)
            )
        if segment_id in self.segments:
            raise StorageError("segment %d already on server" % segment_id)
        slot = self.bitmap.allocate()
        self.segments[segment_id] = ServerSegment(
            segment_id=segment_id, slot=slot, size=size, epoch=epoch
        )

    def release_segment(self, segment_id: int) -> None:
        """Immediately free a segment (explicit client delete path)."""
        self._check_alive()
        segment = self.segments.pop(segment_id, None)
        if segment is None:
            raise SegmentNotFoundError("segment %d not on server" % segment_id)
        self.bitmap.release(segment.slot)

    def mark_stale(self, segment_id: int) -> None:
        """CM asks us to clean a stale replica: defer by ``cleanup_delay``.

        Deferred cleaning is the cornerstone of one-sided-RDMA consistency:
        the replica stays addressable (read-only safe) until every client
        has had many chances to refresh its routes.
        """
        self._check_alive()
        segment = self.segments.get(segment_id)
        if segment is None:
            return
        segment.stale = True
        due = self.env.now + self.cleanup_delay
        self._pending_cleanups.append((due, segment_id, segment.epoch))

    def unmark_stale(self, segment_id: int) -> None:
        """Rescue a stale-marked segment (local EBP recovery path)."""
        self._check_alive()
        segment = self.segments.get(segment_id)
        if segment is not None:
            segment.stale = False
        self._pending_cleanups = [
            (due, sid, epoch)
            for due, sid, epoch in self._pending_cleanups
            if sid != segment_id
        ]

    def run_cleanup_cycle(self) -> int:
        """Free every stale segment whose grace period has elapsed.

        Returns the number of segments cleaned.  Driven by the cluster's
        background maintenance process.
        """
        self._check_alive()
        now = self.env.now
        remaining: List[Tuple[float, int, int]] = []
        cleaned = 0
        for due, segment_id, epoch in self._pending_cleanups:
            segment = self.segments.get(segment_id)
            if segment is None or segment.epoch != epoch:
                continue
            if due <= now:
                self.segments.pop(segment_id)
                self.bitmap.release(segment.slot)
                cleaned += 1
            else:
                remaining.append((due, segment_id, epoch))
        self._pending_cleanups = remaining
        return cleaned

    # ------------------------------------------------------------------
    # Data plane (one-sided RDMA; NO server CPU)
    # ------------------------------------------------------------------
    def _segment_for_io(self, segment_id: int) -> ServerSegment:
        self._check_alive()
        segment = self.segments.get(segment_id)
        if segment is None:
            # The NIC would complete with a protection error: the client
            # addressed memory that is no longer registered for it.
            raise StaleRouteError(
                "segment %d not present on %s" % (segment_id, self.server_id)
            )
        return segment

    @staticmethod
    def _check_append(segment: ServerSegment, offset: int) -> None:
        """The append contract: unfrozen, and ``offset`` is the tail."""
        if segment.frozen:
            raise StorageError("segment %d is frozen" % segment.segment_id)
        if offset != segment.write_offset:
            raise StorageError(
                "non-append write at %d (tail is %d)" % (offset, segment.write_offset)
            )

    @staticmethod
    def _check_slot(segment: ServerSegment, offset: int,
                    generation: int) -> None:
        """The positional contract: unfrozen, the same generation the write
        was issued in, and nothing written at ``offset`` since the last
        reset."""
        if segment.frozen:
            raise StorageError("segment %d is frozen" % segment.segment_id)
        if segment.generation != generation:
            raise StorageError(
                "segment %d was reset under a write at %d"
                % (segment.segment_id, offset)
            )
        if offset in segment.entries:
            raise StorageError(
                "slot %d of segment %d already written"
                % (offset, segment.segment_id)
            )

    def one_sided_write(self, segment_id: int, offset: int, length: int,
                        payload: Any, epoch: Optional[int] = None,
                        positional: bool = False):
        """Generator: client-driven persistent write via chained verbs.

        Charges RDMA chain latency plus PMem media time; consumes zero
        server CPU.  Returns the (offset, length) the data landed at.

        ``epoch`` is the route epoch the client acted on; a write carrying
        an epoch older than the replica's is fenced with
        :class:`StaleRouteError` (the CM rebuilt the segment since the
        client cached its route).

        An append (the default) must land on the tail.  A ``positional``
        write lands on a slot the client reserved itself: it must fit the
        segment, find the segment unfrozen and the slot unwritten, and no
        :meth:`reset_segment` may fall between its issue and its landing.
        """
        segment = self._segment_for_io(segment_id)
        if epoch is not None and epoch < segment.epoch:
            raise StaleRouteError(
                "segment %d write fenced: route epoch %d < replica epoch %d"
                % (segment_id, epoch, segment.epoch)
            )
        generation = segment.generation
        if positional:
            self._check_slot(segment, offset, generation)
        else:
            self._check_append(segment, offset)
        if offset < 0 or offset + length > segment.size:
            raise CapacityError("segment %d overflow" % segment_id)
        tracer = self.obs.tracer
        if tracer.enabled:
            with tracer.span(
                "astore.server.%s.write" % self.server_id,
                tags={"segment": segment_id, "bytes": length},
            ):
                yield from self.fabric.persistent_write(length)
                yield from self.pmem.write(length)
        else:
            yield from self.fabric.persistent_write(length)
            yield from self.pmem.write(length)
        # Re-validate when the write lands: the segment may have been
        # cleaned, frozen, reset, or written at this offset by a racing
        # writer while this one was in flight - two writes to one offset
        # never both succeed.
        segment = self._segment_for_io(segment_id)
        if positional:
            self._check_slot(segment, offset, generation)
        else:
            self._check_append(segment, offset)
        segment.entries[offset] = _Entry(offset, length, payload)
        if segment.write_offset < offset + length:
            segment.write_offset = offset + length
        return (offset, length)

    def one_sided_read(self, segment_id: int, offset: int, length: int):
        """Generator: client-driven read of a previously written entry."""
        segment = self._segment_for_io(segment_id)
        entry = segment.entries.get(offset)
        if entry is None or entry.length != length:
            raise StorageError(
                "read (%d, %d) does not address a written entry" % (offset, length)
            )
        yield from self.fabric.read(length)
        yield from self.pmem.read(length)
        return entry.payload

    def overwrite_header(self, segment_id: int, length: int, payload: Any):
        """Generator: rewrite the entry at offset 0 (SegmentRing headers).

        SegmentRing stores a {status, start-LSN} header at the front of each
        segment and updates it in place when the ring advances; PMem is
        byte-addressable so an in-place header write is natural.
        """
        segment = self._segment_for_io(segment_id)
        yield from self.fabric.persistent_write(length)
        yield from self.pmem.write(length)
        segment = self._segment_for_io(segment_id)
        segment.entries[0] = _Entry(0, length, payload)
        if segment.write_offset < length:
            segment.write_offset = length
        return (0, length)

    def scan_entries(self, segment_id: int):
        """Generator: read every entry of a segment (recovery bulk read).

        Modelled as one large one-sided READ of the segment's written
        prefix.  Returns entries as [(offset, length, payload)] in offset
        order.
        """
        segment = self._segment_for_io(segment_id)
        total = max(segment.write_offset, 1)
        yield from self.fabric.read(total)
        yield from self.pmem.read(total)
        segment = self._segment_for_io(segment_id)
        ordered = sorted(segment.entries.values(), key=lambda e: e.offset)
        return [(e.offset, e.length, e.payload) for e in ordered]

    def reset_segment(self, segment_id: int) -> None:
        """Recycle a segment in place: drop its entries, keep the slot.

        Control-plane RPC used by SegmentRing when the ring wraps onto a
        segment whose REDO records have already been applied by PageStore.
        """
        self._check_alive()
        segment = self.segments.get(segment_id)
        if segment is None:
            raise SegmentNotFoundError("segment %d not on server" % segment_id)
        segment.entries.clear()
        segment.write_offset = 0
        segment.frozen = False
        segment.generation += 1

    # ------------------------------------------------------------------
    # EBP recovery support (RPC; consumes server CPU)
    # ------------------------------------------------------------------
    def record_page_lsns(self, mapping: Dict[Any, int]) -> None:
        """Store {page_id: latest LSN} batch pushed by the DBEngine."""
        self._check_alive()
        self.ebp_latest_lsn.update(mapping)

    def scan_ebp_pages(self, describe, include_stale: bool = False):
        """Generator: scan local PMem for EBP pages during engine recovery.

        ``describe(payload)`` must return ``(page_id, lsn)`` for EBP page
        entries and ``None`` for anything else.  Pages whose LSN is older
        than the engine-pushed latest LSN are discarded (pruned as stale).
        ``include_stale`` lets the local-EBP-recovery path inspect segments
        already marked for cleanup (it re-adopts them before the deferred
        cleanup fires).  Returns [(page_id, lsn, segment_id, offset, length)].
        """
        self._check_alive()
        survivors = []
        scanned = 0
        for segment in self.segments.values():
            if segment.stale and not include_stale:
                continue
            for entry in segment.entries.values():
                scanned += 1
                described = describe(entry.payload)
                if described is None:
                    continue
                page_id, lsn = described
                latest = self.ebp_latest_lsn.get(page_id)
                if latest is not None and lsn < latest:
                    continue
                survivors.append(
                    (page_id, lsn, segment.segment_id, entry.offset, entry.length)
                )
        # CPU cost proportional to the scan; recovery is a control path.
        yield from self.cpu.consume(2e-6 * max(scanned, 1))
        return survivors

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity_report(self) -> Dict[str, int]:
        """What the heartbeat message carries: capacity and load."""
        return {
            "free_slots": self.bitmap.free,
            "used_slots": self.bitmap.used,
            "segments": len(self.segments),
        }
