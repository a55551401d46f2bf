"""Extended Buffer Pool (EBP): PMem page cache backed by AStore.

Paper Sections V-C..V-E.  Pages evicted from the DRAM buffer pool are
appended to single-replica AStore segments and re-read over one-sided RDMA
(~20 us/16 KB) instead of from PageStore (~1 ms).  The engine-side state is
the *EBP Index*: ``{(space_no, page_no) -> (lsn, segment_id, offset,
length)}``.

Implemented behaviours, each with its paper anchor:

- **Best-effort semantics**: EBP loss only lowers the hit ratio; a stale or
  missing entry is a miss, never an error.
- **Capacity policies**: ``flat`` (one shared space) vs ``priority``
  (spaces carry priorities; high-priority pages may occupy any same-or-
  lower-priority room, and victims are taken lowest-priority-first).
- **Positional concurrent appends**: the engine's writer pool appends in
  parallel.  Each writer reserves its page slot in the area's append
  segment up front (a full segment rolls to the next one, it is never
  frozen) and writes one-sided at that offset: nothing orders the writes
  against each other, and the AStore server refuses one whose slot was
  already written or whose segment was reset under it.
- **Only pages that can hit hold space**: a copy older than a DRAM write
  of its page can never be served, so it becomes garbage the moment the
  engine modifies the page (``dropped_dead``), not at its stale hit.
- **Background cleaner**: no writer ever issues a control-plane RPC.  One
  cleaner process keeps an empty segment ready: it grows the pool up to
  ``max_segments`` (CM create, milliseconds) and from then on picks a
  victim - lowest priority area, then most garbage - and recycles it in
  place with one server reset RPC.  Copies of pages the DRAM buffer pool
  holds (the engine's ``resident`` probe) duplicate DRAM, so they count
  as garbage towards ``compaction_threshold``: at or above it the victim
  is compacted - resident copies are dropped (``dropped_resident``; the
  page is cached again when DRAM evicts it) and the others are copied
  forward - and below it every live page is dropped.  Writers that find
  no room park until the cleaner wakes them, and fail only when the
  priority rule leaves no legal victim.
- **Index lock contention**: index mutations serialise on a mutex whose
  hold time is charged in sim time - the cause of the diminishing returns
  at 256 clients in Fig. 13, and called out as future work in the paper.
- **Recovery**: after a DBEngine crash the index is rebuilt from server
  scans, pruned by the engine-pushed latest-LSN map; after an AStore server
  crash, entries on that server are purged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..common import PAGE_SIZE, PageId, StorageError
from ..astore.client import AStoreClient
from ..cost import INDEX_CS_COST
from ..obs import obs_of
from ..sim.core import Environment, Event, Process
from ..sim.resources import Resource
from .page import Page

__all__ = ["ExtendedBufferPool", "EbpEntry", "EBP_PAGE_TAG"]

#: Payload tag for EBP page entries stored in AStore segments.
EBP_PAGE_TAG = "ebp-page"

#: Area of a segment no page has occupied yet: any priority may take it.
_UNOWNED = float("-inf")


@dataclass
class EbpEntry:
    """Where a cached page lives: LSN + AStore address."""

    lsn: int
    segment_id: int
    offset: int
    length: int
    priority: int = 0


class _SegmentState:
    """Usage accounting for one EBP-owned AStore segment.

    ``priority`` is the *area* the segment belongs to: under the priority
    policy, each priority level appends into its own segments, which is
    how the paper divides the EBP space into priority areas.  An empty
    segment keeps the area it was taken from, so only pages of that or a
    higher priority may fill it.
    """

    def __init__(self, segment_id: int, size: int, priority: float = 0):
        self.segment_id = segment_id
        self.size = size
        self.priority = priority
        self.live_bytes = 0
        self.garbage_bytes = 0
        #: Bytes handed out to appenders; the written length trails it.
        self.reserved = 0
        #: In-flight appends and reads.  The cleaner recycles a segment
        #: only at zero, waiting on ``unpinned`` until then.
        self.pins = 0
        self.unpinned: Optional[Event] = None

    @property
    def garbage_ratio(self) -> float:
        total = self.live_bytes + self.garbage_bytes
        return self.garbage_bytes / total if total else 0.0

    def unpin(self) -> None:
        self.pins -= 1
        if not self.pins and self.unpinned is not None:
            self.unpinned.succeed()
            self.unpinned = None


def _never(page_id: PageId) -> bool:
    return False


def describe_ebp_payload(payload: Any) -> Optional[Tuple[PageId, int]]:
    """Extract (page_id, lsn) from an AStore entry if it is an EBP page."""
    if isinstance(payload, tuple) and len(payload) == 4 and payload[0] == EBP_PAGE_TAG:
        return (payload[1], payload[2])
    return None


class ExtendedBufferPool:
    """The AStore-backed second-level page cache."""

    def __init__(
        self,
        env: Environment,
        client: AStoreClient,
        capacity_bytes: int,
        segment_size: int = 4 * 1024 * 1024,
        page_size: int = PAGE_SIZE,
        policy: str = "flat",
        space_priorities: Optional[Dict[int, int]] = None,
        compaction_enabled: bool = True,
        compaction_threshold: float = 0.35,
    ):
        if policy not in ("flat", "priority"):
            raise ValueError("policy must be 'flat' or 'priority'")
        if capacity_bytes < segment_size:
            raise ValueError("EBP capacity below one segment")
        self.env = env
        self.client = client
        self.capacity_bytes = capacity_bytes
        self.segment_size = segment_size
        self.page_size = page_size
        self.policy = policy
        self.space_priorities = space_priorities or {}
        self.compaction_enabled = compaction_enabled
        self.compaction_threshold = compaction_threshold
        self.index: Dict[PageId, EbpEntry] = {}
        #: Every segment the pool owns; never more than ``max_segments``.
        self._segments: Dict[int, _SegmentState] = {}
        #: Active (append) segment per priority area.
        self._active: Dict[int, _SegmentState] = {}
        #: Empty segments the cleaner holds ready for the next roll-over.
        self._spares: List[_SegmentState] = []
        #: The running cleaner pass, if any (at most one at a time).
        self._cleaner: Optional[Process] = None
        #: (priority, wake event) of writers parked for room.
        self._parked: List[Tuple[int, Event]] = []
        self.index_mutex = Resource(env)
        #: Residency probe of the DRAM buffer pool in front of this EBP
        #: (the engine sets it): the cleaner drops rather than keeps
        #: copies of pages it answers True for.
        self.resident: Callable[[PageId], bool] = _never
        #: Latest LSN per page as modified in the engine's local BP; batched
        #: to AStore servers for post-crash staleness pruning.
        self._dirty_lsns: Dict[PageId, int] = {}
        self.hits = 0
        self.misses = 0
        self.stale_hits = 0
        self.pages_written = 0
        self.evictions = 0
        #: Copies dropped because a DRAM write made them dead, and because
        #: DRAM held their page when the cleaner compacted their segment.
        self.dropped_dead = 0
        self.dropped_resident = 0
        self.compactions = 0
        self.segments_released = 0
        self.pages_purged = 0
        self.pages_reclaimed = 0
        #: Silent degrades: evicted pages the engine shed at its queue
        #: limit, appends AStore refused, writers parked for the cleaner.
        self.writes_dropped = 0
        self.append_failures = 0
        self.cleaner_waits = 0
        self.obs = obs_of(env)

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------
    @property
    def live_bytes(self) -> int:
        return sum(s.live_bytes for s in self._segments.values())

    @property
    def allocated_bytes(self) -> int:
        return len(self._segments) * self.segment_size

    @property
    def max_segments(self) -> int:
        return max(1, self.capacity_bytes // self.segment_size)

    def priority_of(self, page_id: PageId) -> int:
        if self.policy == "flat":
            return 0
        return self.space_priorities.get(page_id.space_no, 0)

    def _index_cs(self):
        """Generator: the serialised index critical section."""
        mutex = self.index_mutex
        grant = mutex.acquire()
        try:
            if grant is not None:
                yield grant
            yield self.env.timeout(INDEX_CS_COST)
        finally:
            mutex.release(grant)

    def _adopt(self, segment_id: int) -> _SegmentState:
        """Account for a segment found on a server (never appended to
        again until the cleaner has recycled it)."""
        state = self._segments.get(segment_id)
        if state is None:
            state = _SegmentState(segment_id, self.segment_size)
            self._segments[segment_id] = state
        return state

    def _forget_segment(self, segment: _SegmentState) -> None:
        """Stop accounting for a segment whose server lost it."""
        self._segments.pop(segment.segment_id, None)
        self._retire(segment)
        if segment in self._spares:
            self._spares.remove(segment)

    # ------------------------------------------------------------------
    # Write path (page evicted from the DRAM buffer pool)
    # ------------------------------------------------------------------
    def cache_page(self, page: Page):
        """Generator: append an evicted page to the EBP (best effort).

        Returns True if cached.  Failures (AStore trouble, no room the
        priority rule lets the cleaner free) drop the page silently -
        correctness never depends on the EBP.
        """
        tracer = self.obs.tracer
        if not tracer.enabled:
            return (yield from self._cache_page(page))
        span = tracer.span(
            "ebp.cache_page", tags={"page": str(page.page_id)}
        )
        try:
            cached = yield from self._cache_page(page)
            span.set_tag("cached", cached)
            return cached
        finally:
            span.finish()

    def _cache_page(self, page: Page):
        page_id = page.page_id
        priority = self.priority_of(page_id)
        yield from self._index_cs()
        old = self.index.get(page_id)
        if old is not None and old.lsn >= page.page_lsn:
            return True  # already cached at this version or newer
        while (slot := self._reserve_slot(priority)) is None:
            # No room without cleaning: park until the cleaner reports.
            self.cleaner_waits += 1
            room = self.env.event()
            self._parked.append((priority, room))
            self._kick_cleaner()
            if not (yield room):
                return False
        segment, offset = slot
        try:
            payload = (EBP_PAGE_TAG, page_id, page.page_lsn, page.clone())
            try:
                _, length = yield from self.client.write(
                    segment.segment_id, self.page_size, payload, offset
                )
            except StorageError:
                self.append_failures += 1
                self._retire(segment)
                return False
            yield from self._index_cs()
            if self._segments.get(segment.segment_id) is not segment:
                return False  # its server was purged while we appended
            current = self.index.get(page_id)
            if current is not None and current.lsn >= page.page_lsn:
                # A racing writer cached this version or a newer one.
                segment.garbage_bytes += length
                return True
            if current is not None:
                self._mark_garbage(current)
            self.index[page_id] = EbpEntry(
                page.page_lsn, segment.segment_id, offset, length, priority
            )
            segment.live_bytes += length
            self._dirty_lsns.pop(page_id, None)
            self.pages_written += 1
            return True
        finally:
            segment.unpin()

    def _reserve_slot(self, priority: int
                      ) -> Optional[Tuple[_SegmentState, int]]:
        """Pin this area's append segment with one page slot reserved.

        A full segment is retired and the area rolls onto a spare one.
        Returns (segment, slot offset), or None when that takes cleaning
        first.
        """
        active = self._active.get(priority)
        if active is not None and active.reserved + self.page_size > active.size:
            del self._active[priority]
            active = None
        if active is None:
            active = next(
                (s for s in self._spares if s.priority <= priority), None
            )
            if active is None:
                return None
            self._spares.remove(active)
            active.priority = priority
            self._active[priority] = active
            if not self._spares:
                self._kick_cleaner()
        offset = active.reserved
        active.reserved += self.page_size
        active.pins += 1
        return active, offset

    def _retire(self, segment: _SegmentState) -> None:
        """Stop appending to ``segment``; it becomes a candidate victim."""
        for priority, active in list(self._active.items()):
            if active is segment:
                del self._active[priority]

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get_page(self, page_id: PageId, required_lsn: int = 0):
        """Generator: fetch a cached page at >= required_lsn, or None.

        A hit whose cached LSN is older than required is *stale*: the entry
        is dropped (its bytes become garbage) and the caller falls through
        to PageStore.
        """
        tracer = self.obs.tracer
        if not tracer.enabled:
            return (yield from self._get_page(page_id, required_lsn))
        span = tracer.span("ebp.get_page", tags={"page": str(page_id)})
        try:
            page = yield from self._get_page(page_id, required_lsn)
            span.set_tag("hit", page is not None)
            return page
        finally:
            span.finish()

    def _get_page(self, page_id: PageId, required_lsn: int = 0):
        yield from self._index_cs()
        entry = self.index.get(page_id)
        if entry is None:
            self.misses += 1
            return None
        if entry.lsn < required_lsn:
            self.stale_hits += 1
            self.drop_entry(page_id, entry)
            return None
        segment = self._segments[entry.segment_id]
        segment.pins += 1
        try:
            payload = yield from self.client.read(
                entry.segment_id, entry.offset, entry.length
            )
        except StorageError:
            yield from self._index_cs()
            self.drop_entry(page_id, entry)
            self.misses += 1
            return None
        finally:
            segment.unpin()
        if describe_ebp_payload(payload) != (page_id, entry.lsn):
            self.drop_entry(page_id, entry)
            self.misses += 1
            return None
        yield from self._index_cs()
        self.hits += 1
        return payload[3].clone()

    def note_page_modified(self, page_id: PageId, lsn: int) -> None:
        """Record that the engine modified a page that the EBP caches.

        A copy older than ``lsn`` can never be served again, so it leaves
        the index as garbage now.  The (page_id, lsn) pairs are pushed to
        AStore servers in batches so a post-crash index rebuild can prune
        the copy all the same.
        """
        entry = self.index.get(page_id)
        if entry is None:
            return
        self._dirty_lsns[page_id] = lsn
        if entry.lsn < lsn:
            del self.index[page_id]
            self._mark_garbage(entry)
            self.dropped_dead += 1

    def flush_dirty_lsns(self):
        """Generator: push the batched latest-LSN map to every server."""
        if not self._dirty_lsns:
            return 0
        batch = dict(self._dirty_lsns)
        self._dirty_lsns.clear()
        for server in self.client.servers.values():
            if not server.reachable_from(self.client.client_id):
                continue
            yield from self.client.control_net.call(
                64 + 16 * len(batch), 64, server_cpu=server.cpu
            )
            server.record_page_lsns(batch)
        return len(batch)

    # ------------------------------------------------------------------
    # Garbage accounting
    # ------------------------------------------------------------------
    def _mark_garbage(self, entry: EbpEntry) -> None:
        segment = self._segments.get(entry.segment_id)
        if segment is not None:
            segment.live_bytes -= entry.length
            segment.garbage_bytes += entry.length

    def drop_entry(self, page_id: PageId, entry: EbpEntry) -> None:
        """Forget ``entry``, ``page_id``'s copy, unless the index has moved
        on from it: the copy is garbage, and no later lookup or pushed scan
        reads it."""
        if self.index.get(page_id) is entry:
            del self.index[page_id]
            self._mark_garbage(entry)

    def _entries_in(self, segment: _SegmentState) -> List[Tuple[PageId, EbpEntry]]:
        return [
            (page_id, entry)
            for page_id, entry in self.index.items()
            if entry.segment_id == segment.segment_id
        ]

    # ------------------------------------------------------------------
    # The cleaner: the one place segments are created and recycled
    # ------------------------------------------------------------------
    def _kick_cleaner(self) -> None:
        if self._cleaner is None:
            self._cleaner = self.env.process(self._clean(), name="ebp-cleaner")

    def _clean(self):
        """Generator: one cleaner pass - ready one empty segment.

        Started when an area rolls onto the last spare (so the next
        roll-over finds one waiting) and by writers that found none.
        Parked writers learn the outcome: True to try again, False when
        nothing could be freed for any of them.
        """
        demand = max((priority for priority, _ in self._parked), default=None)
        try:
            freed = yield from self._ready_spare(demand)
        finally:
            self._cleaner = None
        parked, self._parked = self._parked, []
        for _, room in parked:
            room.succeed(freed)

    def _ready_spare(self, demand: Optional[int]):
        """Generator: add one empty segment to the spares, or return False.

        Below ``max_segments`` the pool grows (CM create); at the limit a
        victim is emptied and recycled in place by one server reset RPC.
        """
        if len(self._segments) < self.max_segments:
            try:
                segment_id = yield from self.client.create(
                    self.segment_size, replication=1
                )
            except StorageError:
                return False
            spare = _SegmentState(segment_id, self.segment_size, _UNOWNED)
            self._segments[segment_id] = spare
            self._spares.append(spare)
            return True
        victim = self._pick_victim(demand)
        if victim is None:
            return False
        self._retire(victim)
        if self.compaction_enabled:
            # Copies of DRAM-resident pages duplicate DRAM: count them
            # with the garbage, and drop rather than copy them.
            duplicates = [
                (page_id, entry) for page_id, entry in self._entries_in(victim)
                if self.resident(page_id)
            ]
            reclaimable = victim.garbage_bytes + sum(
                entry.length for _, entry in duplicates)
            total = victim.live_bytes + victim.garbage_bytes
            if (reclaimable / total if total else 0.0) >= self.compaction_threshold:
                for page_id, entry in duplicates:
                    self.drop_entry(page_id, entry)
                    self.dropped_resident += 1
                yield from self._copy_forward(victim)
                self.compactions += 1
        while True:
            # Appends still in flight index their page when they land, so
            # drop again once the last pin is gone.
            for page_id, _entry in self._entries_in(victim):
                del self.index[page_id]
                self.evictions += 1
            if not victim.pins:
                break
            victim.unpinned = self.env.event()
            yield victim.unpinned
        try:
            yield from self.client.reset(victim.segment_id)
        except StorageError:
            self._forget_segment(victim)
            return False
        victim.live_bytes = victim.garbage_bytes = victim.reserved = 0
        self._spares.append(victim)
        self.segments_released += 1
        return True

    def _pick_victim(self, demand: Optional[int]) -> Optional[_SegmentState]:
        """Lowest priority area first, then most garbage.

        Only segments no area appends to are taken ahead of need; a parked
        writer of priority ``demand`` may also claim another area's append
        segment, but never a segment of a higher-priority area (pages may
        only occupy same-or-lower-priority space).
        """
        appending = list(self._active.values())
        candidates = [
            s for s in self._segments.values() if s not in self._spares
        ]
        if demand is None:
            candidates = [s for s in candidates if s not in appending]
        else:
            candidates = [s for s in candidates if s.priority <= demand]
        return min(
            candidates,
            key=lambda s: (s.priority, s in appending, -s.garbage_ratio),
            default=None,
        )

    def _copy_forward(self, victim: _SegmentState):
        """Generator: compaction - rewrite the victim's live pages into
        their areas' append segments, for as long as those have room."""
        for page_id, entry in self._entries_in(victim):
            if self.index.get(page_id) is not entry:
                continue  # superseded while earlier pages were copied
            slot = self._reserve_slot(entry.priority)
            if slot is None:
                return
            target, offset = slot
            try:
                payload = yield from self.client.read(
                    entry.segment_id, entry.offset, entry.length
                )
                _, length = yield from self.client.write(
                    target.segment_id, entry.length, payload, offset
                )
            except StorageError:
                return
            finally:
                target.unpin()
            if self.index.get(page_id) is entry:
                self._mark_garbage(entry)
                self.index[page_id] = EbpEntry(
                    entry.lsn, target.segment_id, offset, length, entry.priority
                )
                target.live_bytes += length
            else:
                target.garbage_bytes += length

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def purge_server(self, server_id: str) -> int:
        """Drop every index entry whose segment lived on a crashed server.

        Hit-ratio event only.  Returns entries purged.
        """
        lost_segments = set()
        for segment_id in list(self._segments):
            meta = self.client.open_segments.get(segment_id)
            if meta is None or server_id in meta.route.replicas:
                # meta None: the CM already dropped the route (total loss
                # of a single-replica segment) and the route-refresh loop
                # erased our cached copy - that *is* the lost case.
                lost_segments.add(segment_id)
        purged = 0
        for page_id in list(self.index):
            if self.index[page_id].segment_id in lost_segments:
                del self.index[page_id]
                purged += 1
        for segment_id in lost_segments:
            self._forget_segment(self._segments[segment_id])
        self.pages_purged += purged
        return purged

    def reclaim_server(self, server_id: str):
        """Generator: re-adopt EBP pages that survived a server restart.

        The paper's last future-work item (Section VIII): because AStore
        uses PMem, a restarted server still holds its EBP pages.  We
        re-register each surviving EBP segment with the CM, rescue it from
        stale-cleanup, scan it (with latest-LSN pruning), and re-add the
        winning copies to the index.  Returns pages reclaimed.
        """
        server = self.client.servers.get(server_id)
        if server is None or not server.alive:
            raise StorageError("server %s not available" % server_id)
        reclaimed = 0
        survivors = yield from server.scan_ebp_pages(
            describe_ebp_payload, include_stale=True
        )
        by_segment: Dict[int, List] = {}
        for entry in survivors:
            by_segment.setdefault(entry[2], []).append(entry)
        for segment_id, entries in by_segment.items():
            segment = server.segments.get(segment_id)
            if segment is None:
                continue
            if (segment_id not in self._segments
                    and len(self._segments) >= self.max_segments):
                continue  # the pool regrew to its limit meanwhile
            try:
                self.client.cm.readopt_segment(
                    segment_id, server_id, segment.size,
                    owner=self.client.client_id,
                )
            except StorageError:
                continue  # routed again already, or raced with cleanup
            server.unmark_stale(segment_id)
            yield from self.client.open(segment_id)
            state = self._adopt(segment_id)
            for page_id, lsn, _seg, offset, length in entries:
                current = self.index.get(page_id)
                if current is not None and current.lsn >= lsn:
                    continue
                if current is not None:
                    self._mark_garbage(current)
                self.index[page_id] = EbpEntry(
                    lsn, segment_id, offset, length, self.priority_of(page_id)
                )
                state.live_bytes += length
                reclaimed += 1
        self.pages_reclaimed += reclaimed
        return reclaimed

    def rebuild_index_after_crash(self):
        """Generator: rebuild the EBP index after a DBEngine failure.

        Each AStore server scans its PMem, prunes pages older than the
        engine-pushed latest-LSN map, and returns survivors; the newest
        copy of each page wins (paper Section V-E).  Returns entry count.
        """
        self.index.clear()
        best: Dict[PageId, Tuple[int, int, int, int]] = {}
        for server in self.client.servers.values():
            if not server.alive:
                continue
            survivors = yield from server.scan_ebp_pages(describe_ebp_payload)
            for page_id, lsn, segment_id, offset, length in survivors:
                current = best.get(page_id)
                if current is None or lsn > current[0]:
                    best[page_id] = (lsn, segment_id, offset, length)
        for page_id, (lsn, segment_id, offset, length) in best.items():
            if segment_id not in self.client.open_segments:
                try:
                    yield from self.client.open(segment_id)
                except StorageError:
                    continue
            self.index[page_id] = EbpEntry(
                lsn, segment_id, offset, length, self.priority_of(page_id)
            )
            self._adopt(segment_id).live_bytes += length
        return len(self.index)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses + self.stale_hits
        return self.hits / total if total else 0.0
