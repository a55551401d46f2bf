"""PageStore: page persistence and continuous REDO replay.

Paper Section III.  PageStore owns *segments*; every data page maps to one
segment, and a segment is replicated (quorum writes, default 3 replicas /
ack at 2).  REDO records shipped to a segment carry a *back-link* - the LSN
of the preceding record of the same segment - letting a replica detect
missing records and *gossip* with its peers to fetch them.

A replica applies a record to its page image in the host step that chains
it, and its server charges ``APPLY_COST_PER_RECORD`` once for the records
it chained: a ship's before its ack, a gossip round's on the lagging
server.  So a page image is always its chain, nothing waits to be applied,
and no timer replays anything.  A page read at a required LSN never serves
an image behind it.  Reading a page costs ~1 ms end to end (RPC + lookup +
materialisation), the number the EBP is designed to beat.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Dict, List, Optional

from ..common import US, PageId, StorageError
from ..cost import APPLY_COST_PER_RECORD, PAGE_MATERIALIZE_COST
from ..engine.page import Page, apply_op
from ..engine.wal import RedoRecord, encode_records_size
from ..sim.core import Environment, FanOut
from ..sim.devices import SsdDevice
from ..sim.network import RpcNetwork
from ..sim.rand import Rng, SeedSequence
from ..sim.resources import CpuPool

__all__ = ["PageStoreService", "PageStoreServer", "SegmentReplica"]


_lsn_of = attrgetter("lsn")


def _upper_bound(history: List[RedoRecord], lsn: int) -> int:
    """Index of the first record of LSN-ordered ``history`` above ``lsn``."""
    lo, hi = 0, len(history)
    while lo < hi:
        mid = (lo + hi) // 2
        if history[mid].lsn <= lsn:
            lo = mid + 1
        else:
            hi = mid
    return lo


class SegmentReplica:
    """One replica of a PageStore segment: pages + the record chain.

    Every chained record is applied to its page as it is chained.
    """

    def __init__(self):
        self.pages: Dict[PageId, Page] = {}
        #: LSN of the last record appended to this replica's chain.
        self.chain_lsn = -1
        #: Out-of-order records parked until the gap before them fills.
        self.parked: Dict[int, RedoRecord] = {}  # back_link -> record
        #: The chained records a peer may still ask gossip for, in chain
        #: (= LSN) order: everything above the lowest ``chain_lsn`` among
        #: the segment's replicas (:meth:`truncate_history`).  In production
        #: this is the segment's on-disk log, GC'd the same way.
        self.history: List[RedoRecord] = []

    def accept(self, record: RedoRecord) -> int:
        """Chain-append and apply a record; park it if its back-link shows
        a gap.  Returns how many records it chained: 0 for a duplicate or
        a parked record, more when it unparks successors."""
        if record.lsn <= self.chain_lsn:
            # Duplicate delivery (gossip + direct ship): a segment's chain
            # is in LSN order, so it already holds this record.
            return 0
        if record.back_link != self.chain_lsn:
            self.parked[record.back_link] = record
            return 0
        self._extend(record)
        chained = 1
        # Unpark any successors now connectable.
        while self.chain_lsn in self.parked:
            self._extend(self.parked.pop(self.chain_lsn))
            chained += 1
        return chained

    def accept_batch(self, records: List[RedoRecord]) -> int:
        """:meth:`accept` each record in order; a batch that continues the
        chain unbroken - what a healthy ship delivers - is taken in one
        step.  Returns how many records it chained."""
        chain = self.chain_lsn
        if not self.parked:
            for record in records:
                if record.back_link != chain or record.lsn <= chain:
                    break
                chain = record.lsn
            else:
                self.history.extend(records)
                for record in records:
                    self._apply(record)
                self.chain_lsn = chain
                return len(records)
        return sum(self.accept(record) for record in records)

    def _extend(self, record: RedoRecord) -> None:
        self.history.append(record)
        self._apply(record)
        self.chain_lsn = record.lsn

    def _apply(self, record: RedoRecord) -> None:
        page = self.pages.get(record.page_id)
        if page is None:
            page = self.pages[record.page_id] = Page(record.page_id)
        apply_op(page, record.op, record.lsn)

    def truncate_history(self, floor: int) -> None:
        """Forget chained records at or below ``floor``: no replica of the
        segment is behind them, so no gossip will ask."""
        history = self.history
        if history and history[0].lsn <= floor:
            del history[:_upper_bound(history, floor)]

    def known_between(self, after_lsn: int, up_to: int) -> List[RedoRecord]:
        """Held records in ``(after_lsn, up_to]`` by LSN: the chained ones,
        then whichever parked ones fall in the range - a parked record is
        durably received, merely not yet connectable *here*."""
        history = self.history
        records = history[
            _upper_bound(history, after_lsn):_upper_bound(history, up_to)
        ]
        if self.parked:
            records.extend(sorted(
                (record for record in self.parked.values()
                 if after_lsn < record.lsn <= up_to),
                key=_lsn_of,
            ))
        return records


class PageStoreServer:
    """A PageStore data server hosting many segment replicas."""

    def __init__(self, env: Environment, rng: Rng, server_id: str,
                 cpu_cores: int = 16):
        self.env = env
        self.rng = rng
        self.server_id = server_id
        self.cpu = CpuPool(env, cores=cpu_cores)
        self.device = SsdDevice(env, rng, name="%s-ssd" % server_id)
        self.replicas: Dict[int, SegmentReplica] = {}
        self.alive = True
        self.records_received = 0
        self.gossip_served = 0

    def _check_alive(self) -> None:
        if not self.alive:
            raise StorageError("pagestore server %s down" % self.server_id)

    def replica(self, segment_no: int) -> SegmentReplica:
        replica = self.replicas.get(segment_no)
        if replica is None:
            replica = SegmentReplica()
            self.replicas[segment_no] = replica
        return replica

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def receive_records(self, segment_no: int, records: List[RedoRecord]):
        """Generator: durably accept a shipped record batch, chain and
        apply it, and pay the apply before the ack - no checkpointing
        needed, nothing left to replay."""
        self._check_alive()
        nbytes = encode_records_size(records)
        yield from self.cpu.consume(5 * US + 0.2 * US * len(records))
        yield from self.device.write(nbytes)
        yield from self.apply_charge(
            self.replica(segment_no).accept_batch(records))
        self.records_received += len(records)

    def apply_charge(self, chained: int):
        """Generator: the CPU of applying ``chained`` records."""
        if chained:
            yield from self.cpu.consume(APPLY_COST_PER_RECORD * chained)

    def serve_gossip(self, segment_no: int, after_lsn: int,
                     up_to: int) -> List[RedoRecord]:
        """Return known records in (after_lsn, up_to] for a lagging peer
        (chained history and locally *parked* records alike)."""
        self._check_alive()
        replica = self.replicas.get(segment_no)
        if replica is None:
            return []
        records = replica.known_between(after_lsn, up_to)
        self.gossip_served += len(records)
        return records

    # ------------------------------------------------------------------
    # Page reads
    # ------------------------------------------------------------------
    def read_page(self, segment_no: int, page_id: PageId, min_lsn: int):
        """Generator: materialise and return a page image (clone) of
        everything chained.  Raises if the page is unknown or behind
        ``min_lsn``."""
        self._check_alive()
        yield from self.cpu.consume(
            self.rng.lognormal_around(PAGE_MATERIALIZE_COST, 0.20)
        )
        replica = self.replica(segment_no)
        page = replica.pages.get(page_id)
        if page is None or page.page_lsn < min_lsn:
            raise StorageError("page %s unknown to %s or behind %d"
                               % (page_id, self.server_id, min_lsn))
        yield from self.device.read(page.size)
        return page.clone()


class PageStoreService:
    """Client-side view: segment mapping, quorum shipping, page reads."""

    def __init__(
        self,
        env: Environment,
        seeds: SeedSequence,
        num_servers: int = 3,
        num_segments: int = 12,
        replication: int = 3,
        quorum: int = 2,
    ):
        if replication > num_servers:
            raise ValueError("replication exceeds server count")
        if quorum > replication:
            raise ValueError("quorum exceeds replication")
        self.env = env
        self.network = RpcNetwork(env, seeds.stream("pagestore-net"))
        self.gossip_network = RpcNetwork(env, seeds.stream("pagestore-gossip"))
        self.servers: List[PageStoreServer] = [
            PageStoreServer(env, seeds.stream("pagestore-%d" % i), "ps-%d" % i)
            for i in range(num_servers)
        ]
        self.num_segments = num_segments
        self.replication = replication
        self.quorum = quorum
        #: Per segment, the LSNs shipped to it in chain order, from the
        #: newest one every replica has chained (-1: none yet).  The last
        #: is the back-link the next record is stamped with.  The log
        #: never holds a back-link, so a record re-shipped after an engine
        #: crash - decoded from the log - takes the LSN before its own,
        #: and the chain it re-sends is the one first sent.
        self._chains: Dict[int, List[int]] = {
            s: [-1] for s in range(num_segments)}
        self.ships = 0
        self.page_reads = 0
        self.gossip_rounds = 0

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def segment_of(self, page_id: PageId) -> int:
        return hash(page_id) % self.num_segments

    def replicas_of(self, segment_no: int) -> List[PageStoreServer]:
        start = segment_no % len(self.servers)
        return [
            self.servers[(start + i) % len(self.servers)]
            for i in range(self.replication)
        ]

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------
    def ship_records(self, records: List[RedoRecord]):
        """Generator: group by segment, stamp back-links, quorum-ship.

        Returns once every segment batch reached its quorum; remaining
        replicas complete in the background (and gossip can fill any that
        fail).  A record an earlier ship stamped (a failed ship's, a
        re-ship's after an engine crash) gets the back-link it was
        stamped with.
        """
        by_segment: Dict[int, List[RedoRecord]] = {}
        chains = self._chains
        for record in records:
            segment_no = self.segment_of(record.page_id)
            chain, lsn = chains[segment_no], record.lsn
            if lsn > chain[-1]:
                record.back_link = chain[-1]
                chain.append(lsn)
            else:
                index = bisect_left(chain, lsn)
                if 0 < index < len(chain) and chain[index] == lsn:
                    record.back_link = chain[index - 1]
                # else every replica holds it: a duplicate wherever it lands
            by_segment.setdefault(segment_no, []).append(record)
        # Every segment's quorum ship starts now; waiting for them one
        # after the other takes as long as the slowest.  An unreachable
        # quorum fails the ship when its segment's turn comes.
        quorums = [
            self._ship_segment(segment_no, batch)
            for segment_no, batch in by_segment.items()
        ]
        try:
            for quorum in quorums:
                yield quorum
        except StorageError as exc:
            raise StorageError("quorum unreachable: %s" % exc) from exc
        for segment_no in by_segment:
            self._truncate_histories(segment_no)
        self.ships += 1

    def _truncate_histories(self, segment_no: int) -> None:
        """Drop, on every replica of the segment, the gossip history no
        replica - alive or not - can still be missing, and those records'
        LSNs from the segment's chain."""
        replicas = [
            server.replicas.get(segment_no)
            for server in self.replicas_of(segment_no)
        ]
        if None not in replicas:
            floor = min(replica.chain_lsn for replica in replicas)
            for replica in replicas:
                replica.truncate_history(floor)
            chain = self._chains[segment_no]
            cut = bisect_right(chain, floor) - 1
            if cut > 0:
                del chain[:cut]

    def _ship_segment(self, segment_no: int, batch: List[RedoRecord]) -> FanOut:
        """Start shipping ``batch`` to every replica of the segment; the
        event fires at the write quorum, stragglers finish behind it."""
        nbytes = encode_records_size(batch)
        return FanOut(
            self.env,
            [
                self._ship_to_server(server, segment_no, batch, nbytes)
                for server in self.replicas_of(segment_no)
            ],
            need=self.quorum,
        )

    def _ship_to_server(self, server: PageStoreServer, segment_no: int,
                        batch: List[RedoRecord], nbytes: int):
        yield from self.network.send(nbytes)
        yield from server.receive_records(segment_no, batch)
        yield from self.network.send(64)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read_page(self, page_id: PageId, min_lsn: int = 0):
        """Generator: RPC page read with replica failover and gossip fill.

        Returns a fresh :class:`Page` clone at LSN >= min_lsn, never one
        behind it: a replica short of ``min_lsn`` gossip-fills first, and
        one still short fails over like any other replica error.
        """
        segment_no = self.segment_of(page_id)
        replicas = self.replicas_of(segment_no)
        last_error: Optional[StorageError] = None
        for server in replicas:
            if not server.alive:
                continue
            try:
                yield from self.network.send(96)
                replica = server.replica(segment_no)
                if replica.parked or replica.chain_lsn < min_lsn:
                    yield from self._gossip_fill(server, segment_no)
                page = yield from server.read_page(segment_no, page_id, min_lsn)
                yield from self.network.send(page.size)
                self.page_reads += 1
                return page
            except StorageError as exc:
                last_error = exc
        raise last_error or StorageError(
            "no replica served page %s" % (page_id,)
        )

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------
    def _gossip_fill(self, lagging: PageStoreServer, segment_no: int):
        """Generator: fetch a lagging replica's missing records from peers.

        Each round targets the earliest gap and merges what *every* healthy
        peer has in that range - with quorum-2 shipping, consecutive missing
        records can be scattered across different peers, so a single-peer
        answer may only partially close a gap.  Rounds repeat until the
        chain is whole or no peer can contribute anything new.
        """
        for _ in range(32):  # a gap may hide further gaps behind it
            replica = lagging.replica(segment_no)
            if replica.parked:  # the earliest interior gap ends here
                up_to = min(replica.parked)
            else:
                # No interior gap - but quorum-2 shipping may have skipped
                # this replica for the newest records, a silent *tail* gap
                # its own back-links cannot reveal.  Peer chain tails are
                # visible on the same gossip exchange, so heal up to the
                # furthest live peer too.
                tail = max((peer.replicas[segment_no].chain_lsn
                            for peer in self.replicas_of(segment_no)
                            if peer is not lagging and peer.alive
                            and segment_no in peer.replicas), default=-1)
                if tail <= replica.chain_lsn:
                    return
                up_to = tail
            after_lsn = replica.chain_lsn
            progressed = False
            for peer in self.replicas_of(segment_no):
                if peer is lagging or not peer.alive:
                    continue
                yield from self.gossip_network.call(
                    64, 512, server_cpu=peer.cpu, server_cpu_seconds=3 * US
                )
                records = peer.serve_gossip(segment_no, after_lsn, up_to)
                if not records:
                    continue
                replica = lagging.replica(segment_no)
                parked = len(replica.parked)
                chained = sum(replica.accept(record) for record in records)
                if chained or len(replica.parked) != parked:
                    progressed = True
                self.gossip_rounds += 1
                yield from lagging.apply_charge(chained)
            if not progressed:
                return

    # ------------------------------------------------------------------
    # Introspection for push-down planning
    # ------------------------------------------------------------------
    def server_for_page(self, page_id: PageId) -> PageStoreServer:
        """The primary replica server for a page (PQ task grouping)."""
        return self.replicas_of(self.segment_of(page_id))[0]

    def pages_of_space(self, space_no: int) -> List[Page]:
        """All pages of a tablespace on each segment's first live replica
        (a recovery-path metadata query)."""
        pages: Dict[PageId, Page] = {}
        for segment_no in range(self.num_segments):
            server = next(
                (s for s in self.replicas_of(segment_no) if s.alive), None
            )
            if server is None:
                continue
            for page_id, page in server.replica(segment_no).pages.items():
                if page_id.space_no == space_no:
                    pages[page_id] = page
        return list(pages.values())
