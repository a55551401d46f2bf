"""The one REDO consumer: feed tailing, PageStore catch-up, crash/recover.

A standby replica's page apply and a materialized view's Z-set fold are
two *sinks* of one durable delta stream.  ``RedoApplier`` owns what is
the same for both: the ``RedoFeed`` cursor and its poll loop, the
applied-LSN ``watermark`` with ``wait_for_lsn`` / ``caught_up``, the
``alive`` / ``epoch`` / ``crash`` / ``recover`` lifecycle, and the single
catch-up path - a fuzzy PageStore scan, never a log read: the
SegmentRing recycles a segment as soon as PageStore applied it, so
PageStore is the only complete history.

Zero-lag subscription rule: a feed subscribed while the durable tail
equals the watermark is live at once - there is nothing to catch up.

The applier reads its source only through ``subscribe_redo``,
``log.persistent_lsn``, ``catalog`` (via the sink's ``scan_tables``),
``page_versions`` and ``read_page`` (which waits for the image's REDO
to ship); anything offering those five can feed a consumer.  A sink
provides ``scan_tables()`` (source tables a catch-up must scan),
``rebuild(scanned)`` (replace all state from ``[(table, page), ...]`` in
one host step), ``apply(batch)`` (apply LSN-ordered durable records and
return how many it consumed - fewer than ``len(batch)`` asks for a
rescan) and ``reset()`` (drop volatile state on crash).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common import MS, StorageError
from ..cost import PAGE_CPU, RECORD_CPU
from ..sim.core import Environment
from ..sim.resources import CpuPool

__all__ = ["RedoApplier"]


class RedoApplier:
    """Tails one REDO feed into one sink; see the module docstring.

    Every applier starts polling its feed each ``poll_interval`` (2 ms);
    a fleet with per-replica cadences and the views scenario's stall
    reassign the attribute.  :meth:`wait_for_lsn` re-checks the
    watermark every ``wait_poll``.
    """

    wait_poll = 0.5 * MS

    def __init__(
        self,
        env: Environment,
        source,
        sink,
        cpu: CpuPool,
        name: str,
        feed_bound: int = 65536,
    ):
        self.env = env
        self.source = source
        self.sink = sink
        self.cpu = cpu
        self.name = name
        self.feed_bound = feed_bound
        self.poll_interval = 2 * MS
        self.feed = None
        #: The sink's state is exactly the source at this LSN.
        self.watermark = 0
        #: False between :meth:`crash` and the end of :meth:`recover`.
        self.alive = True
        #: Bumped per crash; work that straddles one discards itself.
        self.epoch = 0
        self.crashes = 0
        self.recoveries = 0
        self.lsn_waits = 0
        self.lsn_wait_timeouts = 0
        #: Catch-up scans started, by cause.
        self.scans: Dict[str, int] = {
            "initial": 0, "overflow": 0, "crash": 0, "decode_miss": 0,
        }
        #: Cause of a catch-up the poll loop still owes, else None.
        self._pending: Optional[str] = None
        #: True while a :meth:`recover` for the current crash is running.
        self._recovering = False

    @property
    def rescans(self) -> int:
        return sum(self.scans.values())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Subscribe to the source's durable REDO and start tailing."""
        if self.feed is not None:
            return
        self.feed = self.source.subscribe_redo(bound=self.feed_bound)
        if self.source.log.persistent_lsn != self.watermark:
            self.request_scan("initial")
        self.feed.stale = self._pending is not None
        self.env.process(self._tail(), name=self.name)

    def request_scan(self, cause: str) -> None:
        """Have the poll loop rebuild the sink by a catch-up scan."""
        if self._pending is None:
            self._pending = cause

    def crash(self) -> None:
        """Power-fail the consumer: all volatile state is lost, the poll
        loop idles and the publisher skips the stale feed."""
        self.alive = False
        self.epoch += 1
        self.crashes += 1
        self.watermark = 0
        self._pending = None
        self._recovering = False
        if self.feed is not None:
            self.feed.stale = True
            self.feed.clear()
        self.sink.reset()

    def recover(self):
        """Generator: catch up from PageStore, then come back alive.

        Runs in the caller's process and lets ``StorageError`` out, so
        the caller decides what a failed rebuild means.  Returns pages
        scanned, or None when another crash abandoned the scan or a
        recovery from this crash is already running (two catch-ups at
        once would each clear the feed the other relies on).
        """
        if self.alive:
            return 0
        if self._recovering:
            return None
        self._recovering = True
        epoch = self.epoch
        try:
            pages = yield from self._catch_up("crash")
        finally:
            if self.epoch == epoch:
                self._recovering = False
        if pages is not None:
            self.alive = True
            self.recoveries += 1
        return pages

    # ------------------------------------------------------------------
    # Tailing and catch-up
    # ------------------------------------------------------------------
    def _tail(self):
        """Poll the feed and apply what became durable since last poll
        (a queue group commit fills at flush time: the same LSN-ordered
        view a streamed log gives)."""
        env = self.env
        feed = self.feed
        while True:
            yield env.timeout(self.poll_interval)
            if not self.alive:
                continue
            cause = self._pending or ("overflow" if feed.stale else None)
            if cause is not None:
                try:
                    yield from self._catch_up(cause)
                except StorageError:
                    # Storage degraded: the sink keeps its old state and
                    # the scan is retried on a later poll.
                    if self.alive:
                        self.request_scan(cause)
                continue
            batch = feed.drain()
            if batch and batch[0].lsn <= self.watermark:
                # Safety net: drop records a catch-up already covered.
                batch = [r for r in batch if r.lsn > self.watermark]
            if not batch:
                continue
            epoch = self.epoch
            yield from self.cpu.consume(RECORD_CPU * len(batch))
            if self.epoch != epoch:
                # A crash landed while the batch was being charged: the
                # state it targeted is gone, recovery re-reads it all.
                continue
            consumed = self.sink.apply(batch)
            if consumed:
                self.watermark = batch[consumed - 1].lsn
            if consumed < len(batch):
                self.request_scan("decode_miss")

    def _catch_up(self, cause: str):
        """Generator: rebuild the sink from a fuzzy PageStore scan.

        Clears the feed and marks it live *in the same host step* as
        capturing the durable tail (no publish can slip between), reads
        every page at its authoritative version, goes round again if the
        feed overflowed meanwhile, then rebuilds the sink and stamps the
        watermark with the captured tail.  Younger records arrive
        through the feed; the sink skips those an image already holds by
        page LSN.  Returns pages scanned, or None when a crash abandoned
        the scan.
        """
        source = self.source
        feed = self.feed
        epoch = self.epoch
        while True:
            feed.clear()
            feed.stale = False
            self._pending = None
            tail = source.log.persistent_lsn
            self.scans[cause] += 1
            scanned = []
            # The table list is a snapshot: a table created mid-scan has
            # only records above ``tail`` and arrives through the feed.
            for table in list(self.sink.scan_tables()):
                for page_no in sorted(table.page_nos):
                    page_id = table.page_id(page_no)
                    page = yield from source.read_page(
                        page_id, source.page_versions.get(page_id, 0)
                    )
                    yield from self.cpu.consume(
                        PAGE_CPU + RECORD_CPU * max(1, page.row_count)
                    )
                    if self.epoch != epoch:
                        return None
                    scanned.append((table, page))
            if feed.stale:
                cause = "overflow"
                continue
            self.sink.rebuild(scanned)
            self.watermark = tail
            return len(scanned)

    # ------------------------------------------------------------------
    # Consistency gate
    # ------------------------------------------------------------------
    def wait_for_lsn(self, lsn: int, max_wait: float):
        """Generator: True once the watermark covers ``lsn``; False on
        timeout, and as soon as the consumer is seen dead, so a reader
        reroutes instead of stalling on a corpse."""
        if not self.alive:
            return False
        if self.watermark >= lsn:
            return True
        self.lsn_waits += 1
        deadline = self.env.now + max_wait
        while True:
            yield self.env.timeout(self.wait_poll)
            if self.alive and self.watermark >= lsn:
                return True
            if not self.alive or self.env.now >= deadline:
                self.lsn_wait_timeouts += 1
                return False

    def caught_up(self) -> bool:
        """True when live on the feed and applied to the durable tail."""
        feed = self.feed
        return (
            self.alive
            and feed is not None
            and not feed.stale
            and self._pending is None
            and not len(feed)
            and self.watermark >= self.source.log.persistent_lsn
        )
