"""DBEngine: veDB's compute layer.

Ties together the buffer pool, the (optional) extended buffer pool, the
REDO log (group commit through either LogStore or an AStore SegmentRing),
PageStore shipping, row locking, and crash recovery.

Timing model: every statement charges CPU on the engine's core pool (a
read's at its transaction's next wait, see ``DBEngine._pay``); every
page miss pays the storage path it actually takes (EBP over RDMA vs
PageStore over RPC); commits wait on group commit whose flush latency is
the log backend's.  All the paper's performance phenomena - log latency on
the commit path, lock-hold amplification, buffer-pool pressure from AP
scans, EBP index contention - emerge from these mechanisms rather than
being scripted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ..common import (
    MS,
    PageId,
    QueryError,
    RetryPolicy,
    StorageError,
    TransactionAborted,
)
from ..cost import ENGINE_ROW_CPU, ENGINE_STMT_CPU
from ..obs import obs_of
from ..sim.core import Environment, Event
from ..sim.rand import SeedSequence
from ..sim.resources import CpuPool, Store
from ..storage.pagestore import PageStoreService
from .bufferpool import BufferPool
from .ebp import ExtendedBufferPool
from .page import Page, PageOp, apply_op
from .table import Catalog, Table
from .txn import LockManager, Transaction, UndoEntry
from .wal import Demand, LogBuffer, LsnAllocator, RedoRecord

__all__ = ["DBEngine", "EngineConfig", "LogBackend", "RedoFeed"]

#: Commit / abort / prepare / decision markers address no page.
MARKER_PAGE = PageId(0, 0)


class _Tab:
    """The CPU debt of a txn-less read: no later wait would pay it."""

    __slots__ = ("cpu_debt",)

    def __init__(self):
        self.cpu_debt = 0.0


#: Interval for pushing EBP latest-LSN batches to AStore servers.
EBP_LSN_FLUSH_INTERVAL = 50 * MS
#: How long a row-lock waiter queues before it aborts.
LOCK_WAIT_TIMEOUT = 2.0
#: Degraded-mode policy for group-commit flushes: when the log backend
#: fails (all log replicas unreachable), commits are parked behind this
#: policy instead of killing the log-writer daemon.  The deadline bounds
#: how long an outage the engine rides through; a genuinely stuck log
#: (e.g. the ring wrapped onto un-applied REDO forever) still surfaces as
#: an error once the deadline elapses.
FLUSH_RETRY_POLICY = RetryPolicy(
    max_attempts=256,
    initial_backoff=5 * MS,
    max_backoff=1.0,
    deadline=30.0,
    op_timeout=None,
)


@dataclass
class EngineConfig:
    """Tunables for one DBEngine instance.

    Each field is set to a non-default value somewhere outside this
    module; the engine's fixed costs and timeouts are the module
    constants above.
    """

    cores: int = 20
    buffer_pool_bytes: int = 64 * 1024 * 1024
    #: Group-commit batch cap in bytes, and the unshipped log that ships
    #: (``test_ship_on_demand.py`` and ``test_group_commit.py`` shrink it).
    log_batch_bytes: int = 512 * 1024
    #: Background threads writing evicted pages to the EBP, and the bound
    #: on their queue: beyond it pages are dropped (the EBP is best-effort;
    #: under extreme eviction churn admission control beats backlog).
    #: ``test_engine_limits.py`` varies both.
    ebp_writer_threads: int = 8
    ebp_write_queue_limit: int = 512


class LogBackend:
    """Interface the engine's group commit flushes into.

    ``flush(records, nbytes)`` is a generator that returns once the batch
    is durable, persisted as :func:`~repro.engine.wal.encode_batch` bytes.
    ``recover()`` is a generator returning the persisted records, decoded
    and in LSN order, for crash recovery.
    """

    def flush(self, records: List[RedoRecord], nbytes: int):
        raise NotImplementedError

    def recover(self):
        raise NotImplementedError


class RedoFeed:
    """One subscriber's incremental REDO queue (host-side, bounded).

    Group commit publishes each durable batch once into every live
    feed's queue (:meth:`DBEngine.subscribe_redo`); the subscriber's
    :class:`repro.engine.redo_applier.RedoApplier` drains it every poll.
    ``stale`` means the queue no longer covers the subscriber's gap -
    after an overflow, and set by the subscriber on crash - and tells
    the applier to catch up by one PageStore scan before going
    incremental again.  Publishing skips stale feeds entirely (the scan
    re-reads everything durable anyway), so a dead subscriber costs
    nothing and a bounded queue never grows past ``bound``.

    All of this is plain Python bookkeeping: no events, no virtual time.
    """

    __slots__ = ("store", "bound", "stale", "published", "overflows")

    def __init__(self, env: Environment, bound: int = 65536):
        self.store = Store(env)
        self.bound = bound
        #: True until the subscriber goes live (and again after
        #: crash/overflow): the queue must not be trusted.
        self.stale = True
        self.published = 0
        self.overflows = 0

    def __len__(self) -> int:
        return len(self.store)

    def clear(self) -> None:
        self.store._items.clear()

    def drain(self) -> List[RedoRecord]:
        """Take every queued record (host-side; no event round-trip)."""
        items = self.store._items
        if not items:
            return []
        batch = list(items)
        items.clear()
        return batch


class DBEngine:
    """One veDB compute node."""

    def __init__(
        self,
        env: Environment,
        seeds: SeedSequence,
        config: EngineConfig,
        log_backend: LogBackend,
        pagestore: PageStoreService,
        ebp: Optional[ExtendedBufferPool] = None,
    ):
        self.env = env
        self.config = config
        self.log_backend = log_backend
        self.pagestore = pagestore
        self.ebp = ebp
        self.cpu = CpuPool(env, cores=config.cores)
        self.catalog = Catalog()
        self.locks = LockManager(env, wait_timeout=LOCK_WAIT_TIMEOUT)
        self.lsn = LsnAllocator()
        self.log = LogBuffer(env, self._flush_log, config.log_batch_bytes)
        self.buffer_pool = BufferPool(
            config.buffer_pool_bytes,
            on_evict=self._on_evict,
            can_evict=self._wal_allows_evict,
        )
        if ebp is not None:
            ebp.resident = self.buffer_pool.__contains__
        #: Authoritative latest LSN per page written by this engine.
        self.page_versions: Dict[PageId, int] = {}
        #: Durable page ops not yet shipped, the durable tail (markers
        #: included) shipping them reaches, their log bytes, and the open
        #: demands as (lsn, cause, event or None: nobody waits).
        self._ship_queue: List[RedoRecord] = []
        self._ship_tail = self._ship_bytes = self.shipped_lsn = 0
        self._ship_waiters: List[Tuple[int, str, Optional[Event]]] = []
        self._shipper_demand = Demand(env, self._ship_due)
        self.ship_demand = dict.fromkeys(("read", "ring", "recovery", "full"), 0)
        self._redo_feeds: List[RedoFeed] = []
        self._ebp_write_queue: Store = Store(env)
        self.committed = 0
        self.aborted = 0
        self.prepared = 0
        self.statements = 0
        self._daemons_started = False
        self.crashed = False
        #: Restart epoch: bumped by crash().  Transactions are stamped at
        #: begin(); any operation on a txn from an older epoch aborts -
        #: a generator that slept through crash+recovery must not mutate
        #: the rebuilt state.
        self.epoch = 0
        #: Degraded mode: set while group commit is parked behind flush
        #: retries because the log backend is failing (all replicas down).
        self.degraded = False
        self.flush_retries = 0
        self.degraded_episodes = 0
        self._flush_rng = seeds.stream("engine.log-flush-retry")
        # Observability: commit-wait and group-commit-flush latency
        # percentiles plus page-fetch path counters in the shared registry.
        self.obs = obs_of(env)
        self._lat_commit = self.obs.registry.latency("engine.txn.commit_wait")
        self._lat_log_flush = self.obs.registry.latency("engine.log.flush")
        registry = self.obs.registry
        registry.incr("engine.page_fetch.bp_hit", 0)
        registry.incr("engine.page_fetch.ebp_hit", 0)
        registry.incr("engine.page_fetch.pagestore_read", 0)

    # ------------------------------------------------------------------
    # Daemons
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the log writer, shipping, and EBP maintenance daemons."""
        if self._daemons_started:
            return
        self._daemons_started = True
        self.log.start()
        self.env.process(self._shipper(), name="redo-shipper")
        if self.ebp is not None:
            for index in range(self.config.ebp_writer_threads):
                self.env.process(
                    self._ebp_writer_loop(), name="ebp-writer-%d" % index
                )
            self.env.process(self._ebp_lsn_flush_loop(), name="ebp-lsn-flush")

    def subscribe_redo(self, bound: int = 65536) -> RedoFeed:
        """Register a per-subscriber incremental REDO feed.

        The feed starts ``stale``: the subscriber marks it live once it
        covers everything durable before the subscription (at once, if
        that is nothing); after that, group commit pushes each durable
        batch into the feed's queue and the subscriber only ever sees
        new records.
        """
        feed = RedoFeed(self.env, bound=bound)
        self._redo_feeds.append(feed)
        return feed

    def redo_feed_stats(self) -> Dict[str, int]:
        """Aggregate per-subscriber feed pressure (deployment gauges).

        ``depth`` is the total queued-record backlog across subscribers;
        ``overflows`` counts queue drops, each of which cost the
        subscriber one catch-up scan.
        """
        feeds = self._redo_feeds
        return {
            "subscribers": len(feeds),
            "depth": sum(len(feed) for feed in feeds),
            "published": sum(feed.published for feed in feeds),
            "overflows": sum(feed.overflows for feed in feeds),
            "stale": sum(1 for feed in feeds if feed.stale),
        }

    def _flush_log(self, records: List[RedoRecord], nbytes: int):
        start = self.env.now
        tracer = self.obs.tracer
        span = (
            tracer.span(
                "engine.log.flush",
                tags={"records": len(records), "bytes": nbytes},
            )
            if tracer.enabled
            else None
        )
        policy = FLUSH_RETRY_POLICY
        try:
            for attempt in range(policy.max_attempts):
                try:
                    yield from self.log_backend.flush(records, nbytes)
                    break
                except StorageError:
                    # Log replicas unreachable: park group commit behind
                    # the retry policy.  Commit waiters stay blocked (no
                    # ack can be given without durability) and the engine
                    # surfaces a degraded-mode gauge; the log-writer
                    # daemon survives to try again.
                    self.flush_retries += 1
                    if not self.degraded:
                        self.degraded = True
                        self.degraded_episodes += 1
                    if (attempt + 1 >= policy.max_attempts
                            or self.env.now - start >= policy.deadline):
                        raise
                    yield self.env.timeout(
                        policy.backoff(attempt, self._flush_rng)
                    )
        finally:
            if span is not None:
                span.finish()
        if self.degraded:
            self.degraded = False
        self._lat_log_flush.record(self.env.now - start)
        # WAL rule satisfied: durable records may now ship to PageStore.
        # Commit/abort markers are log-only; PageStore applies page ops.
        self._ship_queue.extend([r for r in records if not r.is_marker])
        self._ship_tail = records[-1].lsn
        self._ship_bytes += nbytes
        self._shipper_demand.poke()
        # Publish the durable batch (markers included) to each live
        # REDO feed.  Batches arrive in LSN
        # order because submit() allocates LSNs in append order and the
        # writer flushes FIFO.
        if self._redo_feeds:
            for feed in self._redo_feeds:
                if feed.stale:
                    continue
                if len(feed.store) + len(records) > feed.bound:
                    # Subscriber fell too far behind: drop the queue and
                    # force a rescan rather than buffering unboundedly.
                    feed.stale = True
                    feed.clear()
                    feed.overflows += 1
                    continue
                feed.store.put_many(records)
                feed.published += len(records)

    # ------------------------------------------------------------------
    # PageStore shipping on demand
    # ------------------------------------------------------------------
    def ship_through(self, lsn: int, cause: str):
        """Generator: demand every durable record up to ``lsn`` in
        PageStore and wait until ``shipped_lsn`` covers it, or raise the
        StorageError of a ship that missed its quorum.  ``cause`` is the
        ``ship_demand`` key the ship is counted under."""
        if lsn > self.shipped_lsn:
            done = Event(self.env)
            self._ship_waiters.append((lsn, cause, done))
            self._shipper_demand.poke()
            yield done

    def _ship_due(self) -> Optional[str]:
        """Why the ship queue must go now, or None to let it sit."""
        for lsn, cause, _done in self._ship_waiters:
            if lsn <= self._ship_tail:
                return cause
        return "full" if self._ship_bytes >= self.config.log_batch_bytes else None

    def _shipper(self):
        """The one process that ships, and sets ``shipped_lsn``: it sleeps
        until a demand names a durable LSN or the byte cap is reached,
        ships the whole queue and answers every demand it covered.  A
        missed quorum re-queues the batch and its bytes (its back-links
        stamped, so a retry re-sends the same chain), fails those demands
        and pauses a millisecond before shipping again."""
        while True:
            cause = yield from self._shipper_demand.wait()
            batch, through, nbytes = (
                self._ship_queue, self._ship_tail, self._ship_bytes)
            self._ship_queue, self._ship_bytes, error = [], 0, None
            try:
                if batch:
                    yield from self.pagestore.ship_records(batch)
                    self.ship_demand[cause] += 1
                self.shipped_lsn = max(self.shipped_lsn, through)
            except StorageError as exc:
                self._ship_queue[:0], error = batch, exc
                self._ship_bytes += nbytes
            answered = [w for w in self._ship_waiters if w[0] <= through]
            self._ship_waiters = [w for w in self._ship_waiters if w[0] > through]
            for _lsn, _cause, done in answered:
                if done is not None and error is None:
                    done.succeed()
                elif done is not None:
                    done._defused = True  # the demander may be gone
                    done.fail(error)
            if error is not None:
                yield self.env.timeout(1 * MS)  # an outage: do not spin

    def _wal_allows_evict(self, page: Page) -> bool:
        """WAL rule: only pages whose changes are durable may leave DRAM.

        A page skipped for it demands its LSN durable, so a long
        transaction over a small pool drains instead of growing the pool
        until it commits."""
        if page.page_lsn <= self.log.persistent_lsn:
            return True
        self.log.flush_through(page.page_lsn, "wal_evict")
        return False

    def _on_evict(self, page: Page) -> None:
        if self.crashed:
            return
        # Its next miss may read PageStore: demand its REDO shipped now
        # (nobody waits) instead of when that read comes.
        if page.page_lsn > self.shipped_lsn:
            self._ship_waiters.append((page.page_lsn, "read", None))
            self._shipper_demand.poke()
        if self.ebp is None:
            return
        if len(self._ebp_write_queue) >= self.config.ebp_write_queue_limit:
            self.ebp.writes_dropped += 1  # best-effort cache: shed load
            return
        self._ebp_write_queue.put(page)

    def _ebp_writer_loop(self):
        while True:
            page = yield self._ebp_write_queue.get()
            if self.crashed:
                continue
            if page.page_lsn < self.page_versions.get(page.page_id, 0):
                continue  # rewritten while queued: this copy can never hit
            yield from self.ebp.cache_page(page)

    def _ebp_lsn_flush_loop(self):
        while True:
            yield self.env.timeout(EBP_LSN_FLUSH_INTERVAL)
            if not self.crashed:
                yield from self.ebp.flush_dirty_lsns()

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(self, name: str, schema, key_columns, priority: int = 0
                     ) -> Table:
        return self.catalog.create_table(name, schema, key_columns, priority)

    # ------------------------------------------------------------------
    # Page access
    # ------------------------------------------------------------------
    def fetch_page(self, page_id: PageId):
        """Generator: get a page via BP -> EBP -> PageStore.

        Returns the buffer-pool-resident Page (shared, mutable only while
        holding the relevant row locks).  A hit schedules no event, so
        the engine's own statements probe with :meth:`peek_page` first
        and create no generator unless they have to wait.
        """
        hit = self.peek_page(page_id)
        if hit is not None:
            return hit[0]
        return (yield from self._fetch_miss(page_id))

    def peek_page(self, page_id: PageId):
        """Synchronous buffer-pool probe: ``(page, extra_cpu)`` or None.

        The one buffer-pool-hit leg (it charges no CPU of its own, hence
        ``extra_cpu == 0.0``; a standby's local-image tier does): no
        event, no generator.  On None the caller pays
        :meth:`_fetch_miss`.
        """
        page = self.buffer_pool.get(page_id)
        if page is not None:
            self.obs.registry.incr("engine.page_fetch.bp_hit")
            return page, 0.0
        return None

    def _fetch_miss(self, page_id: PageId):
        """Generator: the EBP -> PageStore -> frame-dedup tail of a fetch
        whose buffer-pool probe (:meth:`peek_page`) just missed; not while
        crashed (recovery re-ships the log first)."""
        self._check_live()
        registry = self.obs.registry
        required_lsn = self.page_versions.get(page_id, 0)
        page = None
        if self.ebp is not None:
            page = yield from self.ebp.get_page(page_id, required_lsn)
        if page is not None:
            registry.incr("engine.page_fetch.ebp_hit")
        else:
            page = yield from self.read_page(page_id, required_lsn)
            registry.incr("engine.page_fetch.pagestore_read")
        # Frame dedup: another process may have installed (and even
        # mutated) this page while our read was in flight.  Two live
        # frames for one page would let a writer update a stale copy and
        # diverge from the REDO stream - the single-frame rule every real
        # buffer pool enforces with page latches.
        existing = self.buffer_pool.get(page_id)
        if existing is not None:
            return existing
        if page.page_lsn < self.page_versions.get(page_id, 0):
            # The page advanced (was written and evicted again) while our
            # read was in flight; this copy is stale - fetch afresh.
            return (yield from self.fetch_page(page_id))
        self.buffer_pool.put(page)
        return page

    def read_page(self, page_id: PageId, min_lsn: int):
        """Generator: the PageStore image of ``page_id`` at LSN >= ``min_lsn``,
        the one PageStore read path.  An LSN ahead of ``shipped_lsn`` is
        demanded from the log buffer (an open transaction's page: nothing
        else would flush it) and the shipper, and the read waits for it."""
        if min_lsn > self.shipped_lsn:
            self.log.flush_through(min_lsn, "fresh_read")
            yield from self.ship_through(min_lsn, "read")
        return (yield from self.pagestore.read_page(page_id, min_lsn))

    def _new_page(self, table: Table) -> Page:
        """Allocate and format a fresh heap page (logged)."""
        page_no = table.allocate_page()
        page_id = table.page_id(page_no)
        page = Page(page_id)
        op = PageOp("format")
        lsn = self.lsn.allocate(op.log_bytes)
        apply_op(page, op, lsn)
        self.page_versions[page_id] = lsn
        self.buffer_pool.put(page)
        table.note_page(page_no, page.free_bytes)
        self.log.append(RedoRecord(lsn=lsn, txn_id=0, page_id=page_id, op=op))
        return page

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        self._check_live()
        return Transaction(self.env, self.epoch)

    def lock_wait_edges(self):
        """Local wait-for edges for the global deadlock detector.

        Delegates to the *live* lock manager (``crash()`` swaps it out),
        so sweeping through the engine always reads current state.
        """
        return self.locks.wait_edges()

    def kill_lock_waiter(self, txn_id: int) -> bool:
        """Abort one waiting transaction (global deadlock victim)."""
        return self.locks.kill_waiter(txn_id)

    def _check_live(self, txn: Optional[Transaction] = None) -> None:
        """The engine is up and ``txn``, if given, began in this epoch.

        Every statement re-runs this after a yield that may have
        straddled a crash (and its recovery): a generator that slept
        through one must not touch the rebuilt state.
        """
        if self.crashed:
            raise StorageError("engine crashed")
        if txn is not None and txn.epoch != self.epoch:
            raise TransactionAborted(
                "txn %d predates engine restart" % txn.txn_id
            )

    def _check_active(self, txn: Transaction) -> None:
        self._check_live(txn)
        if txn.status != "active":
            raise TransactionAborted("txn %d is %s" % (txn.txn_id, txn.status))

    def _holds(self, txn: Transaction, key) -> bool:
        """Does ``txn`` already own the row lock for ``key``?

        The re-entrant leg of :meth:`_acquire` (read FOR UPDATE, then
        update the row), answered from the lock table with the same
        crash-window check and no generator - nothing waits, so no
        event is due.  On False (always, after a crash: the lock table
        is new) the caller pays :meth:`_acquire`.
        """
        if self.locks.owner_of(key) != txn.txn_id:
            return False
        self._check_live(txn)
        return True

    def _pay(self, tab, cpu: float = 0.0):
        """The generator charging ``tab``'s CPU debt, plus ``cpu`` of the
        statement at hand, in one consume.

        A read adds its CPU to its transaction's ``cpu_debt`` instead of
        yielding on it.  The debt is paid right before anything another
        transaction can wait on or observe - a lock not yet held, a
        miss's I/O, a write statement, commit / prepare / rollback - so
        on an idle pool each of those happens at the instant it would if
        every read had charged its own.  A crash may land while it runs:
        the caller re-checks.  Never created for a zero charge.
        """
        debt, tab.cpu_debt = tab.cpu_debt + cpu, 0.0
        return self.cpu.consume(debt)

    def _acquire(self, txn: Transaction, key) -> Generator:
        """Generator: pay the CPU debt, then take the row lock, with
        crash-window re-checks.

        A crash may land while we pay or sit in the lock queue; the wait
        then completed against the pre-crash lock table, which was
        discarded.  Re-checking afterwards keeps stragglers from
        mutating rebuilt state with locks nobody tracks.
        """
        if txn.cpu_debt:
            yield from self._pay(txn)
        self._check_live(txn)
        yield from self.locks.acquire(txn, key)
        self._check_live(txn)

    def _log_page_op(
        self,
        txn: Transaction,
        table: Table,
        page: Page,
        op: PageOp,
        undo: Optional[UndoEntry],
        undo_row: Optional[bytes] = None,
        clr: bool = False,
        compensates: int = -1,
    ) -> RedoRecord:
        """Allocate an LSN, apply to the BP page, and log immediately.

        ARIES discipline: the record enters the log buffer the moment the
        page mutates (steal/no-force), inside one synchronous block - so
        the log's record order IS LSN order, per-page application at
        PageStore stays monotone, and crash recovery can see (and undo)
        loser transactions.  Nobody waits here; the commit marker is what
        transactions block on.
        """
        if txn.txn_id != 0:
            self._check_live(txn)
        page_id = page.page_id
        lsn = self.lsn.allocate(op.log_bytes)
        apply_op(page, op, lsn)
        self.page_versions[page_id] = lsn
        table.note_page(page_id.page_no, page.free_bytes)
        record = RedoRecord(
            lsn=lsn, txn_id=txn.txn_id, page_id=page_id, op=op,
            undo_row=undo_row, clr=clr, compensates=compensates,
        )
        self.log.append(record)
        txn.add_record(record, undo)
        if self.ebp is not None:
            self.ebp.note_page_modified(page_id, lsn)
        return record

    # -- DML ----------------------------------------------------------------
    def insert(self, txn: Transaction, table_name: str, values: Sequence[Any]):
        """Generator: insert one row."""
        self._check_active(txn)
        table = self.catalog.table(table_name)
        yield from self._pay(txn, ENGINE_STMT_CPU + ENGINE_ROW_CPU)
        key = table.key_of(values)
        lock_key = (table_name, key)
        if not self._holds(txn, lock_key):
            yield from self._acquire(txn, lock_key)
        if table.lookup(key) is not None:
            raise QueryError("duplicate key %r in %s" % (key, table_name))
        # One private copy: encoded now, kept by the undo entry.
        values = list(values)
        row = table.schema.encode(values)
        page_no = table.choose_page_for_insert(len(row))
        if page_no is None:
            page = self._new_page(table)
        else:
            page_id = table.page_id(page_no)
            hit = self.peek_page(page_id)
            page = hit[0] if hit is not None else (
                yield from self._fetch_miss(page_id))
            if not page.fits(row):
                page = self._new_page(table)
        slot = page.allocate_slot()
        op = PageOp("insert", slot=slot, row=row)
        self._log_page_op(
            txn,
            table,
            page,
            op,
            UndoEntry(
                table_name,
                None,
                values,
                "insert",
            ),
        )
        locator = (page.page_id.page_no, slot)
        table.index_insert(values, locator)
        self.statements += 1
        return locator

    def read_row(self, txn: Optional[Transaction], table_name: str,
                 key: Tuple[Any, ...], for_update: bool = False):
        """Generator: point read by primary key; returns values or None.

        Its statement and row CPU join ``txn``'s debt (:meth:`_pay`): a
        resident read under a lock already held schedules no event, and
        an unlocked read sees its row at the start of its CPU rather
        than the end.  A txn-less read keeps a tab of its own, paid
        before a miss's I/O and before it returns.
        """
        self._check_live()
        table = self.catalog.table(table_name)
        tab = _Tab() if txn is None else txn
        tab.cpu_debt += ENGINE_STMT_CPU
        if for_update:
            if txn is None:
                raise QueryError("FOR UPDATE requires a transaction")
            self._check_active(txn)
            lock_key = (table_name, key)
            if not self._holds(txn, lock_key):
                yield from self._acquire(txn, lock_key)
        row = None
        for _attempt in range(4):
            # The lock/page yields may straddle a crash window: the wiped
            # index must surface as an error, not a phantom miss (and a
            # pre-crash locator must not decode rebuilt pages).
            self._check_live(txn)
            locator = table.lookup(key)
            if locator is None:
                break
            page_no, slot = locator
            page_id = table.page_id(page_no)
            hit = self.peek_page(page_id)
            if hit is not None:
                page = hit[0]
            else:
                if tab.cpu_debt:
                    yield from self._pay(tab)
                page = yield from self._fetch_miss(page_id)
                self._check_live(txn)
            tab.cpu_debt += ENGINE_ROW_CPU
            try:
                row = table.schema.decode(page.get(slot))
                break
            except KeyError:
                # Unlocked read raced with a row migration (an update that
                # outgrew the page moved the row); chase the fresh locator.
                continue
        if txn is None:
            yield from self._pay(tab)
            self._check_live()
        return row

    def update(self, txn: Transaction, table_name: str, key: Tuple[Any, ...],
               changes: Dict[str, Any]):
        """Generator: update columns of the row with ``key``."""
        self._check_active(txn)
        table = self.catalog.table(table_name)
        yield from self._pay(txn, ENGINE_STMT_CPU + ENGINE_ROW_CPU)
        lock_key = (table_name, key)
        if not self._holds(txn, lock_key):
            yield from self._acquire(txn, lock_key)
        locator = table.lookup(key)
        if locator is None:
            raise QueryError("no row %r in %s" % (key, table_name))
        page_no, slot = locator
        page_id = table.page_id(page_no)
        hit = self.peek_page(page_id)
        page = hit[0] if hit is not None else (
            yield from self._fetch_miss(page_id))
        old_values = table.schema.decode(page.get(slot))
        new_values = list(old_values)
        for column, value in changes.items():
            new_values[table.schema.position(column)] = value
        if table.key_of(new_values) != key:
            raise QueryError("primary key update not supported")
        new_row = table.schema.encode(new_values)
        old_row = page.get(slot)
        if len(new_row) - len(old_row) <= page.free_bytes:
            op = PageOp("update", slot=slot, row=new_row)
            self._log_page_op(
                txn,
                table,
                page,
                op,
                UndoEntry(
                    table_name,
                    old_values,
                    new_values,
                    "update",
                ),
                undo_row=old_row,
            )
            table.index_update(old_values, new_values, locator)
        else:
            # Row migration: the grown row no longer fits its page, so it
            # moves - delete here, insert wherever there is room, repoint
            # the indexes.  Undo entries reverse in LIFO order.
            self._log_page_op(
                txn,
                table,
                page,
                PageOp("delete", slot=slot),
                UndoEntry(
                    table_name,
                    old_values,
                    None,
                    "delete",
                ),
                undo_row=old_row,
            )
            table.index_delete(old_values)
            target_no = table.choose_page_for_insert(len(new_row))
            if target_no is None or target_no == page.page_id.page_no:
                target = self._new_page(table)
            else:
                target = yield from self.fetch_page(table.page_id(target_no))
                if not target.fits(new_row):
                    target = self._new_page(table)
            new_slot = target.allocate_slot()
            self._log_page_op(
                txn,
                table,
                target,
                PageOp("insert", slot=new_slot, row=new_row),
                UndoEntry(
                    table_name,
                    None,
                    new_values,
                    "insert",
                ),
            )
            table.index_insert(new_values, (target.page_id.page_no, new_slot))
        self.statements += 1
        return new_values

    def delete(self, txn: Transaction, table_name: str, key: Tuple[Any, ...]):
        """Generator: delete the row with ``key``."""
        self._check_active(txn)
        table = self.catalog.table(table_name)
        yield from self._pay(txn, ENGINE_STMT_CPU + ENGINE_ROW_CPU)
        lock_key = (table_name, key)
        if not self._holds(txn, lock_key):
            yield from self._acquire(txn, lock_key)
        locator = table.lookup(key)
        if locator is None:
            raise QueryError("no row %r in %s" % (key, table_name))
        page_no, slot = locator
        page_id = table.page_id(page_no)
        hit = self.peek_page(page_id)
        page = hit[0] if hit is not None else (
            yield from self._fetch_miss(page_id))
        old_row = page.get(slot)
        old_values = table.schema.decode(old_row)
        op = PageOp("delete", slot=slot)
        self._log_page_op(
            txn,
            table,
            page,
            op,
            UndoEntry(
                table_name,
                old_values,
                None,
                "delete",
            ),
            undo_row=old_row,
        )
        table.index_delete(old_values)
        self.statements += 1

    # -- commit / rollback -----------------------------------------------------
    def commit(self, txn: Transaction):
        """Generator: wait for the commit marker to persist, release locks.

        The transaction's page-op records were logged as they happened;
        group commit's FIFO batching guarantees they are durable no later
        than the marker, so waiting on the marker alone is sufficient.
        The reads' CPU debt is paid first, outside the measured wait.
        """
        self._check_active(txn)
        if txn.cpu_debt:
            yield from self._pay(txn)
            self._check_live(txn)
        start = self.env.now
        tracer = self.obs.tracer
        span = (
            tracer.span("engine.txn.commit", tags={"txn": txn.txn_id})
            if tracer.enabled
            else None
        )
        try:
            if txn.records:
                marker = RedoRecord(
                    lsn=self.lsn.allocate(24),
                    txn_id=txn.txn_id,
                    page_id=MARKER_PAGE,
                    op=PageOp("format"),  # payload-free marker
                    commit=True,
                )
                txn.records.append(marker)
                done = self.log.append(marker, wait=True)
                yield done
            txn.status = "committed"
            self.committed += 1
            self._lat_commit.record(self.env.now - start)
        finally:
            if span is not None:
                span.finish()
            self.locks.release_all(txn)

    # -- two-phase commit ------------------------------------------------------
    def prepare(self, txn: Transaction, gtid: str):
        """Generator: make this participant's vote durable (2PC phase 1).

        The prepare marker rides group commit behind the transaction's
        data records (FIFO), so once it is durable the whole write set is.
        Locks are retained: a prepared transaction is in-doubt until the
        coordinator's decision arrives (or recovery resolves it), and
        nothing may observe its rows meanwhile.  Read-only participants
        skip the marker - they have nothing to recover.
        """
        self._check_active(txn)
        if txn.cpu_debt:
            yield from self._pay(txn)
            self._check_live(txn)
        txn.gtid = gtid
        if txn.records:
            marker = RedoRecord(
                lsn=self.lsn.allocate(24),
                txn_id=txn.txn_id,
                page_id=MARKER_PAGE,
                op=PageOp("format"),
                prepare=True,
                gtid=gtid,
            )
            txn.records.append(marker)
            done = self.log.append(marker, wait=True)
            yield done
        txn.status = "prepared"
        self.prepared += 1

    def commit_prepared(self, txn: Transaction):
        """Generator: 2PC phase 2 commit of a prepared transaction."""
        self._check_live()
        if not txn.is_prepared:
            raise TransactionAborted(
                "txn %d is %s, not prepared" % (txn.txn_id, txn.status)
            )
        start = self.env.now
        try:
            if txn.records:
                marker = RedoRecord(
                    lsn=self.lsn.allocate(24),
                    txn_id=txn.txn_id,
                    page_id=MARKER_PAGE,
                    op=PageOp("format"),
                    commit=True,
                    gtid=txn.gtid,
                )
                txn.records.append(marker)
                done = self.log.append(marker, wait=True)
                yield done
            txn.status = "committed"
            self.committed += 1
            self._lat_commit.record(self.env.now - start)
        finally:
            self.locks.release_all(txn)

    def abort_prepared(self, txn: Transaction):
        """Generator: 2PC abort of a prepared transaction (presumed abort).

        Reverts the txn to active and runs the normal logical rollback,
        which compensates every logged record and closes the transaction
        with an abort marker.
        """
        self._check_live()
        if not txn.is_prepared:
            raise TransactionAborted(
                "txn %d is %s, not prepared" % (txn.txn_id, txn.status)
            )
        txn.status = "active"
        yield from self.rollback(txn)

    def log_decision(self, gtid: str):
        """Generator: durably log the coordinator's commit decision.

        Written to *this* engine's log (the coordinator shard); once
        durable, the global transaction must commit everywhere - recovery
        on any participant resolves the matching in-doubt txn to commit.
        """
        self._check_live()
        marker = RedoRecord(
            lsn=self.lsn.allocate(24),
            txn_id=0,
            page_id=MARKER_PAGE,
            op=PageOp("format"),
            decision=True,
            gtid=gtid,
        )
        done = self.log.append(marker, wait=True)
        yield done
        return marker.lsn

    def rollback(self, txn: Transaction):
        """Generator: undo the transaction's effects, newest first.

        Undo is *logical*: a delete is compensated by re-inserting the row
        wherever there is room now (other transactions may have filled the
        original page), an update by writing the before image back (with
        row migration if it no longer fits), an insert by deleting the row
        at its current locator.  Every compensation is logged as a CLR
        referencing the record it undoes; an abort marker closes the
        transaction so crash recovery knows it is fully resolved.

        Nobody waits on the CLRs or the marker.  If no record of the
        transaction has left the log buffer they stay queued with it (a
        crash loses all of them together); once one has - someone else's
        commit took it along - every REDO consumer will apply it, so the
        compensation is demanded out too, without blocking on it.
        """
        if self.crashed or txn.epoch != self.epoch:
            # Volatile state (locks, buffer pool) from the txn's epoch is
            # already gone; its durable records become losers (or in-doubt
            # txns) and recovery resolves them.  Nothing to do here.
            txn.status = "aborted"
            txn.locks.clear()
            return
        if not txn.is_active:
            self.locks.release_all(txn)
            return
        had_records = bool(txn.records)
        entries = list(txn.undo)
        txn.undo.clear()  # compensations must not generate further undo
        tracer = self.obs.tracer
        span = (
            tracer.span("engine.txn.rollback", tags={"txn": txn.txn_id})
            if tracer.enabled
            else None
        )
        try:
            try:
                if txn.cpu_debt:
                    yield from self._pay(txn)
                    self._check_live(txn)
                for undo in reversed(entries):
                    yield from self._compensate(txn, undo)
            except (StorageError, TransactionAborted):
                if (not self.crashed
                        and txn.epoch == self.epoch):
                    raise
                # Crash landed mid-rollback: the un-compensated records
                # are durable losers and recovery undoes them.
                txn.status = "aborted"
                txn.locks.clear()
                return
            if had_records:
                marker = RedoRecord(
                    lsn=self.lsn.allocate(24),
                    txn_id=txn.txn_id,
                    page_id=MARKER_PAGE,
                    op=PageOp("format"),
                    abort=True,
                )
                self.log.append(marker)
                if txn.records[0].lsn <= self.log.taken_lsn:
                    self.log.flush_through(marker.lsn, "rollback")
            txn.status = "aborted"
            self.aborted += 1
        finally:
            if span is not None:
                span.finish()
            self.locks.release_all(txn)

    def _compensate(self, txn: Transaction, undo: UndoEntry):
        """Generator: logically undo one operation, logging a CLR."""
        table = self.catalog.table(undo.table_name)
        if undo.kind == "insert":
            key = table.key_of(undo.new_values)
            locator = table.lookup(key)
            if locator is None:
                return
            page_no, slot = locator
            page = yield from self.fetch_page(table.page_id(page_no))
            self._log_page_op(
                txn, table, page, PageOp("delete", slot=slot), None,
                clr=True, compensates=undo.record_lsn,
            )
            table.index_delete(undo.new_values)
        elif undo.kind == "update":
            key = table.key_of(undo.old_values)
            locator = table.lookup(key)
            if locator is None:
                return
            page_no, slot = locator
            page = yield from self.fetch_page(table.page_id(page_no))
            old_row = table.schema.encode(undo.old_values)
            current_row = page.get(slot)
            if len(old_row) - len(current_row) <= page.free_bytes:
                self._log_page_op(
                    txn, table, page, PageOp("update", slot=slot, row=old_row),
                    None, undo_row=current_row, clr=True,
                    compensates=undo.record_lsn,
                )
                table.index_update(undo.new_values, undo.old_values, locator)
            else:
                # Migrate: delete here, re-insert the before image elsewhere.
                self._log_page_op(
                    txn, table, page, PageOp("delete", slot=slot), None,
                    undo_row=current_row, clr=True,
                    compensates=undo.record_lsn,
                )
                table.index_delete(undo.new_values)
                yield from self._compensating_insert(
                    txn, table, undo.old_values, undo.record_lsn
                )
        elif undo.kind == "delete":
            yield from self._compensating_insert(
                txn, table, undo.old_values, undo.record_lsn
            )

    def _compensating_insert(self, txn: Transaction, table: Table,
                             values, compensates: int):
        """Generator: logical re-insert of a row during undo."""
        row = table.schema.encode(list(values))
        page_no = table.choose_page_for_insert(len(row))
        if page_no is None:
            page = self._new_page(table)
        else:
            page = yield from self.fetch_page(table.page_id(page_no))
            if not page.fits(row):
                page = self._new_page(table)
        slot = page.allocate_slot()
        self._log_page_op(
            txn, table, page, PageOp("insert", slot=slot, row=row), None,
            clr=True, compensates=compensates,
        )
        table.index_insert(values, (page.page_id.page_no, slot))

    # ------------------------------------------------------------------
    # Crash & recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose all volatile state (buffer pool, indexes, locks, the ship
        queue and whatever the log buffer had not yet been asked to
        flush - those records were never durable and their waiters, if
        any, fail)."""
        self.crashed = True
        self.epoch += 1
        self.buffer_pool.clear()
        self._ship_queue.clear()  # recovery re-ships it; demands wait
        self._ship_tail, self._ship_bytes = self.shipped_lsn, 0
        self.log.discard(StorageError("engine crashed"))
        for table in self.catalog.tables():
            table.clear_indexes()
            table.free_hints.clear()
        self.page_versions.clear()
        # Locks are volatile.  Entry points reject traffic while crashed
        # and recovery resolves every in-doubt txn before clearing the
        # flag, so a fresh lock table cannot expose prepared writes.
        # Counters carry over; stranded waiters on the old table abort
        # via their own wait timeouts.
        fresh = LockManager(self.env, wait_timeout=LOCK_WAIT_TIMEOUT)
        fresh.waits = self.locks.waits
        fresh.timeouts = self.locks.timeouts
        fresh.deadlocks = self.locks.deadlocks
        self.locks = fresh

    def recover(self, resolver=None):
        """Generator: ARIES-style restart using the log backend's tail.

        1. Fetch retained records from the log (SegmentRing binary search
           or LogStore scan).
        2. REDO everything into fresh page images via PageStore reads +
           local replay (PageStore already has most of it applied).
        3. Resolve in-doubt transactions (durable prepare marker, no
           commit/abort marker): commit if a matching decision marker is
           in this log or ``resolver(gtid)`` affirms one is durable
           elsewhere (the coordinator shard); otherwise presumed abort.
        4. UNDO loser transactions (no commit marker) and presumed-abort
           in-doubt transactions.
        5. Rebuild in-memory indexes by scanning table pages.
        6. Optionally rebuild the EBP index from AStore server scans.
        Returns statistics about the recovery.
        """
        records = yield from self.log_backend.recover()
        if records:
            self.lsn.advance_to(max(r.lsn for r in records))
            # Re-queue what the crash left unshipped; the CLRs join below.
            self._ship_queue = [r for r in records
                                if not r.is_marker and r.lsn > self.shipped_lsn]
            self._ship_tail = max(self._ship_tail, records[-1].lsn)
        committed_txns = {r.txn_id for r in records if r.commit}
        resolved_txns = {r.txn_id for r in records if r.abort}
        #: Durable commit decisions this engine logged as a coordinator.
        decisions_seen = sorted(
            {r.gtid for r in records if r.decision and r.gtid is not None}
        )
        # In-doubt: prepared but neither committed nor aborted.
        in_doubt: Dict[int, str] = {}
        for record in records:
            if not record.prepare or record.gtid is None:
                continue
            if record.txn_id in committed_txns or record.txn_id in resolved_txns:
                continue
            in_doubt[record.txn_id] = record.gtid
        in_doubt_committed: List[str] = []
        in_doubt_aborted: List[str] = []
        resolution_markers: List[RedoRecord] = []
        decided_here = set(decisions_seen)
        for txn_id in sorted(in_doubt):
            gtid = in_doubt[txn_id]
            commit = gtid in decided_here or bool(resolver and resolver(gtid))
            if commit:
                # The decision is durable: finish phase 2 locally.
                committed_txns.add(txn_id)
                in_doubt_committed.append(gtid)
            else:
                # Presumed abort: no durable decision anywhere.  The txn
                # joins the losers below and is undone; the abort marker
                # resolves it for any later recovery.
                in_doubt_aborted.append(gtid)
            resolution_markers.append(
                RedoRecord(
                    lsn=self.lsn.allocate(24),
                    txn_id=txn_id,
                    page_id=MARKER_PAGE,
                    op=PageOp("format"),
                    commit=commit,
                    abort=not commit,
                    gtid=gtid,
                )
            )
        if resolution_markers:
            self.log.submit(resolution_markers, wait=False)
            self.log.flush_through(resolution_markers[-1].lsn, "recovery")
        data_records = [r for r in records if not r.is_marker]
        # Loser undo.  A loser is a txn with data records but neither a
        # commit nor an abort marker.  CLRs reference the original record
        # they compensate, so a partially rolled back loser's compensated
        # records are skipped rather than undone twice.
        losers: Dict[int, List[RedoRecord]] = {}
        compensated = {
            r.compensates for r in data_records if r.clr and r.compensates >= 0
        }
        for record in data_records:
            if record.txn_id == 0 or record.clr:
                continue
            if record.txn_id in committed_txns or record.txn_id in resolved_txns:
                continue
            if record.lsn in compensated:
                continue
            losers.setdefault(record.txn_id, []).append(record)
        undone = 0
        clrs: List[RedoRecord] = []
        to_undo_all = sorted(
            (r for records_ in losers.values() for r in records_),
            key=lambda r: -r.lsn,
        )
        for record in to_undo_all:
            inverse = self._inverse_of(record)
            if inverse is None:
                continue
            clrs.append(
                RedoRecord(
                    lsn=self.lsn.allocate(inverse.log_bytes),
                    txn_id=record.txn_id,
                    page_id=record.page_id,
                    op=inverse,
                    clr=True,
                    compensates=record.lsn,
                )
            )
            undone += 1
        if clrs:
            clrs.sort(key=lambda r: r.lsn)
            # WAL order: PageStore must never hold a record the log does
            # not, so the CLRs join the ship queue only once durable (the
            # flush is counted as recovery's, not as a commit's).
            durable = self.log.submit(list(clrs), wait=True)
            self.log.flush_through(clrs[-1].lsn, "recovery")
            yield durable
        yield from self.ship_through(self.log.persistent_lsn, "recovery")
        # The rebuild reads no page behind its newest logged version.
        yield from self._rebuild_indexes(
            {r.page_id: r.lsn for r in data_records + clrs})
        ebp_entries = 0
        if self.ebp is not None:
            ebp_entries = yield from self.ebp.rebuild_index_after_crash()
        self.crashed = False
        return {
            "log_records": len(records),
            "committed_txns": len(committed_txns),
            "losers_undone": undone,
            "ebp_entries": ebp_entries,
            "decisions": decisions_seen,
            "in_doubt": len(in_doubt),
            "in_doubt_committed": in_doubt_committed,
            "in_doubt_aborted": in_doubt_aborted,
        }

    def warmup_from_ebp(self, limit: Optional[int] = None):
        """Generator: pre-load EBP-resident pages into the buffer pool.

        One of the paper's future-work items (Section VIII): after crash
        recovery the DRAM buffer pool is cold, but the EBP survived with a
        near-complete hot set - reading it back over RDMA (~20 us/page) is
        orders of magnitude cheaper than faulting each page from PageStore
        on first touch.  Returns the number of pages warmed.
        """
        if self.ebp is None:
            return 0
        budget = self.buffer_pool.capacity_pages
        if limit is not None:
            budget = min(budget, limit)
        warmed = 0
        for page_id in list(self.ebp.index):
            if warmed >= budget:
                break
            if page_id in self.buffer_pool:
                continue
            page = yield from self.ebp.get_page(
                page_id, self.page_versions.get(page_id, 0)
            )
            if page is None:
                continue
            self.buffer_pool.put(page)
            warmed += 1
        return warmed

    def _inverse_of(self, record: RedoRecord) -> Optional[PageOp]:
        """The compensating operation for a loser's logged record.

        Inserts invert to deletes; updates and deletes invert using the
        before image (``undo_row``) logged with the record.
        """
        op = record.op
        if op.kind == "insert":
            return PageOp("delete", slot=op.slot)
        if op.kind == "update":
            if record.undo_row is None:
                return None
            return PageOp("update", slot=op.slot, row=record.undo_row)
        if op.kind == "delete":
            if record.undo_row is None:
                return None
            return PageOp("insert", slot=op.slot, row=record.undo_row)
        return None

    def _rebuild_indexes(self, versions: Dict[PageId, int]):
        """Generator: scan every table's pages and rebuild its B+-trees,
        reading each page at no less than its ``versions`` LSN."""
        for table in self.catalog.tables():
            pages = self.pagestore.pages_of_space(table.space_no)
            page_nos = {p.page_id.page_no for p in pages}
            page_nos.update(page_id.page_no for page_id in versions
                            if page_id.space_no == table.space_no)
            table.page_nos = sorted(page_nos)
            table._next_page_no = (
                max(table.page_nos) + 1 if table.page_nos else 0
            )
            for page_no in table.page_nos:
                page_id = table.page_id(page_no)
                page = yield from self.read_page(
                    page_id, versions.get(page_id, 0))
                self.buffer_pool.put(page)
                table.note_page(page_no, page.free_bytes)
                self.page_versions[page_id] = page.page_lsn
                for slot, row in page.slots():
                    values = table.schema.decode(row)
                    table.index_insert(values, (page_no, slot))
        return None
