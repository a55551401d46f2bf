"""Cross-shard transactions: two-phase commit with presumed abort.

The Coordinator fronts N independent DBEngine primaries with the same
transactional API a single engine exposes (begin / DML / commit /
rollback, all generators), routing each operation to its home shard via
the :class:`~repro.shard.shardmap.ShardMap` and lazily opening one local
transaction per participant shard.

Commit picks the cheap path when it can: a distributed transaction that
wrote on **one** shard commits exactly like a local transaction - one
commit marker, no extra round trips, no prepare state.  Only multi-shard
write sets pay for 2PC:

1. *Prepare* every writer in shard order.  Each participant makes its
   vote durable (a prepare marker behind its data records in its own
   REDO log) and keeps its row locks.
2. *Decide* on the coordinator shard (the lowest writer): one decision
   marker in that shard's log.  The decision LSN is the commit point of
   the global transaction.
3. *Phase 2*: commit each prepared participant (commit marker, locks
   released).

Failure handling is presumed abort: if any prepare fails or the
coordinator shard dies before the decision is durable, surviving
participants are rolled back and recovering ones resolve their in-doubt
transactions to *abort* (no decision found).  Once the decision IS
durable the transaction must commit everywhere - recovery resolves
in-doubt participants to commit by finding the decision in the
coordinator shard's log (directly, or via the resolver handed to
:meth:`DBEngine.recover`), and :meth:`resume_decided` finishes phase 2
for live participants the crash interrupted.

Crash *failpoints* let tests and the chaos harness kill the coordinator
or a participant shard at every interesting instant of the protocol.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..common import QueryError, StorageError, TransactionAborted
from ..engine.dbengine import DBEngine
from ..engine.txn import Transaction
from ..sim.core import Environment
from .robustness import CommitFence
from .shardmap import ShardMap

__all__ = [
    "Coordinator",
    "CoordinatorSession",
    "DistributedTxn",
    "InDoubtTransaction",
    "FAILPOINTS",
]

#: Protocol instants a failpoint can crash a shard at.
#: ``before_participant_commit`` fires per participant *inside* phase 2,
#: so an armed crash leaves a decided transaction partially committed -
#: the nastiest in-doubt shape recovery must converge from.
FAILPOINTS = (
    "before_prepare_all",
    "participant_prepared",
    "after_prepare_all",
    "before_decision",
    "after_decision",
    "before_participant_commit",
)


class InDoubtTransaction(TransactionAborted):
    """Commit outcome unknown to the caller: the decision is durable but
    phase 2 was interrupted.  The transaction WILL commit (recovery plus
    :meth:`Coordinator.resume_decided` finish it); the client merely
    didn't get the ack.  Subclasses TransactionAborted so existing driver
    retry loops handle it; ledgers should check ``txn.status`` for
    ``"decided"`` and score the effect as maybe-committed."""


class DistributedTxn:
    """Client-side handle for one (possibly) cross-shard transaction."""

    __slots__ = ("coordinator", "parts", "status", "gtid", "commit_lsns",
                 "dtid", "write_set", "wants_fence", "fence_held")

    def __init__(self, coordinator: "Coordinator", fenced: bool = False):
        self.coordinator = coordinator
        #: shard index -> local Transaction (lazily opened).
        self.parts: Dict[int, Transaction] = {}
        # active -> committed | aborted, with decided in between for 2PC
        # transactions whose decision is durable but phase 2 incomplete.
        self.status = "active"
        self.gtid: Optional[str] = None
        #: shard -> durable LSN covering this txn's commit (vector token
        #: material).
        self.commit_lsns: Dict[int, int] = {}
        #: Begin-order identity (the global deadlock detector's victim
        #: rule aborts the cycle member with the *highest* dtid).
        self.dtid = next(coordinator._dtid_seq)
        #: Shards this transaction has written on (fence upgrade state).
        self.write_set: set = set()
        #: ``begin(fenced=True)``: enter the commit fence before the
        #: *first* write, so even the first shard's uncommitted effect is
        #: invisible to scatter reads.  The default (lazy) upgrade enters
        #: at the second writer shard, which still makes the *commit*
        #: atomic w.r.t. scatter reads.
        self.wants_fence = fenced
        self.fence_held = False

    @property
    def is_active(self) -> bool:
        return self.status == "active"

    @property
    def shard_set(self) -> List[int]:
        return sorted(self.parts)


class Coordinator:
    """2PC coordinator over N shard engines (a library, not a server)."""

    def __init__(self, env: Environment, shardmap: ShardMap,
                 engines: Sequence[DBEngine]):
        if len(engines) != shardmap.shards:
            raise ValueError("engine count != shard count")
        self.env = env
        self.shardmap = shardmap
        self.engines = list(engines)
        #: Durable commit decisions: gtid -> coordinator shard.  Restored
        #: from decision markers during recovery (note_decisions), so a
        #: coordinator-shard crash cannot forget a durable decision.
        self.decided: Dict[str, int] = {}
        #: Decided transactions whose phase 2 was interrupted, keyed by
        #: gtid; resume_decided() finishes them.
        self.pending_decided: Dict[str, DistributedTxn] = {}
        #: Prepared-but-unresolved participants: (gtid, shard).  Emptied
        #: by phase 2, aborts, and shard recovery; anything left at audit
        #: time is an unresolved in-doubt transaction.
        self._prepared_parts: Set[Tuple[str, int]] = set()
        self._gtid_seq = itertools.count(1)
        self._dtid_seq = itertools.count(1)
        #: Live distributed transactions by dtid - the global deadlock
        #: detector's registry for stitching local wait-for edges into
        #: global identities.  Entries retire at commit/abort.
        self.active_dtxns: Dict[int, DistributedTxn] = {}
        #: Serialises scatter reads against multi-shard commits (held
        #: across in-doubt windows until phase 2 fully completes).
        self.fence = CommitFence(env)
        #: Bound on how long a 2PC write waits for scatter readers.
        self.fence_write_timeout = 1.0
        #: Shards currently unreachable from the coordination plane
        #: (chaos ``shard_partition``): 2PC legs to them fail like
        #: crashes, but shard-local state stays intact.
        self.partitioned: Set[int] = set()
        # Counters for reports / benchmarks.
        self.single_shard_commits = 0
        self.two_phase_commits = 0
        self.read_only_commits = 0
        self.aborts = 0
        self.presumed_aborts = 0
        self.in_doubt_commits = 0
        self.resumed_commits = 0
        self.partition_rejects = 0
        # Failpoint: (point, shard | None); fires once.
        self._failpoint: Optional[Tuple[str, Optional[int]]] = None
        self.fired_failpoints: List[Tuple[str, int]] = []

    # ------------------------------------------------------------------
    # Failpoints
    # ------------------------------------------------------------------
    def arm_failpoint(self, point: str, shard: Optional[int] = None) -> None:
        """Crash ``shard`` (default: wherever the point fires) the next
        time the 2PC flow passes ``point``."""
        if point not in FAILPOINTS:
            raise ValueError("unknown failpoint %r" % point)
        self._failpoint = (point, shard)

    def _fire(self, point: str, shard: int) -> bool:
        armed = self._failpoint
        if armed is None or armed[0] != point:
            return False
        if armed[1] is not None and armed[1] != shard:
            return False
        self._failpoint = None
        self.fired_failpoints.append((point, shard))
        self.engines[shard].crash()
        return True

    # ------------------------------------------------------------------
    # Partitions (chaos: sever the coordination-plane link to a shard)
    # ------------------------------------------------------------------
    def partition(self, shard: int) -> None:
        """Sever the coordination-plane link to ``shard``.

        The shard itself stays up (its storage, replicas, and home-shard
        clients keep working), but every 2PC leg routed to it fails like
        a crash: DML aborts, prepares presume abort, and phase-2 commits
        go in doubt until :meth:`heal` + :meth:`resume_decided`.
        """
        self.partitioned.add(shard)

    def heal(self, shard: int) -> None:
        self.partitioned.discard(shard)

    def _check_reachable(self, shard: int) -> None:
        if shard in self.partitioned:
            self.partition_rejects += 1
            raise TransactionAborted(
                "shard %d unreachable (partitioned)" % shard
            )

    # ------------------------------------------------------------------
    # Transaction API (engine-shaped)
    # ------------------------------------------------------------------
    def begin(self, fenced: bool = False) -> DistributedTxn:
        dtxn = DistributedTxn(self, fenced=fenced)
        self.active_dtxns[dtxn.dtid] = dtxn
        return dtxn

    def _retire(self, dtxn: DistributedTxn) -> None:
        self.active_dtxns.pop(dtxn.dtid, None)

    def _release_fence(self, dtxn: DistributedTxn) -> None:
        if dtxn.fence_held:
            dtxn.fence_held = False
            self.fence.release_write()

    def _fence_for_write(self, dtxn: DistributedTxn, shard: int):
        """Generator: enter the commit fence before a write that makes
        (or, with the ``fenced`` hint, starts) a multi-shard write set."""
        write_set = dtxn.write_set
        if shard in write_set:
            return
        if not dtxn.fence_held and (write_set or dtxn.wants_fence):
            yield from self.fence.acquire_write(
                max_wait=self.fence_write_timeout
            )
            dtxn.fence_held = True
        write_set.add(shard)

    def _part(self, dtxn: DistributedTxn, shard: int) -> Transaction:
        txn = dtxn.parts.get(shard)
        if txn is None:
            self._check_reachable(shard)
            try:
                txn = self.engines[shard].begin()
            except StorageError as exc:
                raise TransactionAborted(
                    "shard %d unavailable: %s" % (shard, exc)
                )
            dtxn.parts[shard] = txn
        return txn

    def _run(self, shard: int, gen):
        """Generator: run one engine op, mapping crashes to aborts."""
        self._check_reachable(shard)
        try:
            result = yield from gen
        except StorageError as exc:
            raise TransactionAborted(
                "shard %d crashed mid-operation: %s" % (shard, exc)
            )
        return result

    def insert(self, dtxn: DistributedTxn, table: str,
               values: Sequence[Any]):
        """Generator: routed insert (broadcast for replicated tables)."""
        key = self.engines[0].catalog.table(table).key_of(list(values))
        result = None
        for shard in self.shardmap.write_shards(table, key):
            yield from self._fence_for_write(dtxn, shard)
            txn = self._part(dtxn, shard)
            result = yield from self._run(
                shard, self.engines[shard].insert(txn, table, values)
            )
        return result

    def update(self, dtxn: DistributedTxn, table: str,
               key: Sequence[Any], changes: Dict[str, Any]):
        """Generator: routed update (broadcast for replicated tables)."""
        result = None
        for shard in self.shardmap.write_shards(table, tuple(key)):
            yield from self._fence_for_write(dtxn, shard)
            txn = self._part(dtxn, shard)
            result = yield from self._run(
                shard, self.engines[shard].update(txn, table, tuple(key),
                                                  changes)
            )
        return result

    def delete(self, dtxn: DistributedTxn, table: str, key: Sequence[Any]):
        """Generator: routed delete (broadcast for replicated tables)."""
        for shard in self.shardmap.write_shards(table, tuple(key)):
            yield from self._fence_for_write(dtxn, shard)
            txn = self._part(dtxn, shard)
            yield from self._run(
                shard, self.engines[shard].delete(txn, table, tuple(key))
            )

    def read_row(self, dtxn: Optional[DistributedTxn], table: str,
                 key: Sequence[Any], for_update: bool = False,
                 home: int = 0):
        """Generator: routed point read; FOR UPDATE joins the txn."""
        shard = self.shardmap.read_shard_of(table, tuple(key), home)
        txn: Optional[Transaction] = None
        if for_update:
            if dtxn is None:
                raise QueryError("FOR UPDATE requires a transaction")
            txn = self._part(dtxn, shard)
        result = yield from self._run(
            shard,
            self.engines[shard].read_row(txn, table, tuple(key),
                                         for_update=for_update),
        )
        return result

    # ------------------------------------------------------------------
    # Commit / rollback
    # ------------------------------------------------------------------
    def commit(self, dtxn: DistributedTxn) -> Any:
        """Generator: commit; single-shard fast path or full 2PC.

        Returns the per-shard durable-LSN map (``dtxn.commit_lsns``)
        for vector-token maintenance.
        """
        if not dtxn.is_active:
            raise TransactionAborted("dtxn is %s" % dtxn.status)
        shards = dtxn.shard_set
        writers = [s for s in shards if dtxn.parts[s].records]
        if len(writers) <= 1:
            yield from self._commit_direct(dtxn, shards, writers)
            return dtxn.commit_lsns
        yield from self._commit_two_phase(dtxn, shards, writers)
        return dtxn.commit_lsns

    def _commit_direct(self, dtxn: DistributedTxn, shards: List[int],
                       writers: List[int]):
        """Generator: plain per-shard commit - no prepare, no decision."""
        try:
            for shard in shards:
                yield from self._run(
                    shard, self.engines[shard].commit(dtxn.parts[shard])
                )
                if shard in writers:
                    dtxn.commit_lsns[shard] = (
                        self.engines[shard].log.persistent_lsn
                    )
        except TransactionAborted:
            yield from self._abort_parts(dtxn)
            dtxn.status = "aborted"
            self.aborts += 1
            self._release_fence(dtxn)
            self._retire(dtxn)
            raise
        dtxn.status = "committed"
        self._release_fence(dtxn)
        self._retire(dtxn)
        if writers:
            self.single_shard_commits += 1
        else:
            self.read_only_commits += 1

    def _commit_two_phase(self, dtxn: DistributedTxn, shards: List[int],
                          writers: List[int]):
        """Generator: prepare-all / decide / commit-all."""
        coord = writers[0]
        gtid = "g%d.%d" % (coord, next(self._gtid_seq))
        dtxn.gtid = gtid
        self.two_phase_commits += 1
        try:
            # The write fence is normally taken at the second writer shard
            # (see _fence_for_write); this is a belt-and-braces upgrade so
            # phase 2 can never interleave with a scatter read.
            if not dtxn.fence_held:
                yield from self.fence.acquire_write(
                    max_wait=self.fence_write_timeout
                )
                dtxn.fence_held = True
            # Phase 1: durable prepare on every writer, coordinator first.
            self._fire("before_prepare_all", coord)
            for shard in writers:
                yield from self._run(
                    shard,
                    self.engines[shard].prepare(dtxn.parts[shard], gtid),
                )
                self._prepared_parts.add((gtid, shard))
                self._fire("participant_prepared", shard)
            self._fire("after_prepare_all", coord)
            # Read-only participants vote and drop out.
            for shard in shards:
                if shard not in writers:
                    yield from self._run(
                        shard, self.engines[shard].commit(dtxn.parts[shard])
                    )
            # Decision: the global commit point.
            self._fire("before_decision", coord)
            yield from self._run(
                coord, self.engines[coord].log_decision(gtid)
            )
        except TransactionAborted:
            # Presumed abort: no durable decision exists anywhere.
            self.presumed_aborts += 1
            yield from self._abort_parts(dtxn)
            dtxn.status = "aborted"
            self._release_fence(dtxn)
            self._retire(dtxn)
            raise
        self.decided[gtid] = coord
        dtxn.status = "decided"
        # In-doubt exits below keep the fence held: the decision is
        # durable but not yet applied everywhere, exactly the window a
        # scatter read must not observe.  resume_decided() releases it.
        if self._fire("after_decision", coord):
            # Coordinator died before telling anyone: every participant
            # stays in-doubt until recovery / resume_decided.
            self.pending_decided[gtid] = dtxn
            raise InDoubtTransaction(
                "gtid %s decided; phase 2 pending recovery" % gtid
            )
        # Phase 2.
        incomplete = False
        for shard in writers:
            self._fire("before_participant_commit", shard)
            committed = yield from self._commit_prepared_part(dtxn, shard)
            incomplete = incomplete or not committed
        if incomplete:
            self.pending_decided[gtid] = dtxn
            raise InDoubtTransaction(
                "gtid %s decided; some participants in doubt" % gtid
            )
        dtxn.status = "committed"
        self._release_fence(dtxn)
        self._retire(dtxn)

    def _commit_prepared_part(self, dtxn: DistributedTxn, shard: int):
        """Generator: phase-2 commit of one participant.

        Returns False when the shard is unreachable (or the local txn
        predates a restart); recovery then resolves it from the durable
        decision instead.
        """
        if shard in self.partitioned:
            self.partition_rejects += 1
            return False
        engine = self.engines[shard]
        txn = dtxn.parts[shard]
        if engine.crashed or txn.epoch != engine.epoch:
            return False
        try:
            yield from engine.commit_prepared(txn)
        except (StorageError, TransactionAborted):
            return False
        self._prepared_parts.discard((dtxn.gtid, shard))
        dtxn.commit_lsns[shard] = engine.log.persistent_lsn
        return True

    def _abort_parts(self, dtxn: DistributedTxn):
        """Generator: presumed abort of every reachable participant.

        Unreachable participants' durable state (plain records or a
        prepare marker without a decision) resolves to abort at recovery.
        """
        for shard in dtxn.shard_set:
            engine = self.engines[shard]
            txn = dtxn.parts[shard]
            stale = txn.epoch != engine.epoch
            try:
                if txn.is_prepared and not engine.crashed and not stale:
                    yield from engine.abort_prepared(txn)
                else:
                    yield from engine.rollback(txn)
            except (StorageError, TransactionAborted):
                pass
            if not txn.is_prepared:
                self._prepared_parts.discard((dtxn.gtid, shard))

    def rollback(self, dtxn: DistributedTxn):
        """Generator: abort a distributed transaction.

        Decided transactions are *not* abortable - the commit point
        passed - so rollback leaves them to resume_decided()/recovery.
        """
        if dtxn.status == "decided":
            return
        if dtxn.status in ("committed", "aborted"):
            return
        yield from self._abort_parts(dtxn)
        dtxn.status = "aborted"
        self.aborts += 1
        self._release_fence(dtxn)
        self._retire(dtxn)

    # ------------------------------------------------------------------
    # Recovery integration
    # ------------------------------------------------------------------
    def decision_of(self, gtid: str) -> bool:
        """Resolver for :meth:`DBEngine.recover`: is this gtid decided?"""
        return gtid in self.decided

    def note_decisions(self, gtids, shard: int) -> None:
        for gtid in gtids:
            self.decided.setdefault(gtid, shard)

    def harvest_decisions(self, shard: int):
        """Generator: read-only scan of a (crashed) shard's durable log
        for decision markers.

        Run before recovering *other* shards so a participant that
        restarts before its coordinator shard still finds the durable
        decision instead of wrongly presuming abort.
        """
        records = yield from self.engines[shard].log_backend.recover()
        found = sorted(
            {r.gtid for r in records if r.decision and r.gtid is not None}
        )
        self.note_decisions(found, shard)
        return found

    def recover_shard(self, shard: int):
        """Generator: full recovery choreography for one crashed shard.

        1. Harvest decision markers from every other crashed shard, so
           in-doubt resolution here never presumes abort on a decided
           transaction whose coordinator is also down.
        2. Recover the engine (redo, in-doubt resolution, undo, index
           rebuild) with this coordinator as resolver.
        3. Finish phase 2 of any decided-but-interrupted transactions.
        """
        for other, engine in enumerate(self.engines):
            if other != shard and engine.crashed:
                yield from self.harvest_decisions(other)
        stats = yield from self.engines[shard].recover(
            resolver=self.decision_of
        )
        self.note_decisions(stats.get("decisions", ()), shard)
        self.in_doubt_commits += len(stats.get("in_doubt_committed", ()))
        # Everything prepared on this shard is now resolved durably.
        self._prepared_parts = {
            (gtid, s) for gtid, s in self._prepared_parts if s != shard
        }
        yield from self.resume_decided()
        return stats

    def resume_decided(self):
        """Generator: finish phase 2 for decided transactions whose
        commit was interrupted by a crash."""
        for gtid in sorted(self.pending_decided):
            dtxn = self.pending_decided[gtid]
            incomplete = False
            for shard in dtxn.shard_set:
                txn = dtxn.parts[shard]
                if not txn.is_prepared:
                    continue
                engine = self.engines[shard]
                if (engine.crashed
                        or txn.epoch != engine.epoch):
                    # Crashed txn state: recovery owns resolution.  The
                    # shard's durable LSNs already cover the commit once
                    # it recovers; drop the stale handle.
                    self._prepared_parts.discard((gtid, shard))
                    if engine.crashed:
                        incomplete = True
                    continue
                committed = yield from self._commit_prepared_part(
                    dtxn, shard
                )
                if committed:
                    self.resumed_commits += 1
                else:
                    incomplete = True
            if not incomplete:
                dtxn.status = "committed"
                self._release_fence(dtxn)
                self._retire(dtxn)
                del self.pending_decided[gtid]

    def unresolved_in_doubt(self) -> int:
        """Prepared participants nobody has resolved yet (audit: must be
        zero after all shards recovered and resume_decided ran)."""
        return len(self._prepared_parts)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        return {
            "single_shard_commits": self.single_shard_commits,
            "two_phase_commits": self.two_phase_commits,
            "read_only_commits": self.read_only_commits,
            "aborts": self.aborts,
            "presumed_aborts": self.presumed_aborts,
            "in_doubt_commits": self.in_doubt_commits,
            "resumed_commits": self.resumed_commits,
            "pending_decided": len(self.pending_decided),
            "unresolved_in_doubt": self.unresolved_in_doubt(),
            "partition_rejects": self.partition_rejects,
        }


class BroadcastTable:
    """DDL result for a table created on every shard: forwards index
    creation so schemas stay aligned across the fleet."""

    def __init__(self, tables):
        self.tables = list(tables)

    def __getattr__(self, name):
        return getattr(self.tables[0], name)

    def add_secondary_index(self, name, columns):
        result = None
        for table in self.tables:
            result = table.add_secondary_index(name, columns)
        return result


class CoordinatorSession:
    """An engine-shaped facade bound to a *home shard*.

    Workload clients written against the DBEngine API (TPC-C terminals
    use ``engine.catalog`` scans and ``engine.fetch_page`` for local
    index walks) run unchanged: catalog/page reads resolve against the
    home shard's engine, DML routes through the coordinator, and commit
    runs 2PC only when the write set actually crossed shards.
    """

    def __init__(self, coordinator: Coordinator, home: int = 0):
        self.coordinator = coordinator
        self.home = home
        self._engine = coordinator.engines[home]
        self.env = coordinator.env

    # Home-shard surfaces for read-local workloads.
    @property
    def catalog(self):
        return self._engine.catalog

    @property
    def config(self):
        return self._engine.config

    def fetch_page(self, page_id):
        return self._engine.fetch_page(page_id)

    # DDL broadcasts.
    def create_table(self, name, schema, key_columns, priority: int = 0):
        return BroadcastTable(
            engine.create_table(name, schema, key_columns, priority)
            for engine in self.coordinator.engines
        )

    # Transactional API.
    def begin(self, fenced: bool = False) -> DistributedTxn:
        return self.coordinator.begin(fenced=fenced)

    def commit(self, dtxn: DistributedTxn):
        return self.coordinator.commit(dtxn)

    def rollback(self, dtxn: DistributedTxn):
        return self.coordinator.rollback(dtxn)

    def insert(self, dtxn, table, values):
        return self.coordinator.insert(dtxn, table, values)

    def update(self, dtxn, table, key, changes):
        return self.coordinator.update(dtxn, table, key, changes)

    def delete(self, dtxn, table, key):
        return self.coordinator.delete(dtxn, table, key)

    def read_row(self, dtxn, table, key, for_update: bool = False):
        return self.coordinator.read_row(
            dtxn, table, key, for_update=for_update, home=self.home
        )
