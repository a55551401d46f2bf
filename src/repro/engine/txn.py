"""Transactions: row locks, undo records, commit protocol.

Strict two-phase locking on logical row keys ``(table, pk)``.  Hot-row
contention - the defining trait of the paper's order-processing workload -
shows up naturally: concurrent updates of one merchant's balance queue on
that row's lock for the duration of each holder's commit (which includes a
log flush), so commit latency multiplies under contention.  Faster log
writes therefore shorten lock hold times, which is exactly why AStore's
benefit grows with concurrency (Section VII-A).

Lock waits time out (default 2 s of virtual time) and abort the waiter -
a simple, deadlock-free discipline matching MySQL's
``innodb_lock_wait_timeout``.  Same-engine cycles are additionally
refused up front (:meth:`LockManager._would_deadlock`); cycles that span
*engines* (shards) are invisible locally, so the lock manager exports
its wait-for edges (:meth:`LockManager.wait_edges`) and an external
abort hook (:meth:`LockManager.kill_waiter`) for the global deadlock
detector in :mod:`repro.shard.robustness`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..common import PageId, TransactionAborted
from ..sim.core import AnyOf, Environment, Event
from ..sim.resources import Resource
from .page import PageOp
from .wal import RedoRecord

__all__ = ["LockManager", "Transaction", "UndoEntry"]


@dataclass
class UndoEntry:
    """Inverse operation to apply if the transaction rolls back."""

    table_name: str
    page_id: PageId
    inverse_op: PageOp
    old_values: Optional[List[Any]]
    new_values: Optional[List[Any]]
    kind: str  # original op kind: insert/update/delete
    #: LSN of the REDO record this entry undoes (stamped by add_record);
    #: compensation records reference it so crash recovery never undoes
    #: an already-compensated record twice.
    record_lsn: int = -1


class Transaction:
    """Engine-side transaction state."""

    def __init__(self, env: Environment):
        # Ids are allocated per environment, not process-wide: within one
        # WAL stream they stay unique (recovery reuses the environment),
        # and two same-seed deployments number their transactions
        # identically - required for byte-identical trace exports.
        ids = getattr(env, "_txn_ids", None)
        if ids is None:
            ids = itertools.count(1)
            env._txn_ids = ids
        self.txn_id = next(ids)
        self.env = env
        self.start_time = env.now
        # active -> committed | aborted, or (two-phase commit participants)
        # active -> prepared -> committed | aborted.
        self.status = "active"
        #: Global transaction id, set when this txn is prepared as a 2PC
        #: participant; recovery matches it against decision markers.
        self.gtid: Optional[str] = None
        self.records: List[RedoRecord] = []
        self.undo: List[UndoEntry] = []
        self.locks: List[Tuple[Any, Any]] = []  # (key, request) pairs

    @property
    def is_active(self) -> bool:
        return self.status == "active"

    @property
    def is_prepared(self) -> bool:
        return self.status == "prepared"

    def add_record(self, record: RedoRecord, undo: Optional[UndoEntry]) -> None:
        self.records.append(record)
        if undo is not None:
            undo.record_lsn = record.lsn
            self.undo.append(undo)


class LockManager:
    """FIFO row locks with wait timeout."""

    def __init__(self, env: Environment, wait_timeout: float = 2.0):
        self.env = env
        self.wait_timeout = wait_timeout
        self._locks: Dict[Any, Resource] = {}
        self._held: Dict[Any, int] = {}  # key -> owner txn_id
        self._waiting_on: Dict[int, Any] = {}  # txn_id -> key it waits for
        #: txn_id -> kill event for its in-flight wait; an external
        #: deadlock detector fires it to abort the waiter immediately.
        self._kill_events: Dict[int, Event] = {}
        self.timeouts = 0
        self.waits = 0
        self.deadlocks = 0

    def _would_deadlock(self, txn_id: int, key: Any) -> bool:
        """Walk the wait-for graph: does waiting on ``key`` close a cycle?

        The requester is the victim (InnoDB picks by weight; victim=self is
        the simplest sound policy).
        """
        seen = set()
        current_key = key
        while True:
            owner = self._held.get(current_key)
            if owner is None:
                return False
            if owner == txn_id:
                return True
            if owner in seen:
                return False  # a cycle not involving us
            seen.add(owner)
            next_key = self._waiting_on.get(owner)
            if next_key is None:
                return False
            current_key = next_key

    def _lock_for(self, key: Any) -> Resource:
        lock = self._locks.get(key)
        if lock is None:
            lock = Resource(self.env, capacity=1)
            self._locks[key] = lock
        return lock

    def _release(self, key: Any, lock: Resource, request: Any) -> None:
        """Release ``request`` and forget the lock once nobody holds or
        waits for it, so the table holds only contended-or-held keys
        rather than every key ever locked."""
        lock.release(request)
        if not lock.count and not lock.queue_length:
            del self._locks[key]

    def acquire(self, txn: Transaction, key: Any):
        """Generator: take the row lock for ``key`` or abort on timeout.

        Re-entrant for the owning transaction.
        """
        if self._held.get(key) == txn.txn_id:
            return  # already ours
        if self._would_deadlock(txn.txn_id, key):
            self.deadlocks += 1
            raise TransactionAborted(
                "deadlock: txn %d waiting on %r" % (txn.txn_id, key)
            )
        lock = self._lock_for(key)
        request = lock.request()
        if not request.triggered:
            self.waits += 1
            self._waiting_on[txn.txn_id] = key
            kill = Event(self.env)
            self._kill_events[txn.txn_id] = kill
            timeout = self.env.timeout(self.wait_timeout)
            yield AnyOf(self.env, [request, timeout, kill])
            self._waiting_on.pop(txn.txn_id, None)
            self._kill_events.pop(txn.txn_id, None)
            if not request.triggered:
                # Lost the race: withdraw (or release, if granted in the
                # same instant we timed out) and abort.
                request.cancel()
                if request.triggered:
                    self._release(key, lock, request)
                if kill.triggered:
                    self.deadlocks += 1
                    raise TransactionAborted(
                        "deadlock: txn %d chosen as global victim waiting "
                        "on %r" % (txn.txn_id, key)
                    )
                self.timeouts += 1
                raise TransactionAborted(
                    "lock wait timeout on %r (txn %d)" % (key, txn.txn_id)
                )
        else:
            yield request  # already granted; consume the event
        self._held[key] = txn.txn_id
        txn.locks.append((key, request))

    def release_all(self, txn: Transaction) -> None:
        for key, request in txn.locks:
            if self._held.get(key) == txn.txn_id:
                del self._held[key]
            lock = self._locks.get(key)
            if lock is not None:
                self._release(key, lock, request)
        txn.locks.clear()

    # -- global deadlock detection hooks -------------------------------
    def wait_edges(self) -> List[Tuple[int, int, Any]]:
        """Local wait-for edges: ``(waiter_txn_id, owner_txn_id, key)``.

        Only edges whose lock has a current owner appear (a waiter racing
        a just-released lock has no owner to wait on).  Iteration order is
        insertion order, so sweeps are deterministic.
        """
        edges: List[Tuple[int, int, Any]] = []
        for waiter, key in self._waiting_on.items():
            owner = self._held.get(key)
            if owner is not None and owner != waiter:
                edges.append((waiter, owner, key))
        return edges

    def kill_waiter(self, txn_id: int) -> bool:
        """Abort a *waiting* transaction's in-flight lock acquisition.

        The external-abort hook for the global deadlock detector: the
        waiter wakes immediately and raises TransactionAborted (counted
        as a deadlock) instead of stalling into the wait timeout.
        Returns False when ``txn_id`` is not currently waiting.
        """
        kill = self._kill_events.get(txn_id)
        if kill is None or kill.triggered:
            return False
        kill.succeed()
        return True

    def owner_of(self, key: Any) -> Optional[int]:
        return self._held.get(key)

    def queue_length(self, key: Any) -> int:
        lock = self._locks.get(key)
        return lock.queue_length if lock is not None else 0
