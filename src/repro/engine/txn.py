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
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..common import TransactionAborted, slotted
from ..sim.core import AnyOf, Environment, Event
from ..sim.resources import Grant, WaitQueue
from .wal import RedoRecord

__all__ = ["LockManager", "Transaction", "UndoEntry"]


@slotted
@dataclass
class UndoEntry:
    """What to compensate if the transaction rolls back.

    Undo is logical (``DBEngine._compensate`` finds the row by key,
    wherever it lives by then), so an entry carries row values, not a
    page address or an inverse page operation.
    """

    table_name: str
    old_values: Optional[List[Any]]
    new_values: Optional[List[Any]]
    kind: str  # original op kind: insert/update/delete
    #: LSN of the REDO record this entry undoes (stamped by add_record);
    #: compensation records reference it so crash recovery never undoes
    #: an already-compensated record twice.
    record_lsn: int = -1


class Transaction:
    """Engine-side transaction state."""

    __slots__ = ("txn_id", "env", "epoch", "start_time", "status", "gtid",
                 "records", "undo", "locks", "cpu_debt")

    def __init__(self, env: Environment, epoch: int = 0):
        # Ids are allocated per environment, not process-wide: within one
        # WAL stream they stay unique (recovery reuses the environment),
        # and two same-seed deployments number their transactions
        # identically - required for byte-identical trace exports.
        try:
            ids = env._txn_ids
        except AttributeError:
            ids = env._txn_ids = itertools.count(1)
        self.txn_id = next(ids)
        self.env = env
        #: The engine's restart epoch at ``begin()``; operations on a txn
        #: from an older epoch abort (see ``DBEngine._check_live``).
        self.epoch = epoch
        self.start_time = env.now
        # active -> committed | aborted, or (two-phase commit participants)
        # active -> prepared -> committed | aborted.
        self.status = "active"
        #: Global transaction id, set when this txn is prepared as a 2PC
        #: participant; recovery matches it against decision markers.
        self.gtid: Optional[str] = None
        self.records: List[RedoRecord] = []
        self.undo: List[UndoEntry] = []
        self.locks: List[Any] = []  # keys held, in acquisition order
        #: CPU seconds its reads have used but not yet charged to the
        #: engine's pool: paid in one charge before its next wait
        #: (``DBEngine._pay``).
        self.cpu_debt = 0.0

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
    """FIFO row locks with wait timeout.

    A lock is not an object.  ``_locks`` maps each taken key to the
    :class:`~repro.sim.resources.WaitQueue` behind its holder (``None``
    until somebody waits) and ``_held`` to the owning transaction; a
    release hands the key to the oldest waiter, whose grant takes its
    sequence number there, or forgets the key - so the table holds only
    held keys, not every key ever locked.  A free key is granted on the
    spot, with no event and no yield: only a waiter has a grant to wait
    for.
    """

    def __init__(self, env: Environment, wait_timeout: float = 2.0):
        self.env = env
        self.wait_timeout = wait_timeout
        self._locks: Dict[Any, Optional[WaitQueue]] = {}
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

    def _release(self, key: Any, grant: Optional[Grant] = None) -> None:
        """Withdraw ``grant`` if it is still pending; otherwise hand
        ``key`` to its oldest waiter, or forget it."""
        waiters = self._locks[key]
        if grant is not None and waiters.leave(grant):
            return
        if waiters:
            waiters.pass_on()
        else:
            del self._locks[key]

    def acquire(self, txn: Transaction, key: Any):
        """Generator: take the row lock for ``key`` or abort on timeout.

        Re-entrant for the owning transaction; a free key is taken
        without yielding.
        """
        if self._held.get(key) == txn.txn_id:
            return  # already ours
        if self._would_deadlock(txn.txn_id, key):
            self.deadlocks += 1
            raise TransactionAborted(
                "deadlock: txn %d waiting on %r" % (txn.txn_id, key)
            )
        locks = self._locks
        if key not in locks:
            locks[key] = None
        else:
            waiters = locks[key]
            if waiters is None:
                waiters = locks[key] = WaitQueue()
            grant = waiters.join(self.env)
            self.waits += 1
            self._waiting_on[txn.txn_id] = key
            kill = Event(self.env)
            self._kill_events[txn.txn_id] = kill
            timeout = self.env.timeout(self.wait_timeout)
            granted = False
            try:
                yield AnyOf(self.env, [grant, timeout, kill])
                # A grant landing in the instant we timed out has
                # triggered, and wins.
                granted = grant.triggered
            finally:
                timeout.cancel()
                self._waiting_on.pop(txn.txn_id, None)
                self._kill_events.pop(txn.txn_id, None)
                if not granted:
                    # Timed out, killed or interrupted: withdraw, or pass
                    # on a grant that landed in the interrupt's instant.
                    self._release(key, grant)
            if not granted:
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
        self._held[key] = txn.txn_id
        txn.locks.append(key)

    def release_all(self, txn: Transaction) -> None:
        held = self._held
        for key in txn.locks:
            # Ownership is the guard: after a crash the engine's lock
            # table is a new one that knows nothing of this txn's keys.
            if held.get(key) == txn.txn_id:
                del held[key]
                self._release(key)
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
        waiters = self._locks.get(key)
        return len(waiters) if waiters else 0
