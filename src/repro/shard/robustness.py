"""Distributed robustness for the sharded plane.

Two mechanisms that PR 6's 2PC layer deliberately deferred:

**Global deadlock detection.**  Each engine's :class:`LockManager`
refuses same-engine wait cycles at acquire time, but a cycle that spans
shards is invisible to every participant: shard 0 sees a transaction
waiting on a lock whose owner is (locally) idle, and vice versa on
shard 1.  Until now such cycles resolved only through the 2 s lock-wait
timeout.  :class:`GlobalDeadlockDetector` is a coordinator-side daemon
that periodically unions the per-engine wait-for graphs - local txn ids
are stitched into global identities through the coordinator's active
:class:`DistributedTxn` registry - walks the union for cycles, and
deterministically aborts the *youngest* distributed member (highest
``dtid``, i.e. the transaction that began last) through the lock
manager's external-abort hook.  Victims abort in one sweep interval
(default 50 ms) instead of 2 s.

**Scatter/commit fencing.**  A scatter SELECT runs one leg per shard
*sequentially*, so a distributed commit landing between legs used to be
observable on the late shard but not the early one (the A-after /
B-before anomaly).  :class:`CommitFence` is a two-sided gate owned by
the coordinator: multi-shard writers hold the write side from the
moment their write set spans shards (or from ``begin(fenced=True)``)
until phase 2 fully completes - including across in-doubt windows, when
the outcome is durable but not yet applied everywhere - while scatter
reads hold the read side across all their legs.  Readers never overlap
a partially-visible multi-shard commit; writers never block other
writers, and single-shard traffic is untouched.  Both sides have an
uncontended zero-yield fast path, so the fence costs nothing when
scatters and 2PC do not actually overlap.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..common import StorageError, TransactionAborted
from ..sim.core import AnyOf, Environment, Event

__all__ = ["CommitFence", "FenceTimeout", "GlobalDeadlockDetector"]


class FenceTimeout(StorageError):
    """A scatter read could not enter the commit fence in time (a 2PC
    write - possibly in doubt after a crash or partition - is still
    holding the write side).  Transient: retry once the transaction
    resolves."""


class CommitFence:
    """Reader/writer gate serialising scatter reads against 2PC writes.

    *Writers* (multi-shard write transactions) exclude *readers*
    (scatter SELECTs) and vice versa; neither side excludes itself.
    Writers are deliberately favoured: an arriving reader also waits on
    *pending* writers so a stream of scatters cannot starve commits,
    while a writer only waits on readers actually inside the fence
    (whose reads are bounded), which also makes reader/writer mutual
    waiting impossible.
    """

    __slots__ = (
        "env", "readers", "writers", "writers_pending",
        "_reader_gate", "_writer_gate",
        "read_holds", "write_holds", "reader_waits", "writer_waits",
        "reader_timeouts", "writer_timeouts",
    )

    def __init__(self, env: Environment):
        self.env = env
        self.readers = 0
        self.writers = 0
        self.writers_pending = 0
        self._reader_gate: Optional[Event] = None
        self._writer_gate: Optional[Event] = None
        self.read_holds = 0
        self.write_holds = 0
        self.reader_waits = 0
        self.writer_waits = 0
        self.reader_timeouts = 0
        self.writer_timeouts = 0

    def _gate(self, current: Optional[Event]) -> Event:
        if current is not None and not current.triggered:
            return current
        return Event(self.env)

    def acquire_read(self, max_wait: Optional[float] = None):
        """Generator: enter the read side (zero-yield when no writer)."""
        if self.writers or self.writers_pending:
            self.reader_waits += 1
            deadline = (
                None if max_wait is None else self.env.now + max_wait
            )
            while self.writers or self.writers_pending:
                gate = self._reader_gate = self._gate(self._reader_gate)
                if deadline is None:
                    yield gate
                else:
                    remaining = deadline - self.env.now
                    if remaining <= 0:
                        self.reader_timeouts += 1
                        raise FenceTimeout(
                            "scatter read fenced out by an in-flight "
                            "2PC write"
                        )
                    timer = self.env.timeout(remaining)
                    try:
                        yield AnyOf(self.env, [gate, timer])
                    finally:
                        timer.cancel()
        self.readers += 1
        self.read_holds += 1

    def release_read(self) -> None:
        self.readers -= 1
        if self.readers == 0:
            gate = self._writer_gate
            if gate is not None and not gate.triggered:
                gate.succeed()

    def acquire_write(self, max_wait: Optional[float] = None):
        """Generator: enter the write side (zero-yield when no reader)."""
        if self.readers:
            self.writer_waits += 1
            self.writers_pending += 1
            try:
                deadline = (
                    None if max_wait is None else self.env.now + max_wait
                )
                while self.readers:
                    gate = self._writer_gate = self._gate(self._writer_gate)
                    if deadline is None:
                        yield gate
                    else:
                        remaining = deadline - self.env.now
                        if remaining <= 0:
                            self.writer_timeouts += 1
                            raise TransactionAborted(
                                "commit fence timeout: scatter reads "
                                "held the fence too long"
                            )
                        timer = self.env.timeout(remaining)
                        try:
                            yield AnyOf(self.env, [gate, timer])
                        finally:
                            timer.cancel()
            finally:
                self.writers_pending -= 1
        self.writers += 1
        self.write_holds += 1

    def release_write(self) -> None:
        self.writers -= 1
        if self.writers == 0 and not self.writers_pending:
            gate = self._reader_gate
            if gate is not None and not gate.triggered:
                gate.succeed()

    def counters(self) -> Dict[str, int]:
        return {
            "read_holds": self.read_holds,
            "write_holds": self.write_holds,
            "reader_waits": self.reader_waits,
            "writer_waits": self.writer_waits,
            "reader_timeouts": self.reader_timeouts,
            "writer_timeouts": self.writer_timeouts,
        }


class GlobalDeadlockDetector:
    """Coordinator-side daemon unioning per-engine wait-for graphs.

    Every ``interval`` (50 ms) of virtual time the detector sweeps each
    live engine's :meth:`LockManager.wait_edges`, maps local transaction
    ids onto distributed transactions via the coordinator's active
    registry, and walks the unioned graph for cycles.  Since a
    transaction waits on at most one lock at a time, every node has
    out-degree <= 1 and cycle detection is a successor walk.  For each
    cycle the youngest distributed member (highest ``dtid``) still in
    ``active`` status is aborted through the owning engine's
    :meth:`kill_waiter` hook; purely local chains in the cycle are never
    victims (the engine's own timeout covers pathological local-only
    cases, which strict local cycle refusal already prevents).
    """

    interval = 0.05

    def __init__(self, env: Environment, coordinator):
        self.env = env
        self.coordinator = coordinator
        self.sweeps = 0
        self.cycles_found = 0
        self.victims_aborted = 0
        self._proc = None

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.env.process(
                self._loop(), name="deadlock-detector"
            )

    def _loop(self):
        while True:
            yield self.env.timeout(self.interval)
            self.sweep()

    # ------------------------------------------------------------------
    # One sweep (synchronous: reads state, fires kill events)
    # ------------------------------------------------------------------
    def sweep(self) -> int:
        """Union the wait-for graphs, abort one victim per cycle.

        Returns the number of victims aborted this sweep.
        """
        self.sweeps += 1
        coordinator = self.coordinator
        # (shard, local txn id) -> distributed txn, via the active
        # registry (pruning retired entries as we go).
        part_owner: Dict[Tuple[int, int], Any] = {}
        active = coordinator.active_dtxns
        for dtid in sorted(active):
            dtxn = active[dtid]
            if dtxn.status in ("committed", "aborted"):
                del active[dtid]
                continue
            for shard, txn in dtxn.parts.items():
                part_owner[(shard, txn.txn_id)] = dtxn
        # Union: node -> (successor, shard-where-waiting, local txn id).
        succ: Dict[Any, Tuple[Any, int, int]] = {}
        for shard, engine in enumerate(coordinator.engines):
            if engine.crashed:
                continue
            for waiter, owner, _key in engine.lock_wait_edges():
                wnode = self._node(part_owner, shard, waiter)
                onode = self._node(part_owner, shard, owner)
                if wnode != onode:
                    succ[wnode] = (onode, shard, waiter)
        victims = 0
        done: set = set()
        for start in sorted(succ, key=self._order):
            if start in done:
                continue
            path: List[Any] = []
            on_path: Dict[Any, int] = {}
            node = start
            while node in succ and node not in done and node not in on_path:
                on_path[node] = len(path)
                path.append(node)
                node = succ[node][0]
            if node in on_path:
                cycle = path[on_path[node]:]
                self.cycles_found += 1
                if self._abort_youngest(cycle, succ):
                    victims += 1
            done.update(path)
        self.victims_aborted += victims
        return victims

    @staticmethod
    def _node(part_owner, shard: int, txn_id: int):
        dtxn = part_owner.get((shard, txn_id))
        if dtxn is not None:
            return dtxn.dtid
        return ("local", shard, txn_id)

    @staticmethod
    def _order(node) -> Tuple:
        if isinstance(node, int):
            return (0, node, 0, 0)
        return (1, node[1], node[2], 0)

    def _abort_youngest(self, cycle, succ) -> bool:
        coordinator = self.coordinator
        members = sorted(
            (node for node in cycle if isinstance(node, int)),
            reverse=True,
        )
        for dtid in members:
            dtxn = coordinator.active_dtxns.get(dtid)
            if dtxn is None or dtxn.status != "active":
                continue
            _next, shard, txn_id = succ[dtid]
            if coordinator.engines[shard].kill_lock_waiter(txn_id):
                return True
        return False

    def counters(self) -> Dict[str, int]:
        return {
            "sweeps": self.sweeps,
            "cycles_found": self.cycles_found,
            "victims_aborted": self.victims_aborted,
        }
