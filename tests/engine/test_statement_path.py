"""The contracts of the engine's row-statement path.

Two of them, kept apart on purpose:

- **Virtual time.**  What a statement *models* is the events it
  schedules.  The sequence-number delta of each verb on a warmed,
  buffer-pool-resident table, and the end state of a same-seed TPC-C
  slice, are pinned to the values measured before the statement path was
  made allocation-free - so a later "fast path" cannot silently drop or
  add an event.  (The deltas count every process's events while the verb
  runs - the log writer waking, a flush in flight - which is exactly why
  they are worth pinning.)
- **Host.**  What a statement *costs* beyond its events should be
  nothing: interned page ids, no generator where nothing waits, REDO
  records sized once.
"""

import inspect
import sys

import pytest

from repro.common import PageId, TransactionAborted
from repro.cost import ENGINE_ROW_CPU, ENGINE_STMT_CPU
from repro.engine.bufferpool import BufferPool
from repro.engine.codec import DECIMAL, INT, VARCHAR, Column, Schema
from repro.engine.page import Page, PageOp
from repro.engine.wal import RedoRecord, encode_records_size
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.sim.core import AllOf
from repro.workloads.tpcc import TpccClient, TpccConfig, TpccDatabase


def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


def warmed_accounts():
    """Seed-1 ``astore_pq`` deployment, 40 committed rows, quiesced."""
    dep = Deployment(DeploymentSpec.astore_pq(seed=1))
    dep.start()
    engine = dep.engine
    engine.create_table(
        "accounts",
        Schema([Column("id", INT()), Column("name", VARCHAR(32)),
                Column("balance", DECIMAL(2))]),
        ["id"],
    )

    def load():
        txn = engine.begin()
        for i in range(1, 41):
            yield from engine.insert(txn, "accounts", [i, "n%d" % i, float(i)])
        yield from engine.commit(txn)

    run(dep, load())
    dep.run_for(0.01)
    return dep


# ---------------------------------------------------------------------------
# Virtual time
# ---------------------------------------------------------------------------

#: ``env._seq`` delta per verb, measured at the parent of the PR that made
#: the path allocation-free (commit a0fa8e9) - except ``commit``, whose
#: flush went on the event diet (see tests/sim/test_event_budget.py), and
#: the three verbs that used to count the eager log writer's events as
#: their own: since group commit is on demand an un-waited record wakes
#: nobody, so ``insert`` and ``update`` are the statement's events alone
#: and ``commit`` pays for one flush instead of the tail of the previous
#: one plus its own.
#:
#: Since a read's CPU is a debt paid at the transaction's next wait and a
#: free row lock is granted without an event, a read schedules nothing of
#: its own.  The parent's counts: ``read_row`` 2 (statement CPU, row
#: CPU), ``read_row_for_update`` 3 (+ the lock grant),
#: ``read_row_for_update_again`` 2, ``insert`` 2 (CPU, lock grant; 3
#: with the eager writer's wake-up), ``delete`` 2.
VERB_EVENTS = {
    "read_row": 0,                 # CPU owed
    "read_row_missing_key": 1,     # txn-less: pays its statement CPU
    "read_row_for_update": 1,      # pays the debt; the free lock is taken
    "read_row_for_update_again": 0,  # re-entrant: nothing to pay for
    "insert": 1,                   # CPU, the debt included
    "update": 1,                   # CPU (was 2: + the flush then in flight)
    "delete": 1,
    "commit": 11,                  # one flush of all four records (was 18)
    "commit_read_only": 0,
    "rollback": 0,
}
#: ``(env._seq, env.now)`` once the verbs below have all run (parent of
#: group commit on demand: ``(426, 0.014945724765241078)``; with the 1 ms
#: PageStore shipper's idle wake-ups: ``(334, 0.0148135702974133)``; with
#: a charge per read and an event per lock: ``(307, 0.0148135702974133)``
#: - paying a debt in one charge reassociates the sum, nothing more; with
#: the 1 ms PageStore apply daemon: ``(258, 0.014813570297413302)``).
VERBS_END = (246, 0.014813570297413302)


def test_each_verb_schedules_exactly_the_events_it_did():
    dep = warmed_accounts()
    engine, env = dep.engine, dep.env
    seen = {}

    def verbs():
        def measure(name, gen):
            before = env._seq
            yield from gen
            seen[name] = env._seq - before

        txn = engine.begin()
        yield from measure(
            "read_row", engine.read_row(txn, "accounts", (3,)))
        yield from measure(
            "read_row_missing_key", engine.read_row(None, "accounts", (999,)))
        yield from measure(
            "read_row_for_update",
            engine.read_row(txn, "accounts", (3,), for_update=True))
        yield from measure(
            "read_row_for_update_again",
            engine.read_row(txn, "accounts", (3,), for_update=True))
        yield from measure(
            "insert", engine.insert(txn, "accounts", [100, "new", 1.0]))
        yield from measure(
            "update", engine.update(txn, "accounts", (3,), {"balance": 7.5}))
        yield from measure("delete", engine.delete(txn, "accounts", (4,)))
        yield from measure("commit", engine.commit(txn))
        txn = engine.begin()
        yield from measure("commit_read_only", engine.commit(txn))
        txn = engine.begin()
        yield from engine.update(txn, "accounts", (5,), {"balance": 1.5})
        yield from measure("rollback", engine.rollback(txn))

    run(dep, verbs())
    assert seen == VERB_EVENTS
    assert (env._seq, env.now) == VERBS_END
    assert dep.registry.value("engine.page_fetch.pagestore_read") == 0


def test_tpcc_slice_ends_where_it_did():
    """Eight terminals, 20 virtual ms, seed 1: clock, event count, log
    position and per-terminal commits.  Virtual time moves wherever a
    transaction commits once the log writer flushes on demand, so these
    were re-pinned then; the parent's values are kept below.  Shipping
    on demand moved only the event count: 16969 with the 1 ms shipper.
    Paying the reads' CPU at the next wait, and granting free locks
    without an event, moved the event count (14920 before) and the
    clock's last digits (0.047715429933425695), nothing else.  Applying
    PageStore REDO as it is chained, with no 1 ms apply daemon, moved
    the event count only (7257 before)."""
    dep = Deployment(DeploymentSpec.astore_pq(seed=1))
    dep.start()
    database = TpccDatabase(
        dep.engine, TpccConfig(), dep.seeds.stream("slice-load"))
    run(dep, database.load())
    terminals = [
        TpccClient(database, dep.seeds.stream("slice-%d" % index))
        for index in range(8)
    ]
    procs = [dep.env.process(t.run_for(0.02)) for t in terminals]
    dep.run_until(AllOf(dep.env, procs))
    assert (
        dep.env.now,
        dep.env._seq,
        dep.engine.log.persistent_lsn,
        [t.committed for t in terminals],
        [t.aborted for t in terminals],
    ) == (
        0.04771542993342413,
        7234,
        416805,
        [24, 13, 19, 21, 31, 16, 25, 24],
        [0] * 8,
    )
    # Parent (eager log writer): 0.04731673419951458, 20379, 395013,
    # [18, 13, 18, 19, 28, 17, 21, 23].


# -- CPU debt: a read's CPU is paid at its transaction's next wait ----------

#: Measured with a charge per read, before the debt: when the miss of
#: :func:`test_a_miss_issues_its_read_where_it_did` leaves, and the pool's
#: ``busy_time`` after :func:`test_the_pool_is_charged_what_each_read_charged_itself`
#: (one charge per debt reassociates the sum: ``0.0008299999999999997`` now).
MISS_ISSUED_AT = 0.014643214998673038
POOL_BUSY_S = 0.0008299999999999995


def test_unlocked_reads_pay_where_the_transaction_joins_a_lock_queue():
    """(a) k unlocked reads, then FOR UPDATE on a held key: the
    transaction queues once all k·(stmt + row) + stmt are paid."""
    dep = warmed_accounts()
    engine, env = dep.engine, dep.env
    stmt, row, k = ENGINE_STMT_CPU, ENGINE_ROW_CPU, 5
    lock_key = ("accounts", (7,))

    def holder():
        txn = engine.begin()
        yield from engine.read_row(txn, "accounts", (7,), for_update=True)
        yield env.timeout(0.001)
        yield from engine.commit(txn)

    def reader():
        txn = engine.begin()
        for key in range(1, k + 1):
            yield from engine.read_row(txn, "accounts", (key,))
        row7 = yield from engine.read_row(
            txn, "accounts", (7,), for_update=True)
        yield from engine.commit(txn)
        return row7

    start = env.now
    env.process(holder())
    proc = env.process(reader())
    while not engine.locks.queue_length(lock_key):
        env.step()
    owed = 0.0  # summed in the order the reads add to the debt
    for _ in range(k):
        owed += stmt
        owed += row
    owed += stmt
    assert owed == pytest.approx(k * (stmt + row) + stmt)
    assert env.now == start + owed
    assert dep.run_until(proc) == [7, "n7", 7.0]


def test_a_miss_issues_its_read_where_it_did():
    """(b) A miss pays the debt before its I/O, so the read leaves at the
    instant it did when every read charged its own CPU: one resident
    read and the missing read's statement after the start."""
    dep = warmed_accounts()
    engine, env = dep.engine, dep.env
    page_id = engine.catalog.table("accounts").page_id(0)
    issued = []
    fetch_miss = engine._fetch_miss

    def recorded(pid):
        issued.append(env.now)
        return (yield from fetch_miss(pid))

    engine._fetch_miss = recorded

    def reads():
        txn = engine.begin()
        yield from engine.read_row(txn, "accounts", (1,))
        engine.buffer_pool.drop(page_id)
        row = yield from engine.read_row(txn, "accounts", (2,))
        yield from engine.commit(txn)
        return row

    assert run(dep, reads()) == [2, "n2", 2.0]
    assert issued == [MISS_ISSUED_AT]


def test_the_pool_is_charged_what_each_read_charged_itself():
    """(c) Deferring a read's CPU moves no CPU: over reads paid by a
    write, by a rollback and by a read-only commit, plus txn-less reads,
    the pool is as busy as when every read charged its own."""
    dep = warmed_accounts()
    engine = dep.engine

    def verbs():
        txn = engine.begin()
        for key in (1, 2, 3):
            yield from engine.read_row(txn, "accounts", (key,))
        yield from engine.read_row(None, "accounts", (4,))
        yield from engine.read_row(None, "accounts", (999,))
        yield from engine.update(txn, "accounts", (5,), {"balance": 2.5})
        yield from engine.read_row(txn, "accounts", (6,), for_update=True)
        yield from engine.read_row(txn, "accounts", (7,))
        yield from engine.rollback(txn)
        assert txn.cpu_debt == 0.0
        txn = engine.begin()
        yield from engine.read_row(txn, "accounts", (8,))
        yield from engine.commit(txn)
        assert txn.cpu_debt == 0.0

    run(dep, verbs())
    assert engine.cpu.busy_time == pytest.approx(POOL_BUSY_S, rel=1e-12)
    # The read-only commit paid its read before its measured wait.
    assert dep.registry.latency("engine.txn.commit_wait").samples[-1] == 0.0


@pytest.mark.parametrize("payer", ["update", "commit", "rollback"])
def test_a_crash_while_a_transaction_pays_raises_and_mutates_nothing(payer):
    """(d) The crash lands, and recovery finishes, while a transaction
    pays 34 ms of reads: its statement then raises (a rollback gives up
    quietly, recovery having undone it), and the rebuilt engine
    allocates no LSN, touches no page and holds no lock for it."""
    dep = warmed_accounts()
    engine, env = dep.engine, dep.env
    seen = {}

    def state():
        return (env.now, engine.lsn.current, dict(engine.page_versions),
                dict(engine.locks._held))

    def crash_and_recover():
        yield env.timeout(0.001)
        engine.crash()
        yield from engine.recover()
        seen["recovered"] = state()

    def pays():
        txn = engine.begin()
        yield from engine.update(txn, "accounts", (3,), {"balance": 9.0})
        for _ in range(50):
            for key in range(1, 41):
                yield from engine.read_row(txn, "accounts", (key,))
        env.process(crash_and_recover())
        try:
            if payer == "update":
                yield from engine.update(
                    txn, "accounts", (4,), {"balance": 0.5})
            elif payer == "commit":
                yield from engine.commit(txn)
            else:
                yield from engine.rollback(txn)
        except TransactionAborted:
            seen["raised"] = True
        seen["paid"] = state()
        yield from engine.rollback(txn)
        return txn.status

    assert run(dep, pays()) == "aborted"
    assert ("raised" in seen) == (payer != "rollback")
    assert seen["recovered"][0] < seen["paid"][0]
    assert seen["paid"][1:] == seen["recovered"][1:]
    assert engine.committed == 1  # the load's
    assert run(dep, engine.read_row(None, "accounts", (3,))) == [3, "n3", 3.0]


# ---------------------------------------------------------------------------
# Host
# ---------------------------------------------------------------------------

def test_page_ids_are_interned_per_table():
    dep = warmed_accounts()
    table = dep.engine.catalog.table("accounts")
    assert table.page_id(0) is table.page_id(0)
    assert table.page_id(0) == PageId(table.space_no, 0)
    assert table.page_id(7) is not table.page_id(8)
    # ...and the engine's own structures hold that very object.
    page = dep.engine.buffer_pool.peek(table.page_id(0))
    assert page.page_id is table.page_id(0)
    assert next(iter(dep.engine.page_versions)) is table.page_id(0)


def test_page_id_hashes_orders_prints_and_stripes_as_before():
    page_id = PageId(3, 7)
    assert hash(page_id) == hash((3, 7))
    assert page_id == PageId(3, 7) and page_id != PageId(7, 3)
    assert (page_id.space_no, page_id.page_no) == (3, 7)
    assert sorted([PageId(2, 0), PageId(1, 9), PageId(1, 2)]) == [
        PageId(1, 2), PageId(1, 9), PageId(2, 0)]
    assert str(page_id) == "3:7"
    assert "page %s of %s" % (page_id, "t") == "page 3:7 of t"
    assert repr(page_id) == "PageId(space_no=3, page_no=7)"
    # LRU striping and PageStore placement both go through that hash.
    pool = BufferPool(64 * 16384, lru_lists=8)
    for page_no in range(32):
        pool.put(Page(PageId(3, page_no)))
        assert pool._where[PageId(3, page_no)] == hash((3, page_no)) % 8
        assert PageId(3, page_no) in pool._lists[hash((3, page_no)) % 8]
    dep = Deployment(DeploymentSpec.astore_pq(seed=1))
    pagestore = dep.pagestore
    for page_no in range(32):
        assert pagestore.segment_of(PageId(3, page_no)) == (
            hash((3, page_no)) % pagestore.num_segments)


class _GeneratorCalls:
    """Names of the generator functions entered while active
    (``sys.setprofile`` reports a ``call`` each time a generator frame
    starts or resumes)."""

    def __enter__(self):
        self.names = set()
        self._outer = sys.getprofile()
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(self._outer)

    def _hook(self, frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_flags & inspect.CO_GENERATOR:
            self.names.add(code.co_name)


def test_no_generator_where_nothing_waits():
    dep = warmed_accounts()
    engine = dep.engine

    def statements():
        txn = engine.begin()
        yield from engine.read_row(txn, "accounts", (3,), for_update=True)
        with _GeneratorCalls() as reads:
            # Every page is resident and the lock is already ours: the
            # reads wait for nothing, and their CPU is owed, not charged.
            row = yield from engine.read_row(txn, "accounts", (3,))
            again = yield from engine.read_row(
                txn, "accounts", (3,), for_update=True)
        with _GeneratorCalls() as calls:
            # The write pays the debt: the one wait left.
            yield from engine.update(
                txn, "accounts", (3,), {"balance": 9.0})
        assert row == again == [3, "n3", 3.0]
        with _GeneratorCalls() as locking:
            yield from engine.delete(txn, "accounts", (6,))
        yield from engine.commit(txn)
        return reads.names, calls.names, locking.names

    read_names, hit_names, locking_names = run(dep, statements())
    assert read_names == {"read_row"}
    assert {"update", "consume"} <= hit_names
    assert not hit_names & {"fetch_page", "_fetch_miss", "_acquire", "acquire"}
    # A lock somebody has to be granted still takes both generators.
    assert {"_acquire", "acquire"} <= locking_names
    assert not locking_names & {"fetch_page", "_fetch_miss"}


def test_fetch_page_miss_takes_the_generator_tail():
    dep = warmed_accounts()
    engine = dep.engine
    table = engine.catalog.table("accounts")
    page_id = table.page_id(0)

    def fetch():
        # Quiesced above: the REDO for page 0 has shipped to PageStore.
        engine.buffer_pool.drop(page_id)
        assert engine.peek_page(page_id) is None
        with _GeneratorCalls() as calls:
            page = yield from engine.fetch_page(page_id)
        return page, calls.names

    page, names = run(dep, fetch())
    assert page.page_id == page_id and page.row_count == 40
    assert "_fetch_miss" in names
    assert engine.peek_page(page_id) == (page, 0.0)


def _old_log_bytes(record):
    """``RedoRecord.log_bytes`` as the property computed it on each read."""
    op_bytes = 40 + (len(record.op.row) if record.op.row is not None else 0)
    undo = len(record.undo_row) if record.undo_row is not None else 0
    return op_bytes + undo + 24


def test_redo_records_are_sized_once_and_as_before():
    page_id = PageId(1, 0)
    row, before = b"r" * 57, b"b" * 33
    records = [
        RedoRecord(1, 7, page_id, PageOp("insert", slot=0, row=row)),
        RedoRecord(2, 7, page_id, PageOp("update", slot=0, row=row),
                   undo_row=before),
        RedoRecord(3, 7, page_id, PageOp("delete", slot=0), undo_row=before),
        RedoRecord(4, 7, PageId(0, 0), PageOp("format"), commit=True),
        RedoRecord(5, 7, page_id, PageOp("update", slot=0, row=before),
                   undo_row=row, clr=True, compensates=2),
        RedoRecord(6, 0, page_id, PageOp("format")),
    ]
    assert [r.log_bytes for r in records] == [121, 154, 97, 64, 154, 64]
    assert [r.log_bytes for r in records] == [_old_log_bytes(r) for r in records]
    assert [r.op.log_bytes for r in records] == [97, 97, 40, 40, 73, 40]
    assert encode_records_size(records) == 121 + 154 + 97 + 64 + 154 + 64
    # Shipping stamps the back-link afterwards; the framing is fixed-size.
    records[1].back_link = 1
    assert records[1].log_bytes == 154
    # A plain slot: reading it runs no code.
    assert "log_bytes" in RedoRecord.__slots__ and "log_bytes" in PageOp.__slots__
    assert not hasattr(records[0], "__dict__")


def test_key_of_is_compiled_per_table():
    dep = warmed_accounts()
    engine = dep.engine
    accounts = engine.catalog.table("accounts")
    assert accounts.key_of([5, "n5", 5.0]) == (5,)  # one column: a 1-tuple
    pair = engine.create_table(
        "pair",
        Schema([Column("a", INT()), Column("v", INT()), Column("b", INT())]),
        ["b", "a"],
    )
    pair.add_secondary_index("by_v", ["v"])
    assert pair.key_of([1, 2, 3]) == (3, 1)
    assert pair.key_of((1, 2, 3)) == (3, 1)
    assert pair.secondary["by_v"].key_of([1, 2, 3]) == (2, 3, 1)
