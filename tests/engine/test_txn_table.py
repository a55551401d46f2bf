"""Tests for the lock manager, transactions, tables and the catalog."""

import pytest

from repro.common import QueryError, TransactionAborted
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.engine.table import Catalog, Table
from repro.engine.txn import LockManager, Transaction
from repro.sim.core import AllOf, Environment


# ---------------------------------------------------------------------------
# Lock manager
# ---------------------------------------------------------------------------


def test_lock_acquire_release():
    env = Environment()
    locks = LockManager(env)
    txn = Transaction(env)

    def work(env):
        yield from locks.acquire(txn, ("t", 1))
        return locks.owner_of(("t", 1))

    proc = env.process(work(env))
    env.run()
    assert proc.value == txn.txn_id
    locks.release_all(txn)
    assert locks.owner_of(("t", 1)) is None


def test_lock_reentrant_for_owner():
    env = Environment()
    locks = LockManager(env)
    txn = Transaction(env)

    def work(env):
        yield from locks.acquire(txn, ("t", 1))
        yield from locks.acquire(txn, ("t", 1))  # no deadlock with self
        return "ok"

    proc = env.process(work(env))
    env.run()
    assert proc.value == "ok"


def test_lock_fifo_between_transactions():
    env = Environment()
    locks = LockManager(env)
    order = []

    def worker(env, name, hold):
        txn = Transaction(env)
        yield from locks.acquire(txn, ("t", 1))
        order.append(name)
        yield env.timeout(hold)
        locks.release_all(txn)

    env.process(worker(env, "a", 1.0))
    env.process(worker(env, "b", 1.0))
    env.process(worker(env, "c", 1.0))
    env.run()
    assert order == ["a", "b", "c"]


def test_lock_wait_timeout():
    env = Environment()
    locks = LockManager(env, wait_timeout=0.5)
    holder = Transaction(env)

    def hold_forever(env):
        yield from locks.acquire(holder, ("t", 1))
        yield env.timeout(10.0)
        locks.release_all(holder)

    outcomes = []

    def waiter(env):
        txn = Transaction(env)
        try:
            yield from locks.acquire(txn, ("t", 1))
            outcomes.append("acquired")
        except TransactionAborted:
            outcomes.append("timeout")

    env.process(hold_forever(env))
    env.process(waiter(env))
    env.run()
    assert outcomes == ["timeout"]
    assert locks.timeouts == 1


def test_deadlock_cycle_detected():
    env = Environment()
    locks = LockManager(env)
    t1, t2 = Transaction(env), Transaction(env)
    outcomes = []

    def worker(env, txn, first, second, delay):
        yield from locks.acquire(txn, first)
        yield env.timeout(delay)
        try:
            yield from locks.acquire(txn, second)
            outcomes.append("ok")
            yield env.timeout(0.1)
        except TransactionAborted:
            outcomes.append("deadlock")
        locks.release_all(txn)

    env.process(worker(env, t1, ("t", 1), ("t", 2), 0.1))
    env.process(worker(env, t2, ("t", 2), ("t", 1), 0.1))
    env.run()
    assert sorted(outcomes) == ["deadlock", "ok"]
    assert locks.deadlocks == 1


def test_three_way_deadlock_detected():
    env = Environment()
    locks = LockManager(env)
    txns = [Transaction(env) for _ in range(3)]
    outcomes = []

    def worker(env, txn, first, second):
        yield from locks.acquire(txn, first)
        yield env.timeout(0.1)
        try:
            yield from locks.acquire(txn, second)
            outcomes.append("ok")
            yield env.timeout(0.1)
        except TransactionAborted:
            outcomes.append("deadlock")
        locks.release_all(txn)

    keys = [("k", 0), ("k", 1), ("k", 2)]
    for index, txn in enumerate(txns):
        env.process(worker(env, txn, keys[index], keys[(index + 1) % 3]))
    env.run()
    assert "deadlock" in outcomes
    assert outcomes.count("ok") == 2


def test_lock_table_is_empty_once_every_transaction_has_finished():
    """The table holds only held or waited-for keys: a mix of uncontended
    keys, a FIFO queue on a hot key, a timed-out waiter and a deadlock
    victim must all leave nothing behind."""
    env = Environment()
    locks = LockManager(env, wait_timeout=0.5)
    outcomes = []

    def worker(env, keys, hold):
        txn = Transaction(env)
        try:
            for key in keys:
                yield from locks.acquire(txn, key)
                yield env.timeout(hold)
            outcomes.append("ok")
        except TransactionAborted:
            outcomes.append("aborted")
        locks.release_all(txn)

    for index in range(20):  # private keys plus one hot key, queued FIFO
        env.process(worker(env, [("cold", index), ("hot", 0)], 0.01))
    env.process(worker(env, [("slow", 0)], 2.0))
    env.process(worker(env, [("slow", 0)], 0.0))  # times out at 0.5
    env.process(worker(env, [("x", 1), ("x", 2)], 0.1))
    env.process(worker(env, [("x", 2), ("x", 1)], 0.1))  # deadlock victim
    env.run()
    assert outcomes.count("aborted") == 2 and locks.timeouts == 1
    assert locks.deadlocks == 1
    assert locks._locks == {} and locks._held == {} and locks._waiting_on == {}


def test_lock_events_one_per_grant_scheduled_where_a_resource_did():
    """An uncontended lock costs no event (it cost the one its holder
    yielded on before free keys were granted on the spot: 1, 1, 1); a
    waiter's grant takes its sequence number at the release."""
    env = Environment()
    locks = LockManager(env)
    seqs = {}

    def first(env):
        txn = Transaction(env)
        before = env._seq
        yield from locks.acquire(txn, ("t", 1))
        seqs["uncontended"] = env._seq - before
        yield from locks.acquire(txn, ("t", 1))  # re-entrant: nothing
        seqs["reentrant"] = env._seq - before
        waiter.append(env.process(second(env)))
        yield env.timeout(1.0)
        assert locks.queue_length(("t", 1)) == 1
        before = env._seq
        locks.release_all(txn)
        seqs["release"] = env._seq - before
        assert locks.owner_of(("t", 1)) is None  # handed over, not yet taken
        assert locks.queue_length(("t", 1)) == 0

    def second(env):
        txn = Transaction(env)
        yield env.timeout(0.5)
        yield from locks.acquire(txn, ("t", 1))
        assert locks.owner_of(("t", 1)) == txn.txn_id
        locks.release_all(txn)
        return env.now

    waiter = []
    env.process(first(env))
    env.run()
    assert seqs == {"uncontended": 0, "reentrant": 0, "release": 1}
    assert waiter[0].value == 1.0 and locks.waits == 1
    assert locks._locks == {} and locks._held == {}


def test_release_all_on_a_lock_table_that_never_saw_the_txn_is_a_no_op():
    """After an engine crash the lock table is a new one; a straggler's
    release must not free a key somebody else now holds."""
    env = Environment()
    old, fresh = LockManager(env), LockManager(env)
    stale, owner = Transaction(env), Transaction(env)

    def work(env):
        yield from old.acquire(stale, ("t", 1))
        yield from fresh.acquire(owner, ("t", 1))
        fresh.release_all(stale)
        return fresh.owner_of(("t", 1))

    p = env.process(work(env))
    env.run()
    assert p.value == owner.txn_id
    assert stale.locks == []


# ---------------------------------------------------------------------------
# Tables and catalog
# ---------------------------------------------------------------------------


def sample_table():
    schema = Schema(
        [Column("a", INT()), Column("b", INT()), Column("c", VARCHAR(16))]
    )
    return Table("t", schema, ["a", "b"], space_no=3)


def test_key_extraction():
    table = sample_table()
    assert table.key_of([1, 2, "x"]) == (1, 2)


def test_index_insert_lookup_delete():
    table = sample_table()
    table.index_insert([1, 2, "x"], (0, 0))
    assert table.lookup((1, 2)) == (0, 0)
    table.index_delete([1, 2, "x"])
    assert table.lookup((1, 2)) is None
    assert table.row_count == 0


def test_duplicate_pk_rejected():
    table = sample_table()
    table.index_insert([1, 2, "x"], (0, 0))
    with pytest.raises(QueryError, match="duplicate"):
        table.index_insert([1, 2, "y"], (0, 1))


def test_secondary_index_prefix_scan():
    table = sample_table()
    table.add_secondary_index("by_c", ["c"])
    table.index_insert([1, 1, "apple"], (0, 0))
    table.index_insert([1, 2, "apple"], (0, 1))
    table.index_insert([1, 3, "banana"], (0, 2))
    hits = list(table.lookup_secondary("by_c", ("apple",)))
    assert len(hits) == 2
    assert {loc for _, loc in hits} == {(0, 0), (0, 1)}


def test_secondary_index_updated_on_value_change():
    table = sample_table()
    table.add_secondary_index("by_c", ["c"])
    table.index_insert([1, 1, "old"], (0, 0))
    table.index_update([1, 1, "old"], [1, 1, "new"], (0, 0))
    assert list(table.lookup_secondary("by_c", ("old",))) == []
    assert len(list(table.lookup_secondary("by_c", ("new",)))) == 1


def test_reindex_row_moves_locators():
    table = sample_table()
    table.add_secondary_index("by_c", ["c"])
    table.index_insert([1, 1, "x"], (0, 0))
    table.reindex_row([1, 1, "x"], [1, 1, "x"], (5, 7))
    assert table.lookup((1, 1)) == (5, 7)
    assert next(table.lookup_secondary("by_c", ("x",)))[1] == (5, 7)


def test_pk_update_rejected():
    table = sample_table()
    table.index_insert([1, 1, "x"], (0, 0))
    with pytest.raises(QueryError):
        table.index_update([1, 1, "x"], [2, 1, "x"], (0, 0))


def test_page_allocation_and_hints():
    table = sample_table()
    first = table.allocate_page()
    second = table.allocate_page()
    assert (first, second) == (0, 1)
    table.note_page(1, free_bytes=500)
    assert table.choose_page_for_insert(400) == 1
    assert table.choose_page_for_insert(5000) is None


def test_unknown_secondary_index():
    table = sample_table()
    with pytest.raises(QueryError):
        list(table.lookup_secondary("nope", (1,)))


def test_catalog():
    catalog = Catalog()
    schema = Schema([Column("id", INT())])
    t1 = catalog.create_table("one", schema, ["id"])
    t2 = catalog.create_table("two", schema, ["id"])
    assert t1.space_no != t2.space_no
    assert catalog.table("one") is t1
    assert catalog.by_space(t2.space_no) is t2
    assert "one" in catalog
    with pytest.raises(QueryError):
        catalog.create_table("one", schema, ["id"])
    with pytest.raises(QueryError):
        catalog.table("missing")


def test_table_requires_valid_key_columns():
    schema = Schema([Column("id", INT())])
    with pytest.raises(QueryError):
        Table("t", schema, [], 1)
    with pytest.raises(QueryError):
        Table("t", schema, ["nope"], 1)
