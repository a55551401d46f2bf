"""The scenario kit's audits must fail when they should.

Every seeded scenario asserts ``ok``; these tests show each audit
catching the fault it exists for, against the kit functions directly.
"""

from types import SimpleNamespace

import pytest

from repro.engine.codec import INT, Column, Schema
from repro.harness.scenario import (
    audit_tpcc_ledgers,
    check_version,
    run,
    scenario_spec,
)
from repro.views.scenario import VIEWS, _equivalence_audit, _settle
from repro.workloads.tpcc import TpccConfig, TpccDatabase

TINY_TPCC = TpccConfig(
    warehouses=2, districts_per_warehouse=2,
    customers_per_district=2, items=5,
)


def ledger(payments=None, maybe_payments=None, new_orders=None,
           maybe_new_orders=None):
    """A terminal as the audit sees it: its four ledgers."""
    return SimpleNamespace(
        committed_payments=payments or {},
        maybe_payments=maybe_payments or {},
        committed_new_orders=new_orders or {},
        maybe_new_orders=maybe_new_orders or {},
    )


@pytest.fixture(scope="module")
def tpcc_dep():
    dep = scenario_spec(seed=5, bp_pages=24).build()
    dep.start()
    database = TpccDatabase(dep.engine, TINY_TPCC, dep.seeds.stream("load"))
    run(dep, database.load())
    return dep


def audit(dep, *terminals):
    return audit_tpcc_ledgers(dep, dep.engine, TINY_TPCC, terminals)


def behind_the_clients_back(dep, table, key, column, delta):
    """Change a hot-row counter with no client ledger recording it."""
    engine = dep.engine

    def change():
        txn = engine.begin()
        row = yield from engine.read_row(txn, table, key, for_update=True)
        position = {"d_ytd": 6, "d_next_o_id": 7, "w_ytd": 7}[column]
        yield from engine.update(
            txn, table, key, {column: row[position] + delta}
        )
        yield from engine.commit(txn)

    run(dep, change())


def test_ledger_audit_holds_on_a_fresh_load(tpcc_dep):
    assert audit(tpcc_dep) == []
    assert audit(tpcc_dep, ledger(), ledger()) == []


def test_ledger_audit_flags_a_phantom_payment(tpcc_dep):
    # +5.00 on district (1,1) and its warehouse: sum(D_YTD) still holds,
    # only the ledgers can tell.
    behind_the_clients_back(tpcc_dep, "district", (1, 1), "d_ytd", 5.0)
    behind_the_clients_back(tpcc_dep, "warehouse", (1,), "w_ytd", 5.0)
    try:
        # Equality form: no in-doubt outcomes, so committed is exact.
        assert audit(tpcc_dep, ledger()) == [
            "district (1, 1): D_YTD 5.0 outside committed 0.0 .. "
            "committed+maybe 0.0",
            "warehouse 1: W_YTD 5.0 outside committed 0.0 .. "
            "committed+maybe 0.0",
        ]
        # Band form: inside committed .. committed + maybe passes ...
        assert audit(tpcc_dep, ledger(maybe_payments={(1, 1): 10.0})) == []
        assert audit(tpcc_dep, ledger(payments={(1, 1): 5.0})) == []
        # ... outside it, above or below, does not.
        assert audit(tpcc_dep, ledger(maybe_payments={(1, 1): 2.0})) == [
            "district (1, 1): D_YTD 5.0 outside committed 0.0 .. "
            "committed+maybe 2.0",
            "warehouse 1: W_YTD 5.0 outside committed 0.0 .. "
            "committed+maybe 2.0",
        ]
        assert audit(tpcc_dep, ledger(payments={(1, 1): 7.0})) == [
            "district (1, 1): D_YTD 5.0 outside committed 7.0 .. "
            "committed+maybe 7.0",
            "warehouse 1: W_YTD 5.0 outside committed 7.0 .. "
            "committed+maybe 7.0",
        ]
    finally:
        behind_the_clients_back(tpcc_dep, "district", (1, 1), "d_ytd", -5.0)
        behind_the_clients_back(tpcc_dep, "warehouse", (1,), "w_ytd", -5.0)
    assert audit(tpcc_dep) == []


def test_ledger_audit_flags_a_lost_new_order_and_a_torn_warehouse(tpcc_dep):
    behind_the_clients_back(tpcc_dep, "district", (2, 2), "d_next_o_id", 1)
    try:
        assert audit(tpcc_dep) == [
            "district (2, 2): d_next_o_id-1 1 outside committed 0 .. "
            "committed+maybe 0",
        ]
        assert audit(tpcc_dep, ledger(maybe_new_orders={(2, 2): 1})) == []
    finally:
        behind_the_clients_back(tpcc_dep, "district", (2, 2), "d_next_o_id", -1)
    behind_the_clients_back(tpcc_dep, "warehouse", (2,), "w_ytd", 1.0)
    try:
        violations = audit(tpcc_dep, ledger(maybe_payments={(2, 1): 1.0}))
        assert violations == ["warehouse 2: W_YTD 1.00 != sum(D_YTD) 0.00"]
    finally:
        behind_the_clients_back(tpcc_dep, "warehouse", (2,), "w_ytd", -1.0)


def fresh_stats():
    return {"stale_reads": 0, "missing_rows": 0, "violations": []}


def test_check_version_flags_stale_and_missing_reads():
    env = SimpleNamespace(now=0.125)
    stats = fresh_stats()
    check_version(env, stats, "mixed-0", 7, 3, 3, "replica-0")  # fresh
    check_version(env, stats, "mixed-0", 8, 0, None, "replica-1")  # unwritten
    assert stats == fresh_stats()

    check_version(env, stats, "mixed-0", 7, 2, 3, "replica-1")
    check_version(env, stats, "gold-4", 9, None, None)
    check_version(env, stats, "gold-4", 9, None, 5, "primary")
    assert stats["stale_reads"] == 1
    assert stats["missing_rows"] == 2
    assert stats["violations"] == [
        "t=0.1250 mixed-0: key 7 version 2 < committed 3 (route replica-1)",
        "t=0.1250 gold-4: key 9 missing",
        "t=0.1250 gold-4: key 9 missing (route primary)",
    ]


def test_equivalence_audit_flags_a_served_answer_that_differs():
    dep = scenario_spec(seed=9, bp_pages=48).with_replicas(1).with_views(
        VIEWS
    ).build()
    dep.start()
    run(dep, TpccDatabase(
        dep.engine, TINY_TPCC, dep.seeds.stream("load")).load())
    dep.engine.create_table(
        "vaudit",
        Schema([Column("k", INT()), Column("grp", INT()),
                Column("val", INT())]),
        ["k"],
    )
    dep.fleet.sync_catalogs()
    engine = dep.engine

    def rows(txn):
        for k in range(12):
            yield from engine.insert(txn, "vaudit", [k, k % 3, k])
        return True

    session = dep.frontend_session("audit")
    run(dep, session.write(rows))
    assert _settle(dep, 1.0)

    audits = {"equivalence_checks": 0, "view_served": 0, "violations": []}
    _equivalence_audit(dep, session, "live", audits)
    assert audits == {
        "equivalence_checks": len(VIEWS),
        "view_served": len(VIEWS),
        "violations": [],
    }

    # A group lost from the maintained state: the view still serves, and
    # only the comparison with the primary's rescan can notice.
    dep.views.views["vaudit_by_grp"].groups.popitem()
    _equivalence_audit(dep, session, "drifted", audits)
    assert audits["view_served"] == 2 * len(VIEWS)
    assert audits["violations"] == [
        "drifted/vaudit_by_grp: served [(0, 4, 18.0), (1, 4, 22.0)] != "
        "rescan [(0, 4, 18.0), (1, 4, 22.0), (2, 4, 26.0)] "
        "(route view:vaudit_by_grp)"
    ]
