"""Tests for the orders, ads, sysbench, lookup, and microbench workloads."""

import pytest

from repro import Deployment, DeploymentSpec
from repro.sim.core import AllOf
from repro.workloads.ads import AdsClient, AdsConfig, AdsDatabase
from repro.workloads.lookup import LookupClient, LookupConfig, LookupDatabase
from repro.workloads.microbench import run_astore_micro, run_logstore_micro
from repro.workloads.orders import (
    WIDE_ROW_FILLER,
    OrdersClient,
    OrdersConfig,
    OrdersDatabase,
)
from repro.workloads.sysbench import SysbenchClient, SysbenchConfig, SysbenchDatabase


def deployment(seed=13):
    dep = Deployment(DeploymentSpec.astore_log(seed=seed))
    dep.start()
    return dep


def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


# ---------------------------------------------------------------------------
# Orders
# ---------------------------------------------------------------------------


def test_orders_single_insert_is_wide():
    dep = deployment()
    database = OrdersDatabase(dep.engine, OrdersConfig(vendors=3))
    run(dep, database.load())
    client = OrdersClient(database, dep.seeds.stream("w"))

    def work(env):
        return (yield from client.single_insert())

    latency = run(dep, work(dep.env))
    assert latency is not None and latency > 0
    table = dep.engine.catalog.table("order_flow")
    assert table.row_count == 1
    # The row really is ~2 KB wide.
    page = None

    def fetch(env):
        page_no, slot = table.lookup((1,))
        return (yield from dep.engine.fetch_page(table.page_id(page_no)))

    page = run(dep, fetch(dep.env))
    row = next(iter(page.slots()))[1]
    assert len(row) > WIDE_ROW_FILLER


def test_orders_batch_updates_hot_balance():
    dep = deployment()
    database = OrdersDatabase(dep.engine, OrdersConfig(vendors=3,
                                                       hot_vendor_share=1.0,
                                                       orders_per_batch=4))
    run(dep, database.load())
    client = OrdersClient(database, dep.seeds.stream("w"))

    def work(env):
        yield from client.order_processing()
        return (yield from dep.engine.read_row(None, "vendor_account", (1,)))

    account = run(dep, work(dep.env))
    assert account[3] == 4  # v_order_count advanced once per batched order
    assert account[2] > 0
    assert dep.engine.catalog.table("order_flow").row_count == 4


def test_orders_hot_row_serializes_concurrent_batches():
    dep = deployment()
    database = OrdersDatabase(dep.engine, OrdersConfig(hot_vendor_share=1.0,
                                                       orders_per_batch=3))
    run(dep, database.load())
    clients = [OrdersClient(database, dep.seeds.stream("w%d" % i))
               for i in range(4)]
    procs = [dep.env.process(c.order_processing()) for c in clients]
    dep.env.run_until_event(AllOf(dep.env, procs))

    def check(env):
        return (yield from dep.engine.read_row(None, "vendor_account", (1,)))

    account = run(dep, check(dep.env))
    assert account[3] == 12  # no lost updates despite full contention


# ---------------------------------------------------------------------------
# Ads
# ---------------------------------------------------------------------------


def test_ads_mix_reads_and_updates():
    dep = deployment()
    database = AdsDatabase(dep.engine, AdsConfig(campaigns=50))
    run(dep, database.load())
    client = AdsClient(database, dep.seeds.stream("ads"))

    def work(env):
        for _ in range(60):
            yield from client.run_one()

    run(dep, work(dep.env))
    assert client.latencies.count == client.committed
    assert client.committed > 50
    table = dep.engine.catalog.table("campaign")
    assert table.row_count == 50


def test_ads_updates_are_durable():
    dep = deployment()
    database = AdsDatabase(dep.engine, AdsConfig(campaigns=10,
                                                 update_fraction=1.0,
                                                 zipf_theta=0.0))
    run(dep, database.load())
    client = AdsClient(database, dep.seeds.stream("ads"))

    def work(env):
        for _ in range(20):
            yield from client.run_one()
        total = 0
        for cp in range(1, 11):
            row = yield from dep.engine.read_row(None, "campaign", (cp,))
            total += row[4]
        return total

    total_impressions = run(dep, work(dep.env))
    assert total_impressions == 20


# ---------------------------------------------------------------------------
# sysbench
# ---------------------------------------------------------------------------


def test_sysbench_event_counts_statements():
    dep = deployment()
    database = SysbenchDatabase(dep.engine, SysbenchConfig(rows=200))
    run(dep, database.load())
    client = SysbenchClient(database, dep.seeds.stream("sb"))

    def work(env):
        return (yield from client.run_one())

    statements = run(dep, work(dep.env))
    config = database.config
    assert statements == (
        config.point_selects + config.range_scans + config.index_updates
    )
    assert client.operations == statements


def test_sysbench_loader():
    dep = deployment()
    database = SysbenchDatabase(dep.engine, SysbenchConfig(rows=150))
    run(dep, database.load())
    assert dep.engine.catalog.table("sbtest").row_count == 150


# ---------------------------------------------------------------------------
# Lookup
# ---------------------------------------------------------------------------


def test_lookup_client_mixes_pk_and_secondary():
    dep = deployment()
    database = LookupDatabase(dep.engine, LookupConfig(rows=300))
    run(dep, database.load())
    client = LookupClient(database, dep.seeds.stream("lk"))

    def work(env):
        yield from client.run_count(50)

    run(dep, work(dep.env))
    assert client.latencies.count == 50
    assert client.latencies.mean > 0


def test_lookup_table_has_priority_for_ebp():
    dep = deployment()
    database = LookupDatabase(dep.engine, LookupConfig(rows=10))
    assert dep.engine.catalog.table("records").priority == 1


# ---------------------------------------------------------------------------
# Microbench (Table II) calibration
# ---------------------------------------------------------------------------


def test_microbench_matches_paper_calibration():
    without_pmem = run_logstore_micro(writes=600)
    with_pmem = run_astore_micro(writes=600)
    # Paper: 0.638 ms vs 0.086 ms, ~7.4x.
    assert 0.35 < without_pmem.avg_latency_ms < 1.1
    assert 0.05 < with_pmem.avg_latency_ms < 0.15
    ratio = without_pmem.avg_latency_ms / with_pmem.avg_latency_ms
    assert 4.0 < ratio < 14.0
    # IOPS and bandwidth are consistent with the latencies.
    assert with_pmem.iops > without_pmem.iops
    assert with_pmem.bandwidth_mb_s > without_pmem.bandwidth_mb_s


def test_microbench_deterministic_with_seed():
    a = run_astore_micro(writes=200, seed=99)
    b = run_astore_micro(writes=200, seed=99)
    assert a.avg_latency_ms == b.avg_latency_ms
    assert a.iops == b.iops
