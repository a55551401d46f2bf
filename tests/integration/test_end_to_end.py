"""Full-system integration tests: TPC-C + crashes + failover, end to end."""

import pytest

from repro import Deployment, DeploymentSpec
from repro.common import KB, MB
from repro.engine.dbengine import EngineConfig
from repro.sim.core import AllOf
from repro.workloads.tpcc import TpccClient, TpccConfig, TpccDatabase


SMALL = TpccConfig(
    warehouses=2, districts_per_warehouse=3, customers_per_district=8, items=30
)


def build(config_factory=DeploymentSpec.astore_ebp, seed=31, **kwargs):
    dep = Deployment(config_factory(seed=seed, **kwargs))
    dep.start()
    database = TpccDatabase(dep.engine, SMALL, dep.seeds.stream("load"))
    proc = dep.env.process(database.load())
    dep.env.run_until_event(proc)
    return dep, database


def run_clients(dep, database, count, duration):
    clients = [
        TpccClient(database, dep.seeds.stream("c%d" % i)) for i in range(count)
    ]
    procs = [dep.env.process(c.run_for(duration)) for c in clients]
    dep.env.run_until_event(AllOf(dep.env, procs))
    return clients


def check_ytd_consistency(dep):
    """TPC-C consistency condition 1: W_YTD == sum(D_YTD)."""
    def work(env):
        for w_id in range(1, SMALL.warehouses + 1):
            warehouse = yield from dep.engine.read_row(None, "warehouse", (w_id,))
            total = 0.0
            for d_id in range(1, SMALL.districts_per_warehouse + 1):
                district = yield from dep.engine.read_row(
                    None, "district", (w_id, d_id)
                )
                total += district[6]
            assert warehouse[7] == pytest.approx(total, abs=0.01), (
                "w_ytd mismatch for warehouse %d" % w_id
            )
        return True

    proc = dep.env.process(work(dep.env))
    dep.env.run_until_event(proc)
    return proc.value


def test_tpcc_on_full_astore_ebp_deployment():
    dep, database = build()
    clients = run_clients(dep, database, count=8, duration=0.2)
    committed = sum(c.committed for c in clients)
    assert committed > 50
    assert check_ytd_consistency(dep)


def test_tpcc_crash_recovery_preserves_consistency():
    """Run TPC-C, crash the engine mid-flight, recover, re-check invariants
    and keep running."""
    dep, database = build()
    run_clients(dep, database, count=6, duration=0.15)

    def settle(env):
        yield env.timeout(0.05)  # drain ship queue

    proc = dep.env.process(settle(dep.env))
    dep.env.run_until_event(proc)
    committed_before = dep.engine.committed
    dep.engine.crash()

    def recover(env):
        return (yield from dep.engine.recover())

    proc = dep.env.process(recover(dep.env))
    dep.env.run_until_event(proc)
    assert check_ytd_consistency(dep)
    # The system continues serving transactions after recovery.
    clients = run_clients(dep, database, count=4, duration=0.1)
    assert sum(c.committed for c in clients) > 0
    assert dep.engine.committed > committed_before
    assert check_ytd_consistency(dep)


def test_astore_server_failure_during_tpcc():
    """Crash one of four AStore servers mid-run: commits keep flowing
    (log segments re-placed on healthy nodes), EBP only loses hit ratio."""
    dep, database = build(astore_servers=4)
    clients = [
        TpccClient(database, dep.seeds.stream("c%d" % i)) for i in range(6)
    ]
    procs = [dep.env.process(c.run_for(0.35)) for c in clients]

    def failure_injector(env):
        yield env.timeout(0.1)
        victim = dep.astore.servers["astore-0"]
        victim.crash()
        if dep.ebp is not None:
            dep.ebp.purge_server("astore-0")

    dep.env.process(failure_injector(dep.env))
    dep.env.run_until_event(AllOf(dep.env, procs))
    committed = sum(c.committed for c in clients)
    assert committed > 50  # work continued well past the crash
    assert check_ytd_consistency(dep)


def test_ebp_populates_under_buffer_pressure():
    dep, database = build(
        engine=EngineConfig(buffer_pool_bytes=24 * 16 * KB),
        ebp_capacity_bytes=64 * MB,
    )
    run_clients(dep, database, count=6, duration=0.2)

    def settle(env):
        yield env.timeout(0.1)

    proc = dep.env.process(settle(dep.env))
    dep.env.run_until_event(proc)
    assert len(dep.ebp.index) > 0
    assert dep.ebp.pages_written > 0


def test_stock_and_astore_agree_on_data():
    """The two deployments are behaviourally identical: same workload seed,
    same final database state (timing differs, contents must not)."""
    states = []
    for factory in (DeploymentSpec.stock, DeploymentSpec.astore_log):
        dep, database = build(config_factory=factory, seed=77)
        client = TpccClient(database, dep.seeds.stream("solo"))

        def work(env):
            for _ in range(30):
                yield from client.run_one()

        proc = dep.env.process(work(dep.env))
        dep.env.run_until_event(proc)

        def snapshot(env):
            rows = []
            for w_id in range(1, SMALL.warehouses + 1):
                row = yield from dep.engine.read_row(None, "warehouse", (w_id,))
                rows.append(tuple(row))
            return rows

        proc = dep.env.process(snapshot(dep.env))
        dep.env.run_until_event(proc)
        states.append((client.committed, proc.value))
    # A single-client deterministic workload makes the same decisions on
    # both deployments (the RNG stream is storage-independent).
    assert states[0] == states[1]
