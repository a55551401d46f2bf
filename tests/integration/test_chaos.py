"""Chaos integration tests: scheduled failures under live TPC-C traffic."""

import pytest

from repro import Deployment, DeploymentSpec
from repro.harness.chaos import ChaosEvent, ChaosInjector, ChaosSchedule
from repro.harness.stats import collect_stats, format_stats
from repro.sim.core import AllOf
from repro.workloads.tpcc import TpccClient, TpccConfig, TpccDatabase

from ..digest import report_digest


SMALL = TpccConfig(
    warehouses=2, districts_per_warehouse=3, customers_per_district=8, items=30
)


def build(**kwargs):
    dep = Deployment(DeploymentSpec.astore_ebp(seed=47, astore_servers=4,
                                                 **kwargs))
    dep.start()
    database = TpccDatabase(dep.engine, SMALL, dep.seeds.stream("load"))
    proc = dep.env.process(database.load())
    dep.env.run_until_event(proc)
    return dep, database


def drive(dep, database, clients, duration):
    terminals = [
        TpccClient(database, dep.seeds.stream("c%d" % i)) for i in range(clients)
    ]
    procs = [dep.env.process(t.run_for(duration)) for t in terminals]
    dep.env.run_until_event(AllOf(dep.env, procs))
    return terminals


def check_ytd(dep):
    def work(env):
        for w_id in range(1, SMALL.warehouses + 1):
            warehouse = yield from dep.engine.read_row(None, "warehouse", (w_id,))
            total = 0.0
            for d_id in range(1, SMALL.districts_per_warehouse + 1):
                district = yield from dep.engine.read_row(
                    None, "district", (w_id, d_id)
                )
                total += district[6]
            assert warehouse[7] == pytest.approx(total, abs=0.01)
        return True

    proc = dep.env.process(work(dep.env))
    dep.env.run_until_event(proc)
    return proc.value


def test_chaos_schedule_validation():
    with pytest.raises(ValueError):
        ChaosEvent(0.1, "meteor_strike")
    with pytest.raises(ValueError):
        ChaosEvent(-1.0, "astore_crash")
    schedule = ChaosSchedule().add(0.2, "astore_crash", "astore-0")
    schedule.add(0.1, "network_spike", duration=0.05)
    assert [e.kind for e in schedule.sorted_events()] == [
        "network_spike", "astore_crash",
    ]


def test_tpcc_survives_astore_crash_restart_cycle():
    dep, database = build()
    schedule = (
        ChaosSchedule()
        .add(0.05, "astore_crash", "astore-0")
        .add(0.20, "astore_restart", "astore-0")
        .add(0.22, "astore_reclaim", "astore-0")
    )
    injector = ChaosInjector(dep, schedule)
    injector.start()
    terminals = drive(dep, database, clients=6, duration=0.35)
    committed = sum(t.committed for t in terminals)
    assert committed > 50
    assert check_ytd(dep)
    assert any("crashed AStore" in line for line in injector.log)
    assert any("restarted AStore" in line for line in injector.log)


def test_tpcc_survives_pagestore_outage():
    dep, database = build()
    victim = dep.pagestore.servers[0].server_id
    schedule = (
        ChaosSchedule()
        .add(0.05, "pagestore_crash", victim)
        .add(0.25, "pagestore_restart", victim)
    )
    ChaosInjector(dep, schedule).start()
    terminals = drive(dep, database, clients=6, duration=0.35)
    assert sum(t.committed for t in terminals) > 50
    assert check_ytd(dep)


def test_tpcc_survives_network_spike_window():
    dep, database = build()
    schedule = ChaosSchedule().add(
        0.05, "network_spike", duration=0.1, factor=50.0
    )
    injector = ChaosInjector(dep, schedule)
    injector.start()
    terminals = drive(dep, database, clients=6, duration=0.3)
    assert sum(t.committed for t in terminals) > 30
    assert check_ytd(dep)
    # The spike window must have been reverted.
    assert dep.pagestore.network.spike_probability < 0.1


def test_stats_report_covers_all_components():
    dep, database = build()
    drive(dep, database, clients=4, duration=0.1)
    stats = collect_stats(dep)
    assert stats["engine"]["committed"] > 0
    assert stats["buffer_pool"]["hits"] > 0
    assert "ebp" in stats
    assert "astore" in stats
    assert "segment_ring" in stats
    assert stats["pagestore"]["ships"] > 0
    text = format_stats(dep)
    assert "engine.committed" in text
    assert "astore.servers" in text


def test_stats_on_stock_deployment():
    dep = Deployment(DeploymentSpec.stock(seed=3))
    dep.start()
    stats = collect_stats(dep)
    assert "logstore" in stats
    assert "ebp" not in stats
    assert "astore" not in stats


# ---------------------------------------------------------------------------
# Fault-tolerance layer: new chaos kinds, the seeded monkey, degraded mode
# ---------------------------------------------------------------------------


def test_windowed_chaos_kinds_require_positive_duration():
    with pytest.raises(ValueError):
        ChaosEvent(0.1, "network_spike")  # duration defaults to 0
    with pytest.raises(ValueError):
        ChaosEvent(0.1, "partition", "astore-0", duration=0.0)
    ChaosEvent(0.1, "astore_crash", "astore-0")  # instantaneous kinds: fine


def test_overlapping_spikes_restore_baseline():
    dep = Deployment(DeploymentSpec.astore_ebp(seed=9, astore_servers=4))
    dep.start()
    network = dep.pagestore.network
    baseline = network.spike_probability
    schedule = (
        ChaosSchedule()
        .add(0.01, "network_spike", duration=0.10, factor=10.0)
        .add(0.05, "network_spike", duration=0.10, factor=5.0)
    )
    injector = ChaosInjector(dep, schedule)
    injector.start()
    probes = {}

    def probe(env):
        yield env.timeout(0.08)  # both windows active
        probes["overlap"] = network.spike_probability
        yield env.timeout(0.04)  # first ended, second still active
        probes["tail"] = network.spike_probability
        yield env.timeout(0.20)

    proc = dep.env.process(probe(dep.env))
    dep.env.run_until_event(proc)
    assert probes["overlap"] == pytest.approx(min(1.0, baseline * 50.0))
    assert probes["tail"] == pytest.approx(min(1.0, baseline * 5.0))
    # After both windows close, the baseline is restored exactly.
    assert network.spike_probability == pytest.approx(baseline)


def test_chaos_monkey_schedule_is_seed_deterministic():
    from repro.harness.chaos import ChaosMonkey
    from repro.sim.rand import SeedSequence

    def build(seed):
        rng = SeedSequence(seed).stream("monkey")
        return ChaosMonkey(
            rng, ["astore-%d" % i for i in range(4)], horizon=5.0, cycles=4
        ).build()

    a, b = build(13), build(13)
    assert a.sorted_events() == b.sorted_events()
    kinds = [e.kind for e in a.sorted_events()]
    assert kinds.count("astore_crash") == 4
    assert kinds.count("astore_restart") == 4
    assert "cm_crash" in kinds and "cm_restart" in kinds
    assert "partition" in kinds
    # Every server takes a hit when cycles == len(servers).
    crashed = {e.target for e in a.events if e.kind == "astore_crash"}
    assert len(crashed) == 4
    # A different seed gives a different schedule.
    assert build(14).sorted_events() != a.sorted_events()


def test_tpcc_survives_cm_outage_window():
    dep, database = build()
    schedule = (
        ChaosSchedule()
        .add(0.05, "cm_crash")
        .add(0.20, "cm_restart")
    )
    injector = ChaosInjector(dep, schedule)
    injector.start()
    terminals = drive(dep, database, clients=6, duration=0.35)
    # The CM is control-plane only: one-sided commits keep flowing.
    assert sum(t.committed for t in terminals) > 50
    assert check_ytd(dep)
    assert any("crashed cluster manager" in line for line in injector.log)
    assert dep.astore.cm.alive


def test_tpcc_survives_partition_window():
    dep, database = build()
    victim = "astore-0"
    schedule = ChaosSchedule().add(
        0.05, "partition", victim, duration=4.0, peer="cm"
    )
    injector = ChaosInjector(dep, schedule)
    injector.start()
    terminals = drive(dep, database, clients=4, duration=0.3)
    assert sum(t.committed for t in terminals) > 30
    # Long past the failure timeout: the detector declared the
    # partitioned server failed and rebuilt its routes...
    dep.run_for(5.0)
    assert dep.astore.cm.rebuilds >= 1
    # ...and after the window healed, it rejoined the fleet.
    dep.run_for(2.0)
    assert victim not in dep.astore.cm.failed_servers
    assert dep.astore.servers[victim].reachable_from("cm")
    assert check_ytd(dep)


def test_total_log_outage_parks_commits_in_degraded_mode():
    dep, database = build()
    engine = dep.engine
    observed = {}

    def chaos(env):
        yield env.timeout(0.05)
        for server in dep.astore.servers.values():
            server.crash()
        yield env.timeout(1.0)  # well past several flush attempts
        observed["degraded_during"] = engine.degraded
        for server in dep.astore.servers.values():
            server.restart()

    def late_commit(env):
        # Submitted mid-outage: group commit must park, not error.
        yield env.timeout(0.1)
        client = TpccClient(database, dep.seeds.stream("late-client"))
        txn = engine.begin()
        yield from client.txn_payment(txn)
        yield from engine.commit(txn)
        return True

    dep.env.process(chaos(dep.env))
    proc = dep.env.process(late_commit(dep.env))
    dep.env.run_until_event(proc)
    dep.run_for(2.0)
    # The outage parked group commit (bounded retries), never killed it:
    # once the fleet returned, the commit landed and degraded mode ended.
    assert proc.value is True
    assert observed["degraded_during"] is True
    assert engine.flush_retries >= 1
    assert engine.degraded_episodes >= 1
    assert engine.degraded is False


def test_chaos_soak_smoke_holds_invariants():
    from repro.harness.soak import run_chaos_soak

    report = run_chaos_soak(seed=3, short=True, horizon=0.9, terminals=2)
    assert report["ok"], report["violations"]
    assert report["committed"] > 200
    assert len([l for l in report["chaos_log"] if "crashed AStore" in l]) >= 3
    assert any("cluster manager" in l for l in report["chaos_log"])
    assert any("partitioned" in l for l in report["chaos_log"])
    # Shipping on demand moved it (the 1 ms PageStore shipper:
    # 549634c39eb891da73dd04fb2b418399b6f4fb73edad459fe4976462d310e485),
    # and so did paying reads' CPU at the next wait (a charge per read:
    # 61bafe7d3c07be96d59a8941835ee567602fa67f94fb60a845fe31c1ccb11214),
    # and so did applying PageStore REDO as it is chained (with the 1 ms
    # apply daemon:
    # fe9887f84fb19c9b06af64387c96f179dacaaf1767a4b7ea3ed07a924b53278b).
    assert report_digest(report) == (
        "35272313d47db97fa658cc99205f80e357c1372e9a3156bb885951557adbe36c"
    )


def test_sharded_soak_report_is_pinned():
    from repro.harness.soak import run_sharded_soak

    report = run_sharded_soak(seed=7, short=True, horizon=0.6)
    assert report["ok"], report["violations"]
    # Shipping on demand moved it (the 1 ms PageStore shipper:
    # 9fceb4d55d4a42bf4fbc18b3add5e001a4b7a394e785917dc95b1b32c9367b32),
    # and so did paying reads' CPU at the next wait (a charge per read:
    # 0e63a515306de85b8ca207abee84d17195fb11d20a2984c3c8625c010244d427),
    # and so did applying PageStore REDO as it is chained (with the 1 ms
    # apply daemon:
    # defc0325874160541790148cdccf1284aac46becb63408ec2dcf4c43e94a2e54).
    assert report_digest(report) == (
        "bb37d42e09dac9acb51a10ef8b7bc225ba0c68f08bcfe1877efabbea0f456d3e"
    )
