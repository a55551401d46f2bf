"""The seeded scenarios' shared pieces, one copy of each.

``run_serving`` / ``run_serving_mux`` (:mod:`repro.frontend.serve`),
``run_views`` (:mod:`repro.views.scenario`) and the chaos soaks
(:mod:`repro.harness.soak`) are compositions of these plain functions.
A toolbox, not a framework: no driver or audit classes, no registry, no
callbacks.  A piece lives here only if it replaced at least two copies;
what one scenario alone needs stays in that scenario.  Each piece makes
its processes and seed streams exactly as the copies it replaced did, so
every seeded report is unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common import KB, MS, OverloadError
from ..sim.core import AllOf
from ..workloads.tpcc import TpccConfig
from .chaos import ChaosInjector, ChaosSchedule
from .deployment import DeploymentSpec
from .stats import collect_stats

__all__ = [
    "SCENARIO_TPCC", "audit_tpcc_ledgers", "bump_version", "check_version",
    "latency_ms", "reads_section", "replica_chaos", "run", "run_all",
    "scenario_spec", "storage_counters", "totals", "tpcc_driver",
    "tpcc_section",
]

#: The scenarios' TPC-C scale (sharded runs widen it per shard).
SCENARIO_TPCC = TpccConfig(
    warehouses=2, districts_per_warehouse=3,
    customers_per_district=8, items=40,
)

#: Float tolerance for YTD sums (amounts are rounded to cents on both
#: sides; anything above this is a real lost or phantom update).
CENTS = 0.01


def scenario_spec(seed: int, bp_pages: int) -> DeploymentSpec:
    """AStore log + EBP on four servers, a ``bp_pages``-page buffer
    pool, and a failure detector fast enough for sub-second chaos."""
    return DeploymentSpec.astore_ebp(
        seed=seed, astore_servers=4
    ).with_engine(
        buffer_pool_bytes=bp_pages * 16 * KB
    ).with_fault_tolerance(
        heartbeat_interval=0.05, failure_timeout=0.15, lease_duration=2.0
    )


def run(dep, generator, name: str = ""):
    """Run ``generator`` as a process to completion; returns its value."""
    return dep.run_until(dep.env.process(generator, name=name))


def run_all(dep, generators) -> None:
    """Run ``generators`` as concurrent processes until every one ends."""
    env = dep.env
    dep.run_until(AllOf(env, [env.process(gen) for gen in generators]))


def totals(stats_list, keys) -> Dict[str, int]:
    """A report section: each of ``keys`` summed over drivers' stats."""
    return {key: sum(stats[key] for stats in stats_list) for key in keys}


def tpcc_driver(env, session, client, duration, stats):
    """TPC-C terminal writing through a proxy session's write class."""
    deadline = env.now + duration
    while env.now < deadline:
        try:
            yield from session.run_write(client.run_one())
        except OverloadError:
            stats["shed"] += 1
            yield env.timeout(1 * MS)


def tpcc_section(terminals, stats) -> Dict[str, int]:
    """The report's ``tpcc`` section for :func:`tpcc_driver` terminals."""
    return {
        "committed": sum(t.committed for t in terminals),
        "aborted": sum(t.aborted for t in terminals),
        "shed": stats["shed"],
    }


def bump_version(engine, table: str, key: int):
    """A ``session.write`` body: bump the version (column 1) of row
    ``key`` in ``table``; returns the new version."""

    def bump(txn):
        row = yield from engine.read_row(txn, table, (key,), for_update=True)
        next_version = row[1] + 1
        yield from engine.update(txn, table, (key,), {"version": next_version})
        return next_version

    return bump


def check_version(env, stats, session_name: str, key: int,
                  seen: Optional[int], expect: Optional[int],
                  route: Optional[str] = None) -> None:
    """Read-your-writes check of one read of ``key``: ``seen`` is the
    version read (None: row missing), ``expect`` the session's last
    committed version (None: never written).  A missing or stale read
    counts in ``stats`` and records a violation, with the route if known."""
    if seen is None:
        stats["missing_rows"] += 1
        problem = "missing"
    elif expect is not None and seen < expect:
        stats["stale_reads"] += 1
        problem = "version %d < committed %d" % (seen, expect)
    else:
        return
    stats["violations"].append(
        "t=%.4f %s: key %d %s%s"
        % (env.now, session_name, key, problem,
           "" if route is None else " (route %s)" % route)
    )


def replica_chaos(dep, duration: float) -> List[str]:
    """Crash the last replica at 30 % of ``duration``, restart it at
    55 %; returns the injector's (live) log."""
    victim = "replica-%d" % (dep.config.replicas - 1)
    schedule = ChaosSchedule()
    schedule.add(duration * 0.30, "replica_crash", victim)
    schedule.add(duration * 0.55, "replica_restart", victim)
    injector = ChaosInjector(dep, schedule)
    injector.start()
    return injector.log


def latency_ms(dep, metric: str, percentile: float) -> float:
    """A percentile of latency ``metric`` as reports print it: ms, 4 places."""
    return round(dep.registry.latency(metric).percentile(percentile) * 1000, 4)


def storage_counters(dep) -> Dict[str, int]:
    """EBP hits and PageStore page reads, summed over the shards' stacks
    (a sharded deployment's metrics sit under ``shardK.``)."""
    snapshot = collect_stats(dep)
    stacks = [snapshot] if dep.config.shards == 1 else [
        snapshot.get("shard%d" % index, {})
        for index in range(dep.config.shards)
    ]
    return {
        "ebp_hits": sum(s.get("ebp", {}).get("hits", 0) for s in stacks),
        "pagestore_page_reads": sum(
            s.get("pagestore", {}).get("page_reads", 0) for s in stacks),
    }


def reads_section(proxy) -> Dict:
    """The report's ``reads`` section: where the proxy routed reads."""
    return {
        "total": proxy.reads_replica + proxy.reads_primary,
        "replica": proxy.reads_replica,
        "primary": proxy.reads_primary,
        "bounces": dict(proxy.bounces),
        "reroutes": proxy.reroutes,
    }


def audit_tpcc_ledgers(dep, reader, tpcc: TpccConfig,
                       terminals) -> List[str]:
    """TPC-C durability audit; returns violations in a stable order.

    Per district, D_YTD and ``d_next_o_id - 1`` must lie in committed ..
    committed + maybe of the terminals' payment and new-order ledgers;
    *maybe* holds in-doubt 2PC outcomes, which may commit at recovery
    (with none, the band is a point: equality).  Per warehouse, W_YTD
    must lie in its districts' band and equal sum(D_YTD).  ``reader``
    answers ``read_row(None, table, key)``: the engine or a shard session.
    """

    def summed(ledgers) -> Dict:
        """Per-district sum of one ledger over all terminals (cents)."""
        total: Dict = {}
        for ledger in ledgers:
            for key, value in ledger.items():
                total[key] = round(total.get(key, 0) + value, 2)
        return total

    payments = summed(t.committed_payments for t in terminals)
    maybe_payments = summed(t.maybe_payments for t in terminals)
    orders = summed(t.committed_new_orders for t in terminals)
    maybe_orders = summed(t.maybe_new_orders for t in terminals)
    violations: List[str] = []

    def band(what, actual, floor, ceil, slack):
        if not floor - slack <= actual <= ceil + slack:
            violations.append(
                "%s %s outside committed %s .. committed+maybe %s"
                % (what, round(actual, 2), round(floor, 2), round(ceil, 2))
            )

    def check():
        for w_id in range(1, tpcc.warehouses + 1):
            warehouse = yield from reader.read_row(None, "warehouse", (w_id,))
            district_total = floor_total = ceil_total = 0.0
            for d_id in range(1, tpcc.districts_per_warehouse + 1):
                key = (w_id, d_id)
                district = yield from reader.read_row(None, "district", key)
                district_total += district[6]
                floor_ytd = payments.get(key, 0.0)
                ceil_ytd = round(floor_ytd + maybe_payments.get(key, 0.0), 2)
                floor_total += floor_ytd
                ceil_total += ceil_ytd
                band("district %s: D_YTD" % (key,), district[6],
                     floor_ytd, ceil_ytd, CENTS)
                floor_orders = orders.get(key, 0)
                band("district %s: d_next_o_id-1" % (key,), district[7] - 1,
                     floor_orders, floor_orders + maybe_orders.get(key, 0), 0)
            if abs(warehouse[7] - district_total) > CENTS:
                violations.append(
                    "warehouse %d: W_YTD %.2f != sum(D_YTD) %.2f"
                    % (w_id, warehouse[7], district_total)
                )
            band("warehouse %d: W_YTD" % w_id, warehouse[7],
                 floor_total, ceil_total, CENTS)

    run(dep, check())
    return violations
