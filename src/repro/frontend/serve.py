"""``python -m repro serve``: mixed traffic through the serving proxy.

The serving-layer acceptance scenario (and CLI verb): TPC-C write
terminals, sysbench-style point/range read sessions, and *mixed*
sessions that interleave writes with read-your-writes audits - all
through :class:`repro.frontend.proxy.SqlProxy` over a replica fleet,
while a scripted chaos schedule kills and restarts a replica mid-run.

The audit checks the session-consistency invariant end to end: a mixed
session remembers the versions it committed and asserts every routed
read returns at least that version, no matter which replica served it or
whether that replica crashed and rebuilt in between.  Everything runs on
the virtual clock from named seed streams, so two runs with the same
seed produce byte-identical reports (the CI determinism gate diffs
them).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..common import MS, OverloadError, QueryError, TransactionAborted
from ..engine.codec import INT, VARCHAR, Column, Schema
from ..harness.scenario import (
    SCENARIO_TPCC,
    bump_version,
    check_version,
    latency_ms,
    reads_section,
    replica_chaos,
    run,
    scenario_spec,
    storage_counters,
    totals,
    tpcc_driver,
    tpcc_section,
    tpcc_terminals,
)
from ..sim.core import AllOf
from ..workloads.tpcc import TpccDatabase

__all__ = ["run_serving", "run_serving_mux", "MUX_TENANTS"]

#: Keys in the sysbench-style read table.
SERVE_KEYS = 120


def _load_serve_table(dep) -> Dict[int, int]:
    """Create, preload (version 0 rows) and sync the ``sbserve`` read
    table; returns each shard's durable LSN, the consistency floor every
    session inherits so routed reads see at least the preload."""
    engine = dep.shard_session(0) if dep.config.shards > 1 else dep.engine
    engine.create_table(
        "sbserve",
        Schema([
            Column("k", INT()),
            Column("version", INT()),
            Column("pad", VARCHAR(64)),
        ]),
        ["k"],
    )

    def load():
        txn = engine.begin()
        for k in range(1, SERVE_KEYS + 1):
            yield from engine.insert(txn, "sbserve", [k, 0, "x" * 40])
        yield from engine.commit(txn)

    run(dep, load(), "serve-load")
    for stack in dep.shards:
        stack.fleet.sync_catalogs()
    return {
        index: stack.engine.log.persistent_lsn
        for index, stack in enumerate(dep.shards)
    }


def _mixed_driver(env, session, engine, rng, duration, stats):
    """Write keys, then audit read-your-writes through routed reads."""
    last_written: Dict[int, int] = {}
    deadline = env.now + duration
    while env.now < deadline:
        k = rng.randint(1, SERVE_KEYS)
        try:
            version = yield from session.write(
                bump_version(engine, "sbserve", k)
            )
        except OverloadError:
            stats["shed"] += 1
            yield env.timeout(1 * MS)
            continue
        except (TransactionAborted, QueryError):
            stats["aborted"] += 1
            continue
        last_written[k] = version
        stats["writes"] += 1
        for _ in range(rng.randint(1, 3)):
            read_key = k if rng.random() < 0.5 else rng.randint(1, SERVE_KEYS)
            try:
                row = yield from session.read_row("sbserve", (read_key,))
            except OverloadError:
                stats["shed"] += 1
                continue
            stats["checks"] += 1
            check_version(env, stats, session.name, read_key,
                          None if row is None else row[1],
                          last_written.get(read_key), session.last_route)


def _read_driver(env, session, rng, duration, stats):
    """Sysbench-style read-only session: point lookups + range aggregates."""
    deadline = env.now + duration
    while env.now < deadline:
        try:
            if rng.random() < 0.7:
                row = yield from session.read_row(
                    "sbserve", (rng.randint(1, SERVE_KEYS),)
                )
                if row is None:
                    stats["missing_rows"] += 1
            else:
                low = rng.randint(1, SERVE_KEYS - 10)
                yield from session.execute(
                    "SELECT COUNT(*) AS n, SUM(version) AS total "
                    "FROM sbserve WHERE k BETWEEN %d AND %d"
                    % (low, low + 9)
                )
            stats["reads"] += 1
        except OverloadError:
            stats["shed"] += 1
            yield env.timeout(0.5 * MS)


def run_serving(
    seed: int = 7,
    replicas: int = 2,
    policy: str = "least-lag",
    duration: float = 1.5,
    shards: int = 1,
    write_terminals: int = 2,
    mixed_sessions: int = 3,
    read_sessions: int = 4,
    sessions: Optional[int] = None,
    tenants: int = 1,
    chaos: bool = True,
    apply_intervals: Optional[Sequence[float]] = None,
    staleness_bound: Optional[int] = None,
    replica_cores: Optional[int] = None,
    read_limit: Optional[int] = None,
    queue_limit: Optional[int] = None,
    queue_timeout: Optional[float] = None,
) -> Dict:
    """Run one seeded serving scenario; returns a deterministic report.

    ``report["ok"]`` is True iff the read-your-writes audit saw zero
    stale or missing reads.  The admission overrides (``read_limit``
    etc.) let overload experiments force shedding.

    ``shards > 1`` runs the same scenario over a hash-sharded deployment:
    each shard gets its own primary, log, and replica fleet; TPC-C
    terminals pin to warehouse home shards, single-shard statements route
    directly, cross-shard writes run 2PC, and range SELECTs
    scatter-gather.  Session tokens become per-shard vectors, so the
    read-your-writes audit checks the vector-token path end to end.
    ``shards == 1`` is byte-identical to the pre-sharding scenario.

    ``sessions`` overrides ``read_sessions`` (the ``--sessions`` CLI
    flag); ``tenants > 1`` tags the read/mixed sessions round-robin
    with tenant names and adds a per-tenant breakdown to the report
    (labels only on the non-mux path - weighted fair lane scheduling
    is the ``--mux`` scenario's job).
    """
    if sessions is not None:
        if sessions < 1:
            raise ValueError("sessions must be >= 1, got %r" % sessions)
        read_sessions = sessions
    if tenants < 1:
        raise ValueError("tenants must be >= 1, got %r" % tenants)

    def tenant_of(index: int) -> str:
        return "tenant-%d" % (index % tenants) if tenants > 1 else "default"

    spec = scenario_spec(seed, 48).with_shards(shards).with_replicas(
        replicas,
        policy=policy,
        apply_intervals=apply_intervals,
        staleness_bound=staleness_bound,
        cores=replica_cores,
    ).with_admission(
        read_limit=read_limit,
        queue_limit=queue_limit,
        queue_timeout=queue_timeout,
    )
    dep = spec.build()
    dep.start()
    env = dep.env
    proxy = dep.frontend

    tpcc_config = SCENARIO_TPCC
    if shards > 1:
        # Warehouse-partitioned TPC-C plus the sbserve read table
        # hash-sharded on its key; loads route through the coordinator.
        from ..shard import ShardKeySpec
        from ..workloads.tpcc import register_tpcc_sharding

        tpcc_config = dataclasses.replace(
            SCENARIO_TPCC, warehouses=2 * shards, remote_item_prob=0.10
        )
        register_tpcc_sharding(dep.shardmap)
        dep.shardmap.set_table("sbserve", ShardKeySpec(column_pos=0))
        load_engine = dep.shard_session(0)
    else:
        load_engine = dep.engine
    database = TpccDatabase(load_engine, tpcc_config,
                            dep.seeds.stream("serve-tpcc-load"))
    run(dep, database.load(), "serve-tpcc-load")
    preload_lsns = _load_serve_table(dep)

    chaos_log = replica_chaos(dep, duration) if chaos else []
    terminals = tpcc_terminals(
        dep, database, write_terminals, "serve-terminal-%d"
    )
    tpcc_stats = {"shed": 0}
    mixed_stats = [
        {"writes": 0, "aborted": 0, "checks": 0, "stale_reads": 0,
         "missing_rows": 0, "shed": 0, "violations": []}
        for _ in range(mixed_sessions)
    ]
    read_stats = [
        {"reads": 0, "missing_rows": 0, "shed": 0}
        for _ in range(read_sessions)
    ]

    procs = []
    for index, client in enumerate(terminals):
        session = proxy.session("tpcc-%d" % index)
        session.note_commit_map(preload_lsns)
        procs.append(env.process(
            tpcc_driver(env, session, client, duration, tpcc_stats),
            name="serve-tpcc-%d" % index,
        ))
    for index, stats in enumerate(mixed_stats):
        session = proxy.session("mixed-%d" % index, tenant=tenant_of(index))
        session.note_commit_map(preload_lsns)
        procs.append(env.process(
            _mixed_driver(env, session, proxy.write_engine,
                          dep.seeds.stream("serve-mixed-%d" % index),
                          duration, stats),
            name="serve-mixed-%d" % index,
        ))
    for index, stats in enumerate(read_stats):
        session = proxy.session("read-%d" % index, tenant=tenant_of(index))
        session.note_commit_map(preload_lsns)
        procs.append(env.process(
            _read_driver(env, session,
                         dep.seeds.stream("serve-read-%d" % index),
                         duration, stats),
            name="serve-read-%d" % index,
        ))
    env.run_until_event(AllOf(env, procs))
    # Settle: let replicas drain their lag and any restart finish.
    env.run(until=env.now + 0.5)

    admission = dep.admission
    fleet = dep.fleet
    violations: List[str] = []
    for stats in mixed_stats:
        violations.extend(stats.pop("violations"))
    stale_reads = sum(s["stale_reads"] for s in mixed_stats)
    missing_rows = (
        sum(s["missing_rows"] for s in mixed_stats)
        + sum(s["missing_rows"] for s in read_stats)
    )
    reads = reads_section(proxy)

    report = {
        "seed": seed,
        "policy": policy,
        "replicas": replicas,
        "duration": duration,
        "chaos": bool(chaos),
        "chaos_log": list(chaos_log),
        "virtual_end": round(env.now, 6),
        "tpcc": tpcc_section(terminals, tpcc_stats),
        "mixed": totals(mixed_stats, ("writes", "aborted", "checks", "shed")),
        "reads": dict(
            reads,
            per_replica=dict(proxy.per_replica_reads),
            read_only_session_reads=sum(s["reads"] for s in read_stats),
            read_qps=round(reads["total"] / duration, 3),
            read_p95_ms=latency_ms(dep, "frontend.proxy_read", 95),
        ),
        "consistency": {
            "lsn_waits": fleet.lsn_waits,
            "lsn_wait_timeouts": fleet.lsn_wait_timeouts,
            "lsn_wait_p95_ms": latency_ms(dep, "frontend.fleet_lsn_wait", 95),
            "checks": sum(s["checks"] for s in mixed_stats),
            "stale_reads": stale_reads,
            "missing_rows": missing_rows,
        },
        "fleet": {
            "drains": fleet.drains,
            "rejoins": fleet.rejoins,
            "failed_restarts": fleet.failed_restarts,
            "replicas": {
                handle.replica_id: {
                    "alive": handle.replica.applier.alive,
                    "admitted": handle.admitted,
                    "applied_lsn": handle.replica.applied_lsn,
                    "lag_lsn": handle.replica.lag_lsn,
                    "reads_served": handle.reads_served,
                    "crashes": handle.replica.applier.crashes,
                    "recoveries": handle.replica.applier.recoveries,
                }
                for handle in fleet.handles
            },
        },
        "admission": {
            "admitted": dict(admission.admitted),
            "shed": dict(admission.shed),
            "rejects": admission.rejects,
            "queue_full": admission.shed_queue_full,
            "deadline": admission.shed_deadline,
            "wait_p95_ms": latency_ms(dep, "frontend.admission_wait", 95),
        },
        "counters": dict(
            storage_counters(dep),
            detector_replicas_drained=(
                dep.detector.replicas_drained if dep.detector else 0),
        ),
        "violations": violations,
        "ok": stale_reads == 0 and missing_rows == 0,
    }
    if tenants > 1:
        breakdown: Dict[str, Dict[str, int]] = {}
        for group, reads in ((mixed_stats, "checks"), (read_stats, "reads")):
            for index, stats in enumerate(group):
                entry = breakdown.setdefault(
                    tenant_of(index), {"sessions": 0, "reads": 0, "writes": 0})
                entry["sessions"] += 1
                entry["reads"] += stats[reads]
                entry["writes"] += stats.get("writes", 0)
        report["tenants"] = {
            name: breakdown[name] for name in sorted(breakdown)
        }
    if shards > 1:
        report["sharding"] = {
            "shards": shards,
            "scatter_selects": proxy.scatter_selects,
            "distributed_writes": proxy.distributed_writes,
            "coordinator": dep.coordinator.counters(),
            "per_shard_committed": {
                "shard%d" % index: stack.engine.committed
                for index, stack in enumerate(dep.shards)
            },
        }
    return report


# ---------------------------------------------------------------------------
# Multiplexed serving (``python -m repro serve --mux``)
# ---------------------------------------------------------------------------

#: Default skewed tenant classes: weights 4/2/1, session share inverted
#: (the heaviest session population has the *smallest* lane weight, so
#: weighted fairness is actually exercised).
MUX_TENANTS = (
    ("gold", 4, 0.10),
    ("silver", 2, 0.20),
    ("bronze", 1, 0.70),
)

_MUX_POINT_SQL = "SELECT k, version FROM sbserve WHERE k = ?"


def _mux_worker(env, mux, engine, pool, rng, deadline, stats, audits,
                touched):
    """One tenant worker: sweep its session slice, then loop skewed load.

    The sweep phase runs exactly one prepared point SELECT on every
    session in ``pool`` (so each of the 10k+ descriptors demonstrably
    executes through the lane pool); the steady phase then picks
    sessions from the slice and issues bursts of 1-4 statements - point
    SELECTs, routed ``read_row`` lookups, and occasional version-bump
    writes whose versions feed the per-session read-your-writes audit.
    Statements shed by weighted-fair admission back off briefly and
    retry; a swept session retries until its statement lands.
    """

    def one_statement(ms, draw):
        key = rng.randint(1, SERVE_KEYS)
        if draw < 0.08:
            version = yield from mux.write(
                ms, bump_version(engine, "sbserve", key)
            )
            audits[ms.name][key] = version
            stats["writes"] += 1
            return
        if draw < 0.70:
            prepared = mux.prepare(ms, _MUX_POINT_SQL)
            result = yield from prepared.execute(key)
            seen = result.rows[0][1] if result.rows else None
        else:
            row = yield from mux.read_row(ms, "sbserve", (key,))
            seen = None if row is None else row[1]
        stats["reads"] += 1
        check_version(env, stats, ms.name, key, seen, audits[ms.name].get(key))

    # Phase 1: coverage sweep - every parked session serves a statement.
    for ms in pool:
        while True:
            try:
                yield from one_statement(ms, 0.5)
            except OverloadError:
                stats["shed"] += 1
                yield env.timeout(0.5 * MS)
                continue
            except (TransactionAborted, QueryError):
                stats["aborted"] += 1
            touched.add(ms.name)
            break
    # Phase 2: steady skewed load until the deadline.
    while env.now < deadline:
        ms = pool[rng.randint(0, len(pool) - 1)]
        for _ in range(rng.randint(1, 4)):
            try:
                yield from one_statement(ms, rng.random())
                touched.add(ms.name)
            except OverloadError:
                stats["shed"] += 1
                yield env.timeout(0.5 * MS)
            except (TransactionAborted, QueryError):
                stats["aborted"] += 1


def run_serving_mux(
    seed: int = 7,
    sessions: int = 10000,
    lanes: int = 8,
    replicas: int = 2,
    policy: str = "least-lag",
    duration: float = 1.0,
    workers_per_tenant: int = 8,
    tenants: Optional[Sequence] = None,
    chaos: bool = True,
    queue_limit: Optional[int] = None,
    queue_timeout: Optional[float] = None,
) -> Dict:
    """Million-session-shaped serving: ``sessions`` parked descriptors
    multiplexed over ``lanes`` execution lanes with weighted-fair
    multi-tenant QoS; returns a deterministic report.

    ``tenants`` is ``(name, weight, session_share)`` triples (default
    :data:`MUX_TENANTS`: gold/silver/bronze with weights 4/2/1 and the
    session population skewed *against* the weights).  Every session
    executes at least one statement through the lane pool (a coverage
    sweep), then per-tenant workers drive a skewed read/write mix with
    a read-your-writes audit per session.  ``report["ok"]`` is True iff
    zero stale/missing reads were observed and every session executed.
    Lane cost stays O(active): the deployment holds ``lanes`` live
    proxy sessions regardless of ``sessions``.
    """
    if sessions < 1:
        raise ValueError("sessions must be >= 1, got %r" % sessions)
    tenant_rows = list(tenants) if tenants is not None else list(MUX_TENANTS)
    weights = {name: weight for name, weight, _share in tenant_rows}
    spec = scenario_spec(seed, 48).with_replicas(
        replicas, policy=policy
    ).with_multiplexing(
        lanes,
        weights,
        queue_limit=queue_limit,
        queue_timeout=queue_timeout,
    )
    dep = spec.build()
    dep.start()
    env = dep.env
    mux = dep.mux
    preload_lsn = _load_serve_table(dep)[0]

    # Open the full parked-session population: descriptors only, no live
    # engine sessions - this is the O(active) claim under test.
    pools: Dict[str, List] = {name: [] for name in weights}
    allocated = 0
    for index, (name, _weight, share) in enumerate(tenant_rows):
        count = (
            sessions - allocated
            if index == len(tenant_rows) - 1
            else int(sessions * share)
        )
        allocated += count
        for j in range(count):
            ms = mux.open("%s-%d" % (name, j), name)
            ms.lsns[0] = preload_lsn
            pools[name].append(ms)

    chaos_log = replica_chaos(dep, duration) if chaos else []

    audits: Dict[str, Dict[int, int]] = {
        ms.name: {} for pool in pools.values() for ms in pool
    }
    touched: set = set()
    tenant_stats = {
        name: {"reads": 0, "writes": 0, "aborted": 0, "shed": 0,
               "stale_reads": 0, "missing_rows": 0, "violations": []}
        for name in weights
    }
    deadline = env.now + duration
    procs = []
    for name, _weight, share in tenant_rows:
        pool = pools[name]
        # Offered load follows the session population, not the weight:
        # the big low-weight tenant floods the lane queue and weighted
        # fairness has to protect the small high-weight one.
        workers = max(
            1, round(workers_per_tenant * len(tenant_rows) * share)
        )
        for w in range(workers):
            slice_ = pool[w::workers]
            if not slice_:
                continue
            procs.append(env.process(
                _mux_worker(
                    env, mux, dep.engine, slice_,
                    dep.seeds.stream("serve-mux-%s-%d" % (name, w)),
                    deadline, tenant_stats[name], audits, touched,
                ),
                name="serve-mux-%s-%d" % (name, w),
            ))
    env.run_until_event(AllOf(env, procs))
    env.run(until=env.now + 0.5)

    violations: List[str] = []
    for stats in tenant_stats.values():
        violations.extend(stats.pop("violations"))
    consistency = totals(tenant_stats.values(),
                         ("stale_reads", "missing_rows"))
    consistency["statements"] = sum(
        s["reads"] + s["writes"] for s in tenant_stats.values()
    )

    tenant_report = {}
    for name, weight, _share in tenant_rows:
        stats = tenant_stats[name]
        tenant_report[name] = {
            "weight": weight,
            "sessions": len(pools[name]),
            "statements": stats["reads"] + stats["writes"],
            "writes": stats["writes"],
            "aborted": stats["aborted"],
            "shed": stats["shed"],
            "admitted": mux.wfq.admitted[name],
            "wait_p99_ms":
                latency_ms(dep, "frontend.tenant.%s.wait" % name, 99),
            "statement_p99_ms":
                latency_ms(dep, "frontend.tenant.%s.statement" % name, 99),
        }
    # Weighted-fairness check: a tenant with the larger lane weight must
    # not wait (P99) more than 2x any smaller-weight tenant - the DRR
    # guarantee, with slack for statement-granularity quantisation.  A
    # floor keeps uncontended runs (every wait ~0) trivially fair.
    floor_ms = 0.05
    fair = True
    for hi_name, hi_weight, _s in tenant_rows:
        for lo_name, lo_weight, _s2 in tenant_rows:
            if hi_weight <= lo_weight:
                continue
            hi_wait = tenant_report[hi_name]["wait_p99_ms"]
            lo_wait = tenant_report[lo_name]["wait_p99_ms"]
            if hi_wait > 2.0 * max(lo_wait, floor_ms):
                fair = False
    proxy = dep.frontend
    all_executed = len(touched) == sessions
    return {
        "seed": seed,
        "mode": "mux",
        "sessions": sessions,
        "lanes": lanes,
        "replicas": replicas,
        "duration": duration,
        "chaos": bool(chaos),
        "chaos_log": list(chaos_log),
        "virtual_end": round(env.now, 6),
        "mux": {
            "sessions_open": len(mux.sessions),
            "sessions_executed": len(touched),
            "live_lane_sessions": len(mux.lanes),
            "binds": mux.binds,
            "statements": mux.statements,
            "lane_queue_depth_end": mux.wfq.queue_depth,
            "shed_queue_full": mux.wfq.shed_queue_full,
            "shed_deadline": mux.wfq.shed_deadline,
        },
        "tenants": tenant_report,
        "fairness": {
            "rule": "wait_p99(higher weight) <= 2x wait_p99(lower weight)",
            "ok": fair,
        },
        "reads": reads_section(proxy),
        "consistency": consistency,
        "violations": violations,
        "ok": (consistency["stale_reads"] == 0
               and consistency["missing_rows"] == 0
               and all_executed and fair),
    }
