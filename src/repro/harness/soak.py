"""Seeded chaos soak: TPC-C under randomized failures, then an audit.

The soak is the fault-tolerance layer's acceptance test (and the
``python -m repro chaos`` CLI verb): it drives TPC-C terminals while a
seeded :class:`ChaosMonkey` crashes AStore servers, takes the cluster
manager down, and partitions a server from the CM - then crashes the
DBEngine itself, recovers from the log, and checks invariants:

- **durability**: every payment and new-order the clients saw commit is
  present after recovery (client-side ledgers vs database state);
- **no lost updates**: ``d_next_o_id - 1`` equals the committed
  new-order count per district, and W_YTD equals the committed payment
  sum per warehouse (the TPC-C hot-row consistency conditions);
- **internal consistency**: W_YTD == sum(D_YTD) per warehouse.

Everything runs on the virtual clock from named seed streams, so two
runs with the same seed produce byte-identical reports.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from ..common import KB, QueryError, StorageError, TransactionAborted
from ..sim.core import AllOf, AnyOf
from ..workloads.tpcc import (
    TpccDatabase,
    register_tpcc_sharding,
    tpcc_terminals,
)
from .chaos import ChaosInjector, ChaosMonkey
from .deployment import DeploymentSpec
from .scenario import (
    SCENARIO_TPCC,
    audit_tpcc_ledgers,
    run,
    run_all,
    scenario_spec,
    storage_counters,
)

__all__ = ["run_chaos_soak", "run_sharded_soak"]


def run_chaos_soak(
    seed: int = 7,
    short: bool = False,
    horizon: float = None,
    terminals: int = None,
) -> Dict:
    """Run one seeded chaos soak; returns a deterministic report dict.

    ``report["ok"]`` is True iff every invariant held;
    ``report["violations"]`` lists each failure in a stable order.
    ``horizon``/``terminals`` override the presets (used by fast tests).
    """
    horizon = (3.5 if short else 10.0) if horizon is None else horizon
    terminals_n = (2 if short else 4) if terminals is None else terminals
    # A deliberately tiny buffer pool: evictions populate the EBP, so a
    # purge after a server crash actually exercises the transparent
    # EBP-miss -> PageStore fallback on the read path.
    spec = dataclasses.replace(
        scenario_spec(seed, 24),
        astore_route_refresh_period=0.2, astore_cleanup_period=1.0,
    )
    dep = spec.build()
    dep.start()
    env = dep.env

    database = TpccDatabase(
        dep.engine, SCENARIO_TPCC, dep.seeds.stream("soak-load")
    )
    run(dep, database.load())

    monkey = ChaosMonkey(
        dep.seeds.stream("chaos-monkey"),
        servers=sorted(dep.astore.servers),
        horizon=horizon * 0.85,  # leave tail head-room for repairs
        cycles=len(dep.astore.servers),  # every server takes one hit
    )
    injector = ChaosInjector(dep, monkey.build())
    injector.start()

    terminals = tpcc_terminals(dep, database, terminals_n, "soak-client-%d")
    run_all(dep, (t.run_for(horizon) for t in terminals))

    # Settle: let the detector finish purges/reclaims and the ring heal.
    env.run(until=env.now + 3.0)

    # The final blow: crash the engine itself and recover from the log.
    dep.engine.crash()
    run(dep, dep.engine.recover())

    violations = audit_tpcc_ledgers(dep, dep.engine, SCENARIO_TPCC, terminals)
    detector = dep.detector
    report = {
        "seed": seed,
        "short": short,
        "horizon": horizon,
        "virtual_end": round(env.now, 6),
        "committed": sum(t.committed for t in terminals),
        "aborted": sum(t.aborted for t in terminals),
        "chaos_log": list(injector.log),
        "counters": {
            "detector_sweeps": detector.sweeps,
            "failures_detected": detector.failures_detected,
            "recoveries": detector.recoveries,
            "route_rebuilds": dep.astore.cm.rebuilds,
            "ebp_pages_purged": dep.ebp.pages_purged,
            "ebp_pages_reclaimed": dep.ebp.pages_reclaimed,
            "engine_degraded_episodes": dep.engine.degraded_episodes,
            "engine_flush_retries": dep.engine.flush_retries,
            "client_retries": sum(
                c.retries for c in dep.astore.clients
            ),
            "client_lease_regrants": sum(
                c.lease_regrants for c in dep.astore.clients
            ),
            "client_deadlines_exceeded": sum(
                c.deadlines_exceeded for c in dep.astore.clients
            ),
            **storage_counters(dep),
        },
        "violations": violations,
        "ok": not violations,
    }
    return report


def run_sharded_soak(
    seed: int = 7,
    shards: int = 2,
    short: bool = False,
    horizon: float = None,
    terminals: int = None,
) -> Dict:
    """TPC-C across shards under 2PC crash chaos, then an in-doubt audit.

    Seeded failpoints crash shard primaries at every 2PC protocol
    instant (before/after prepare-all, around the decision, mid phase 2)
    while terminals keep running; each crash is followed by the
    coordinator's recovery choreography.  At the end every primary is
    crashed and recovered participant-first, then the audit checks:

    - zero unresolved in-doubt participants and zero pending decisions;
    - per-district counters bounded by the client ledgers:
      committed <= actual <= committed + maybe (the maybe side collects
      InDoubtTransaction outcomes whose ack was cut off - those commit
      at recovery, so they may legitimately appear);
    - W_YTD == sum(D_YTD) per warehouse;
    - **zero hung transactions**: every terminal finishes within a
      bounded grace past the horizon (the global deadlock detector and
      the fence/lock timeouts make all waits finite);
    - **zero scatter-atomicity violations**: a probe transaction bumps
      one counter row per shard inside a fenced 2PC while a scatter
      SELECT polls all of them; every observation must see a single
      value across shards, never going backwards, and the final state
      must agree across shards after full crash recovery.

    Chaos now also severs shards from the coordination plane
    (``shard_partition`` windows: prepares abort, phase 2 goes in doubt
    until heal + resume) on top of the failpoint crash rotation -
    which includes the in-flight coordinator crashes
    (``coordinator_crash_inflight`` arms the same instants).

    Same seed => byte-identical report.
    """
    from ..engine.codec import INT, Column, Schema
    from ..frontend.proxy import SqlProxy
    from ..shard import (
        FAILPOINTS,
        InDoubtTransaction,
        ShardKeySpec,
    )

    horizon = (3.0 if short else 8.0) if horizon is None else horizon
    terminals_n = (2 * shards if short else 4 * shards
                   ) if terminals is None else terminals
    tpcc = dataclasses.replace(
        SCENARIO_TPCC, warehouses=2 * shards, remote_item_prob=0.25
    )
    spec = DeploymentSpec.astore_ebp(
        seed=seed, astore_servers=4
    ).with_shards(shards).with_engine(
        buffer_pool_bytes=48 * 16 * KB
    )
    dep = spec.build()
    dep.start()
    env = dep.env
    coordinator = dep.coordinator

    register_tpcc_sharding(dep.shardmap)
    session0 = dep.shard_session(home=0)
    database = TpccDatabase(session0, tpcc, dep.seeds.stream("soak-load"))
    run(dep, database.load())

    # Scatter-atomicity probe table: one counter row per shard (key k
    # hashes to shard k % shards for small ints), bumped in lock-step by
    # a fenced 2PC writer and polled by an unmerged scatter SELECT.
    session0.create_table(
        "scatter_probe",
        Schema([Column("k", INT()), Column("seq", INT())]), ["k"],
    )
    dep.shardmap.set_table("scatter_probe", ShardKeySpec(column_pos=0))

    def seed_probe():
        txn = coordinator.begin()
        for k in range(shards):
            yield from coordinator.insert(txn, "scatter_probe", [k, 0])
        yield from coordinator.commit(txn)

    run(dep, seed_probe())

    chaos_log: List[str] = []
    rng = dep.seeds.stream("shard-chaos")
    soak_start = env.now

    def note(message):
        chaos_log.append("t=%.4f %s" % (env.now - soak_start, message))

    def chaos():
        round_no = 0
        while env.now - soak_start < horizon * 0.80:
            yield env.timeout(horizon * rng.uniform(0.04, 0.08))
            if round_no % 3 == 2:
                # A partition round: sever one shard's coordination
                # link for a window, then heal and resume phase 2.
                victim = rng.randint(0, shards - 1)
                window = horizon * rng.uniform(0.03, 0.06)
                coordinator.partition(victim)
                note("partitioned shard %d for %.3fs" % (victim, window))
                yield env.timeout(window)
                coordinator.heal(victim)
                resumed_before = coordinator.resumed_commits
                yield from coordinator.resume_decided()
                note("healed shard %d (%d phase-2 commits resumed)"
                     % (victim,
                        coordinator.resumed_commits - resumed_before))
                round_no += 1
                continue
            point = FAILPOINTS[round_no % len(FAILPOINTS)]
            victim = (rng.randint(0, shards - 1)
                      if rng.random() < 0.5 else None)
            coordinator.arm_failpoint(point, victim)
            note("armed failpoint %s (shard %s)"
                 % (point, "coord" if victim is None else victim))
            # Wait for the next 2PC to trip it (bounded: a quiet mix may
            # not produce a cross-shard commit in time).
            deadline = env.now + horizon * 0.12
            while (env.now < deadline
                   and not any(e.crashed for e in dep.engines)):
                yield env.timeout(0.02)
            # Let in-doubt transactions sit while traffic keeps failing
            # over, then run the recovery choreography.
            yield env.timeout(rng.uniform(0.05, 0.15))
            for shard in range(shards):
                if dep.engines[shard].crashed:
                    stats = yield from coordinator.recover_shard(shard)
                    note("recovered shard %d (in-doubt committed: %d)"
                         % (shard, len(stats.get("in_doubt_committed", ()))))
            round_no += 1

    env.process(chaos(), name="shard-chaos")

    # -- scatter-atomicity probe processes -----------------------------
    probe_stats = {
        "writer_commits": 0, "writer_in_doubt": 0, "writer_aborts": 0,
        "observations": 0, "reader_skips": 0,
    }
    scatter_violations: List[str] = []
    probe_proxy = SqlProxy(
        env, dep.engine, None,
        shardmap=dep.shardmap, coordinator=coordinator,
        shard_targets=[(stack.engine, None, None) for stack in dep.shards],
    )
    probe_session = probe_proxy.session("scatter-probe")
    wrng = dep.seeds.stream("scatter-probe-writer")
    rrng = dep.seeds.stream("scatter-probe-reader")

    def probe_writer():
        while env.now - soak_start < horizon * 0.85:
            yield env.timeout(wrng.uniform(0.01, 0.05))
            # fenced=True: even the first shard's (read-uncommitted)
            # write is invisible to scatter reads, so every observation
            # of the probe rows is all-or-nothing.
            dtxn = coordinator.begin(fenced=True)
            try:
                seqs = []
                for k in range(shards):
                    row = yield from coordinator.read_row(
                        dtxn, "scatter_probe", (k,), for_update=True
                    )
                    seqs.append(row[1])
                bumped = max(seqs) + 1
                for k in range(shards):
                    yield from coordinator.update(
                        dtxn, "scatter_probe", (k,), {"seq": bumped}
                    )
                yield from coordinator.commit(dtxn)
                probe_stats["writer_commits"] += 1
            except InDoubtTransaction:
                # Will commit at heal/recovery - still atomic.
                probe_stats["writer_in_doubt"] += 1
            except (TransactionAborted, StorageError):
                probe_stats["writer_aborts"] += 1
                yield from coordinator.rollback(dtxn)

    def probe_reader():
        last_seen = 0
        while env.now - soak_start < horizon * 0.95:
            yield env.timeout(rrng.uniform(0.005, 0.03))
            try:
                result = yield from probe_session.execute(
                    "SELECT k, seq FROM scatter_probe"
                )
            except (QueryError, StorageError, TransactionAborted,
                    KeyError):
                # Crashed leg or fence timeout (an in-doubt 2PC held
                # the write side): a refused read, never a torn one.
                probe_stats["reader_skips"] += 1
                continue
            if len(result.rows) != shards:
                probe_stats["reader_skips"] += 1
                continue
            seqs = sorted({row[1] for row in result.rows})
            probe_stats["observations"] += 1
            if len(seqs) != 1:
                scatter_violations.append(
                    "t=%.4f torn scatter read: per-shard seqs %s"
                    % (env.now - soak_start, seqs)
                )
            elif seqs[0] < last_seen:
                scatter_violations.append(
                    "t=%.4f scatter read went backwards: %d after %d"
                    % (env.now - soak_start, seqs[0], last_seen)
                )
            last_seen = max(last_seen, seqs[-1])

    probe_procs = [
        env.process(probe_writer(), name="scatter-probe-writer"),
        env.process(probe_reader(), name="scatter-probe-reader"),
    ]

    clients = tpcc_terminals(dep, database, terminals_n, "soak-client-%d")
    procs = [env.process(c.run_for(horizon)) for c in clients]

    # Hung-transaction audit: every terminal and probe must finish
    # within a bounded grace (all waits are finite by construction -
    # lock timeouts, fence timeouts, one detector sweep interval).
    grace = 4.0
    all_procs = procs + probe_procs
    done = AllOf(env, all_procs)
    env.run_until_event(AnyOf(env, [done, env.timeout(horizon + grace)]))
    hung = sum(1 for proc in all_procs if not proc.triggered)

    # Final blow: power-fail every primary, then recover participant
    # shards before shard 0 so in-doubt resolution must harvest the
    # durable decision markers instead of asking a live coordinator.
    for engine in dep.engines:
        if not engine.crashed:
            engine.crash()
    for shard in range(shards - 1, -1, -1):
        run(dep, coordinator.recover_shard(shard))
    note("final crash: recovered all %d shards participant-first" % shards)

    # Post-recovery probe state: one agreed value on every shard.
    def final_probe():
        seqs = []
        for k in range(shards):
            row = yield from session0.read_row(None, "scatter_probe", (k,))
            seqs.append(row[1])
        return seqs

    final_seqs = run(dep, final_probe())
    if len(set(final_seqs)) != 1:
        scatter_violations.append(
            "final probe state disagrees across shards: %s" % final_seqs
        )

    violations = audit_tpcc_ledgers(dep, session0, tpcc, clients)
    if hung:
        violations.append(
            "%d transaction process(es) still running %.1fs past the "
            "horizon (hung)" % (hung, grace)
        )
    violations.extend(scatter_violations)
    counters = coordinator.counters()
    if counters["unresolved_in_doubt"]:
        violations.append(
            "%d unresolved in-doubt participant(s) after recovery"
            % counters["unresolved_in_doubt"]
        )
    if counters["pending_decided"]:
        violations.append(
            "%d decided transaction(s) never finished phase 2"
            % counters["pending_decided"]
        )
    detector = dep.deadlock_detector
    report = {
        "seed": seed,
        "shards": shards,
        "short": short,
        "horizon": horizon,
        "virtual_end": round(env.now, 6),
        "committed": sum(c.committed for c in clients),
        "aborted": sum(c.aborted for c in clients),
        "in_doubt": sum(c.in_doubt for c in clients),
        "hung_transactions": hung,
        "chaos_log": chaos_log,
        "coordinator": counters,
        "deadlock_detector": (
            detector.counters() if detector is not None
            else {"sweeps": 0, "cycles_found": 0, "victims_aborted": 0}
        ),
        "commit_fence": coordinator.fence.counters(),
        "scatter_audit": dict(probe_stats, final_seqs=final_seqs),
        "violations": violations,
        "ok": not violations,
    }
    return report
