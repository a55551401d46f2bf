"""``python -m repro views``: incremental views under live TPC-C traffic.

The views acceptance scenario (and CLI verb): TPC-C write terminals
churn ``order_line`` while analyst sessions hammer a CH-style aggregate
that the proxy serves from a maintained view in O(result), and audit
sessions interleave their own writes with immediate view reads to check
read-your-writes freshness against the view watermark.

Three audits gate the run:

- **freshness**: right after committing, a session's view read must
  reflect at least its own writes (the per-session LSN token is honoured
  against the view watermark, or the read bounces — never stale);
- **equivalence**: at every quiesce point, the view-served answer must
  be byte-identical to a fresh executor rescan on the primary at the
  same LSN;
- **robustness**: the equivalence audit re-runs after a forced REDO-feed
  overflow (fuzzy rescan) and after a maintainer crash/rebuild.

Everything runs on the virtual clock from named seed streams: the same
seed produces a byte-identical report (the CI determinism gate diffs
two runs).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common import MS, OverloadError, QueryError, TransactionAborted
from ..engine.codec import INT, Column, Schema
from ..harness.scenario import (
    run,
    scenario_spec,
    totals,
    tpcc_driver,
    tpcc_section,
)
from ..sim.core import AllOf
from ..workloads.tpcc import TpccConfig, TpccDatabase, tpcc_terminals

__all__ = ["run_views", "VIEWS"]

VIEWS_TPCC = TpccConfig(
    warehouses=3, districts_per_warehouse=2,
    customers_per_district=8, items=40,
)

#: The maintained views.  Aggregate arguments stay on INT columns so the
#: incremental SUM/AVG states finalize bit-identically to the executor
#: (DECIMAL decodes to float; float addition does not commute with
#: arbitrary delta orderings).
VIEWS = (
    (
        "ch_ol_by_wh",
        "SELECT ol_w_id, COUNT(*) AS cnt, SUM(ol_quantity) AS qty, "
        "AVG(ol_quantity) AS avg_qty, MAX(ol_quantity) AS max_qty "
        "FROM order_line GROUP BY ol_w_id",
    ),
    (
        "vaudit_by_grp",
        "SELECT grp, COUNT(*) AS n, SUM(val) AS total "
        "FROM vaudit GROUP BY grp",
    ),
)

#: Queries the equivalence audit replays through the proxy and directly
#: on the primary: each view ORDER BY its full (one-column) group key, so
#: row order is total.
AUDIT_QUERIES = tuple(
    (name, "%s ORDER BY %s" % (sql, sql.rsplit(" ", 1)[1]))
    for name, sql in VIEWS
)

#: Distinct vaudit groups (small, so every group keeps churning).
AUDIT_GROUPS = 8


def _settle(dep, timeout: float = 1.0) -> bool:
    """Run until every view folded to the durable tail (or timeout)."""
    deadline = dep.env.now + timeout
    while dep.env.now < deadline:
        if dep.views.caught_up():
            return True
        dep.run_for(2 * MS)
    return dep.views.caught_up()


def _vaudit_rows(engine, key_base: int, first: int, count: int):
    """A ``session.write`` body inserting vaudit rows ``first`` ..
    ``first + count - 1`` (keys offset by ``key_base``)."""

    def insert(txn):
        for seq in range(first, first + count):
            yield from engine.insert(
                txn, "vaudit", [key_base + seq, seq % AUDIT_GROUPS, seq % 23]
            )
        return True

    return insert


def _audit_driver(env, session, engine, index, rng, duration, stats):
    """Write vaudit rows, then read the view back: freshness audit.

    Tracks this session's own per-group contribution; a served answer
    missing any of it is a read-your-writes violation (concurrent
    sessions only ever push the group totals higher).
    """
    own_count = {grp: 0 for grp in range(AUDIT_GROUPS)}
    own_total = {grp: 0 for grp in range(AUDIT_GROUPS)}
    counter = 0
    deadline = env.now + duration
    sql = AUDIT_QUERIES[1][1]
    while env.now < deadline:
        rows = rng.randint(1, 3)
        try:
            yield from session.write(
                _vaudit_rows(engine, index * 1000000, counter, rows)
            )
        except OverloadError:
            stats["shed"] += 1
            yield env.timeout(1 * MS)
            continue
        except (TransactionAborted, QueryError):
            stats["aborted"] += 1
            continue
        for offset in range(rows):
            seq = counter + offset
            own_count[seq % AUDIT_GROUPS] += 1
            own_total[seq % AUDIT_GROUPS] += seq % 23
        counter += rows
        stats["writes"] += rows
        try:
            result = yield from session.execute(sql)
        except OverloadError:
            stats["shed"] += 1
            continue
        stats["checks"] += 1
        if session.last_route.startswith("view:"):
            stats["view_served"] += 1
        seen = {row[0]: (row[1], row[2]) for row in result.rows}
        for grp, count in own_count.items():
            if not count:
                continue
            got = seen.get(grp)
            if got is None or got[0] < count or got[1] < own_total[grp]:
                stats["violations"].append(
                    "t=%.4f %s: group %d served %r < own (%d, %d) "
                    "(route %s)"
                    % (env.now, session.name, grp, got, count,
                       own_total[grp], session.last_route)
                )


def _analyst_driver(env, session, duration, stats):
    """AP session: the CH-style aggregate, as fast as answers return."""
    deadline = env.now + duration
    sql = AUDIT_QUERIES[0][1]
    while env.now < deadline:
        try:
            yield from session.execute(sql)
        except OverloadError:
            stats["shed"] += 1
            yield env.timeout(1 * MS)
            continue
        stats["queries"] += 1
        if session.last_route.startswith("view:"):
            stats["view_served"] += 1
        yield env.timeout(2 * MS)


def _equivalence_audit(dep, session, phase, audits):
    """Proxy answer vs fresh primary rescan, per audit query."""
    for name, sql in AUDIT_QUERIES:
        served = run(dep, session.execute(sql), "views-audit")
        route = session.last_route
        direct = run(dep, dep.frontend.primary_session.execute(sql),
                     "views-audit-direct")
        audits["equivalence_checks"] += 1
        if route.startswith("view:"):
            audits["view_served"] += 1
        if served.columns != direct.columns or served.rows != direct.rows:
            audits["violations"].append(
                "%s/%s: served %r != rescan %r (route %s)"
                % (phase, name, served.rows, direct.rows, route)
            )


def run_views(
    seed: int = 7,
    duration: float = 0.6,
    replicas: int = 2,
    feed_bound: int = 512,
    burst_rows: int = 600,
    write_terminals: int = 2,
    audit_sessions: int = 2,
    analyst_sessions: int = 2,
    settle_timeout: float = 2.0,
    crash_phase: bool = True,
) -> Dict:
    """Run one seeded incremental-views scenario; deterministic report.

    ``report["ok"]`` is True iff zero freshness violations and zero
    equivalence mismatches were observed across the live, post-overflow,
    and post-crash audits.  ``feed_bound``/``burst_rows`` are sized so
    the burst phase genuinely overflows the REDO feed and forces the
    fuzzy-rescan path.
    """
    spec = (
        scenario_spec(seed, 48)
        .with_replicas(replicas)
        .with_views(VIEWS, feed_bound=feed_bound)
    )
    dep = spec.build()
    dep.start()
    env = dep.env
    proxy = dep.frontend
    maintainer = dep.views

    database = TpccDatabase(
        dep.engine, VIEWS_TPCC, dep.seeds.stream("views-tpcc-load")
    )
    run(dep, database.load(), "views-tpcc-load")
    dep.engine.create_table(
        "vaudit",
        Schema([
            Column("k", INT()),
            Column("grp", INT()),
            Column("val", INT()),
        ]),
        ["k"],
    )
    dep.fleet.sync_catalogs()
    settled_initial = _settle(dep, settle_timeout)

    audits = {"equivalence_checks": 0, "view_served": 0, "violations": []}
    audit_session = proxy.session("views-audit")
    _equivalence_audit(dep, audit_session, "initial", audits)

    # ------------------------------------------------------------------
    # Phase 1: live traffic.
    # ------------------------------------------------------------------
    terminals = tpcc_terminals(
        dep, database, write_terminals, "views-terminal-%d"
    )
    tpcc_stats = {"shed": 0}
    audit_stats = [
        {"writes": 0, "aborted": 0, "checks": 0, "view_served": 0,
         "shed": 0, "violations": []}
        for _ in range(audit_sessions)
    ]
    analyst_stats = [
        {"queries": 0, "view_served": 0, "shed": 0}
        for _ in range(analyst_sessions)
    ]
    procs = []
    for index, client in enumerate(terminals):
        session = proxy.session("views-tpcc-%d" % index)
        procs.append(env.process(
            tpcc_driver(env, session, client, duration, tpcc_stats),
            name="views-tpcc-%d" % index,
        ))
    for index, stats in enumerate(audit_stats):
        session = proxy.session("views-mixed-%d" % index)
        procs.append(env.process(
            _audit_driver(env, session, proxy.write_engine, index,
                          dep.seeds.stream("views-mixed-%d" % index),
                          duration, stats),
            name="views-mixed-%d" % index,
        ))
    for index, stats in enumerate(analyst_stats):
        session = proxy.session("views-analyst-%d" % index)
        procs.append(env.process(
            _analyst_driver(env, session, duration, stats),
            name="views-analyst-%d" % index,
        ))
    env.run_until_event(AllOf(env, procs))
    settled_traffic = _settle(dep, settle_timeout)
    _equivalence_audit(dep, audit_session, "post-traffic", audits)

    # ------------------------------------------------------------------
    # Phase 2: REDO-feed overflow -> fuzzy rescan.
    # ------------------------------------------------------------------
    appliers = [view.applier for view in maintainer.views.values()]
    overflows_before = sum(applier.feed.overflows for applier in appliers)

    # Stall the apply loops (an operator pause) so the burst's publishes
    # pile past the feed bound instead of being drained as they land —
    # the overflow, and the fuzzy rescan it forces, must really happen.
    poll_before = appliers[0].poll_interval
    for applier in appliers:
        applier.poll_interval = 0.1
    burst_session = proxy.session("views-burst")
    burst = _vaudit_rows(dep.engine, 9000000, 0, burst_rows)
    run(dep, burst_session.write(burst), "views-burst")
    for applier in appliers:
        applier.poll_interval = poll_before
    settled_overflow = _settle(dep, settle_timeout)
    overflows_after = sum(applier.feed.overflows for applier in appliers)
    _equivalence_audit(dep, audit_session, "post-overflow", audits)

    # ------------------------------------------------------------------
    # Phase 3: maintainer crash -> reads bounce -> rebuild -> audit.
    # ------------------------------------------------------------------
    crash_report: Optional[Dict] = None
    if crash_phase:
        maintainer.crash()
        dep.run_for(5 * MS)
        # Served answers must stay correct (and fresh) while down: the
        # proxy bounces every eligible SELECT to the ordinary route.
        _equivalence_audit(dep, audit_session, "during-crash", audits)
        maintainer.recover()
        settled_crash = _settle(dep, settle_timeout)
        _equivalence_audit(dep, audit_session, "post-rebuild", audits)
        crash_report = {
            "crashes": maintainer.crashes,
            "recoveries": maintainer.recoveries,
            "settled": settled_crash,
        }

    violations: List[str] = list(audits.pop("violations"))
    for stats in audit_stats:
        violations.extend(stats.pop("violations"))
    if burst_rows > feed_bound and overflows_after == overflows_before:
        violations.append(
            "overflow phase did not overflow the feed "
            "(burst %d rows, bound %d)" % (burst_rows, feed_bound)
        )

    report = {
        "seed": seed,
        "duration": duration,
        "replicas": replicas,
        "feed_bound": feed_bound,
        "burst_rows": burst_rows,
        "virtual_end": round(env.now, 6),
        "views": {
            name: {
                key: value
                for key, value in maintainer.views[name].stats().items()
                if key != "feed_depth"
            }
            for name, _sql in VIEWS
        },
        "maintainer": maintainer.counters(),
        "redo_feed": dep.engine.redo_feed_stats(),
        "proxy": {
            "views_served": proxy.views_served,
            "views_bounced": proxy.views_bounced,
            "reads_replica": proxy.reads_replica,
            "reads_primary": proxy.reads_primary,
        },
        "tpcc": tpcc_section(terminals, tpcc_stats),
        "freshness": totals(audit_stats, (
            "writes", "aborted", "checks", "view_served", "shed")),
        "analysts": totals(analyst_stats, ("queries", "view_served", "shed")),
        "equivalence": dict(audits),
        "overflow": {
            "feed_overflows": overflows_after,
            "new_overflows": overflows_after - overflows_before,
            "settled": settled_overflow,
        },
        "settled": {
            "initial": settled_initial,
            "post_traffic": settled_traffic,
        },
        "crash": crash_report,
        "violations": violations,
        "ok": not violations,
    }
    return report
