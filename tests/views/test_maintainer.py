"""Deployment-level tests for the view maintainer: parity, freshness,
overflow rescans, crash/rebuild, routing, and observability."""

from repro.engine.codec import INT, Column, Schema
from repro.harness.deployment import DeploymentSpec
from repro.harness.stats import collect_stats

GROUPS = 4
VIEW_SQL = (
    "SELECT grp, COUNT(*) AS n, SUM(val) AS total, AVG(val) AS mean, "
    "MIN(val) AS lo, MAX(val) AS hi FROM facts GROUP BY grp"
)
PROJ_SQL = "SELECT k, val FROM facts WHERE grp = 1"
QUERY = VIEW_SQL + " ORDER BY grp"


def build(seed=19, views=None, **view_kwargs):
    spec = (
        DeploymentSpec.astore_ebp(seed=seed, astore_servers=3)
        .with_replicas(1)
        .with_views(views or {"by_grp": VIEW_SQL, "grp_one": PROJ_SQL},
                    **view_kwargs)
    )
    dep = spec.build()
    dep.start()
    dep.engine.create_table(
        "facts",
        Schema([Column("k", INT()), Column("grp", INT()),
                Column("val", INT())]),
        ["k"],
    )
    dep.fleet.sync_catalogs()
    return dep


def run(dep, gen, name="test"):
    proc = dep.env.process(gen, name=name)
    dep.env.run_until_event(proc)
    return proc.value


def insert_rows(dep, session, count, start=0):
    def work(txn):
        for k in range(start, start + count):
            yield from dep.engine.insert(
                txn, "facts", [k, k % GROUPS, k % 13]
            )
        return count

    return run(dep, session.write(work))


def settle(dep, timeout=2.0):
    deadline = dep.env.now + timeout
    while dep.env.now < deadline and not dep.views.caught_up():
        dep.run_for(0.002)
    assert dep.views.caught_up()


def parity(dep, session, sql):
    """View-served result must byte-match a fresh primary rescan."""
    served = run(dep, session.execute(sql))
    direct = run(dep, dep.frontend.primary_session.execute(sql))
    assert served.columns == direct.columns
    assert served.rows == direct.rows
    return served


def test_view_parity_across_insert_update_delete():
    dep = build()
    session = dep.frontend_session("client")
    insert_rows(dep, session, 40)
    settle(dep)
    parity(dep, session, QUERY)
    assert session.last_route == "view:by_grp"

    def churn(txn):
        yield from dep.engine.update(txn, "facts", (5,), {"val": 99})
        yield from dep.engine.update(txn, "facts", (6,), {"grp": 0})
        yield from dep.engine.delete(txn, "facts", (7,))
        return True

    run(dep, session.write(churn))
    settle(dep)
    parity(dep, session, QUERY)
    # An aggregate as the sort key, DESC, cut by LIMIT: the engine's order.
    top = parity(dep, session, VIEW_SQL + " ORDER BY SUM(val) DESC, grp LIMIT 2")
    assert session.last_route == "view:by_grp"
    assert [row[2] for row in top.rows] == sorted(
        (row[2] for row in parity(dep, session, QUERY).rows), reverse=True)[:2]
    parity(dep, session, PROJ_SQL + " ORDER BY k")
    assert session.last_route == "view:grp_one"


def test_view_parity_when_two_items_share_an_output_name():
    dep = build()
    session = dep.frontend_session("client")
    insert_rows(dep, session, 40)
    settle(dep)
    served = parity(
        dep, session,
        "SELECT grp, COUNT(*) AS grp, SUM(val) AS total FROM facts "
        "GROUP BY grp ORDER BY grp",
    )
    assert session.last_route == "view:by_grp"
    assert served.columns == ["grp", "grp", "total"]
    assert [row[:2] for row in served.rows] == [(g, 10) for g in range(GROUPS)]


def test_read_your_writes_waits_on_watermark():
    dep = build()
    session = dep.frontend_session("client")
    insert_rows(dep, session, 8)
    settle(dep)

    def write_then_query():
        def more(txn):
            for k in range(100, 110):
                yield from dep.engine.insert(txn, "facts", [k, 1, 1])
            return True

        yield from session.write(more)
        # The maintainer polls every 2 ms; the session token forces a
        # watermark wait so the served answer includes our own writes.
        return (yield from session.execute(VIEW_SQL))

    result = run(dep, write_then_query())
    assert session.last_route == "view:by_grp"
    counts = {row[0]: row[1] for row in result.rows}
    assert counts[1] == 2 + 10  # k in {1, 5} from the seed rows, plus ours
    counters = dep.views.counters()
    assert counters["lsn_waits"] >= 1
    assert counters["lsn_wait_timeouts"] == 0


def test_aborted_transaction_leaves_view_unchanged():
    dep = build()
    session = dep.frontend_session("client")
    insert_rows(dep, session, 20)
    settle(dep)
    before = run(dep, session.execute(QUERY))

    def doomed():
        engine = dep.engine
        txn = engine.begin()
        for k in range(200, 220):
            yield from engine.insert(txn, "facts", [k, k % GROUPS, 7])
        yield from engine.update(txn, "facts", (3,), {"val": 77})
        yield from engine.delete(txn, "facts", (4,))
        yield from engine.rollback(txn)

    run(dep, doomed())
    settle(dep)
    after = parity(dep, session, QUERY)
    assert after.rows == before.rows


def test_feed_overflow_forces_rescan_and_stays_exact():
    dep = build(views={"by_grp": VIEW_SQL}, feed_bound=16)
    session = dep.frontend_session("client")
    insert_rows(dep, session, 10)
    settle(dep)
    maintainer = dep.views
    view = maintainer.views["by_grp"]
    applier = view.applier
    rescans_before = applier.rescans

    # Stall the apply loop so publishes pile past the 16-record bound.
    poll_before = applier.poll_interval
    applier.poll_interval = 0.1
    insert_rows(dep, session, 120, start=1000)
    dep.run_for(0.12)
    applier.poll_interval = poll_before
    settle(dep)

    assert applier.feed.overflows >= 1
    assert applier.rescans > rescans_before
    assert applier.scans["overflow"] >= 1
    parity(dep, session, QUERY)
    assert session.last_route == "view:by_grp"


def test_crash_bounces_reads_then_rebuilds():
    dep = build()
    session = dep.frontend_session("client")
    insert_rows(dep, session, 30)
    settle(dep)
    parity(dep, session, QUERY)
    assert session.last_route == "view:by_grp"

    dep.views.crash()
    dep.run_for(0.01)
    assert not dep.views.caught_up()
    # Still correct, just not view-served: the proxy bounces the read.
    parity(dep, session, QUERY)
    assert session.last_route != "view:by_grp"
    assert dep.frontend.views_bounced >= 1

    dep.views.recover()
    settle(dep)
    parity(dep, session, QUERY)
    assert session.last_route == "view:by_grp"
    counters = dep.views.counters()
    assert counters["crashes"] == 1
    assert counters["recoveries"] == 1


def test_second_crash_mid_rebuild_still_runs_one_scan_per_crash():
    """The rebuild the second crash abandoned must not start another
    scan beside the one the second recover() already runs."""
    dep = build(views={"by_grp": VIEW_SQL})
    session = dep.frontend_session("client")
    insert_rows(dep, session, 1500)
    settle(dep)
    applier = dep.views.views["by_grp"].applier

    dep.views.crash()
    dep.views.recover()
    dep.run_for(50e-6)  # mid-scan
    assert not applier.alive
    dep.views.crash()
    dep.views.recover()
    for wave in range(20):
        insert_rows(dep, session, 5, start=10_000 + 5 * wave)
        dep.run_for(0.3e-3)
    settle(dep)

    assert applier.scans["crash"] == 2 and applier.recoveries == 1
    parity(dep, session, QUERY)
    assert session.last_route == "view:by_grp"


def test_prepared_statements_skip_view_routing():
    dep = build()
    session = dep.frontend_session("client")
    insert_rows(dep, session, 12)
    settle(dep)
    handle = session.prepare(QUERY)
    prepared = run(dep, handle.execute())
    direct = run(dep, dep.frontend.primary_session.execute(QUERY))
    assert prepared.rows == direct.rows
    assert not session.last_route.startswith("view:")


def test_view_gauges_in_stats_snapshot():
    dep = build()
    session = dep.frontend_session("client")
    insert_rows(dep, session, 25)
    settle(dep)
    # A post-build write so records arrive via the feed, not the rescan.
    insert_rows(dep, session, 5, start=500)
    settle(dep)
    run(dep, session.execute(QUERY))
    snap = collect_stats(dep)

    maintainer = snap["views"]["maintainer"]
    assert maintainer["alive"] == 1
    assert maintainer["views"] == 2
    assert maintainer["serves"] >= 1
    assert maintainer["records_folded"] > 0

    by_grp = snap["views"]["by_grp"]
    assert by_grp["size"] == GROUPS
    assert by_grp["watermark"] > 0
    assert by_grp["rescans"] >= 1  # the initial build

    feed = snap["engine"]["redo_feed"]
    assert feed["subscribers"] == 3  # one standby replica + two views
    assert feed["published"] > 0
    assert feed["overflows"] == 0

    proxy = snap["frontend"]["proxy"]
    assert proxy["views_served"] >= 1
