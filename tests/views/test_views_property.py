"""Property test: incremental view state == fresh re-plan at the same LSN.

A random DML sequence (inserts, updates, deletes, aborted transactions)
runs against a viewed table.  At every quiescent point the proxy's
view-served answer must byte-match re-planning the same SELECT from
scratch on the primary -- including after a forced feed overflow (the
fuzzy-rescan path) and after a maintainer crash + rebuild.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.codec import INT, Column, Schema
from repro.harness.deployment import DeploymentSpec

VIEW_SQL = (
    "SELECT grp, COUNT(*) AS n, SUM(val) AS total, AVG(val) AS mean, "
    "MIN(val) AS lo, MAX(val) AS hi FROM t GROUP BY grp"
)
PROJ_SQL = "SELECT k, val FROM t WHERE grp = 0"
QUERIES = (VIEW_SQL + " ORDER BY grp", PROJ_SQL + " ORDER BY k")

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "abort_txn"]),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=50),
    ),
    min_size=5,
    max_size=50,
)


def _settle(dep, timeout=3.0):
    deadline = dep.env.now + timeout
    while dep.env.now < deadline and not dep.views.caught_up():
        dep.run_for(0.002)
    assert dep.views.caught_up()


def _audit(dep, session, phase):
    """Every query: view-served answer == fresh primary re-plan."""
    for sql in QUERIES:
        def compare():
            served = yield from session.execute(sql)
            direct = yield from dep.frontend.primary_session.execute(sql)
            return served, direct

        proc = dep.env.process(compare(), name="views-audit")
        dep.env.run_until_event(proc)
        served, direct = proc.value
        assert served.columns == direct.columns, (phase, sql)
        assert served.rows == direct.rows, (phase, sql)
        assert session.last_route.startswith("view:"), (phase, sql)


@given(ops=ops_strategy, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=12, deadline=None)
def test_view_state_equals_fresh_replan_at_same_lsn(ops, seed):
    dep = (
        DeploymentSpec.astore_ebp(seed=seed, astore_servers=3)
        .with_replicas(1)
        .with_views({"t_by_grp": VIEW_SQL, "t_grp0": PROJ_SQL},
                    feed_bound=32)
        .build()
    )
    dep.start()
    engine = dep.engine
    engine.create_table(
        "t",
        Schema([Column("k", INT()), Column("grp", INT()),
                Column("val", INT())]),
        ["k"],
    )
    dep.fleet.sync_catalogs()
    session = dep.frontend_session("prop")
    model = set()

    def work():
        for kind, key, value in ops:
            if kind == "insert":
                if key in model:
                    continue
                txn = engine.begin()
                yield from engine.insert(txn, "t", [key, key % 3, value])
                yield from engine.commit(txn)
                model.add(key)
            elif kind == "update":
                if key not in model:
                    continue
                txn = engine.begin()
                yield from engine.update(txn, "t", (key,), {"val": value})
                yield from engine.commit(txn)
            elif kind == "delete":
                if key not in model:
                    continue
                txn = engine.begin()
                yield from engine.delete(txn, "t", (key,))
                yield from engine.commit(txn)
                model.discard(key)
            elif kind == "abort_txn":
                txn = engine.begin()
                if key in model:
                    yield from engine.update(txn, "t", (key,), {"val": 999})
                ghost = key + 1000
                yield from engine.insert(txn, "t", [ghost, 0, 999])
                yield from engine.rollback(txn)

    proc = dep.env.process(work(), name="views-prop-dml")
    dep.env.run_until_event(proc)
    _settle(dep)
    _audit(dep, session, "after-dml")

    # Overflow the 32-record feed: stall the apply loops while one
    # transaction publishes a 100-row burst, forcing a fuzzy rescan.
    maintainer = dep.views
    appliers = [view.applier for view in maintainer.views.values()]
    poll_before = appliers[0].poll_interval
    for applier in appliers:
        applier.poll_interval = 0.1

    def burst():
        txn = engine.begin()
        for k in range(2000, 2100):
            yield from engine.insert(txn, "t", [k, k % 3, k % 7])
        yield from engine.commit(txn)

    proc = dep.env.process(burst(), name="views-prop-burst")
    dep.env.run_until_event(proc)
    dep.run_for(0.12)
    for applier in appliers:
        applier.poll_interval = poll_before
    _settle(dep)
    assert any(applier.feed.overflows for applier in appliers)
    _audit(dep, session, "after-overflow")

    # Crash the maintainer and rebuild from scratch.
    maintainer.crash()
    dep.run_for(0.01)
    maintainer.recover()
    _settle(dep)
    _audit(dep, session, "after-crash-rebuild")
