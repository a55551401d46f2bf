"""One statement path through the proxy: a 1-shard proxy routes, admits
and refuses statements exactly like an N-shard one."""

import pytest

from repro.common import QueryError
from repro.engine.codec import INT, Column, Schema
from repro.harness.deployment import DeploymentSpec
from repro.query.planner import Planner
from repro.shard import ShardKeySpec


def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


def build(shards, replicas=2, seed=31):
    dep = (
        DeploymentSpec.astore_ebp(seed=seed, astore_servers=3)
        .with_shards(shards)
        .with_replicas(replicas)
        .build()
    )
    dep.start()
    dep.shard_session().create_table(
        "kv", Schema([Column("k", INT()), Column("v", INT())]), ["k"]
    )
    dep.shardmap.set_table("kv", ShardKeySpec(column_pos=0))
    for stack in dep.shards:
        stack.fleet.sync_catalogs()
    client = dep.frontend_session("client")
    run(dep, client.execute(
        "INSERT INTO kv VALUES (0, 100), (1, 101), (2, 102), (3, 103)"
    ))
    dep.run_for(0.05)  # replicas catch up: reads stay on them
    return dep, client


@pytest.mark.parametrize("shards", [1, 2])
def test_wrong_arity_prepared_select_fails_at_the_call(shards):
    dep, client = build(shards)
    proxy = dep.frontend
    select = client.prepare("SELECT v FROM kv WHERE k = ?")
    for params in ((), (1, 2)):
        with pytest.raises(QueryError):
            select.execute(*params)
    # Refused before routing: no replica was tried, nothing bounced.
    assert proxy.reroutes == 0
    assert set(proxy.bounces.values()) == {0}
    assert run(dep, select.execute(1)).rows == [(101,)]


@pytest.mark.parametrize("shards", [1, 2])
def test_text_dml_with_unbound_placeholder_is_refused_before_admission(
        shards):
    dep, client = build(shards)
    proxy = dep.frontend
    admitted = [a.admitted["write"] for a in proxy.admissions]
    writes = proxy.writes
    for sql in ("INSERT INTO kv VALUES (?, 1)",
                "UPDATE kv SET v = ? WHERE k = 1",
                "DELETE FROM kv WHERE k = ?"):
        with pytest.raises(QueryError):
            run(dep, client.execute(sql))
    assert [a.admitted["write"] for a in proxy.admissions] == admitted
    assert proxy.writes == writes
    assert run(dep, client.read_row("kv", (1,))) == [1, 101]


def test_lane_view_read_takes_no_read_admission_slot():
    view_sql = "SELECT grp, COUNT(*) AS n FROM facts GROUP BY grp"
    dep = (
        DeploymentSpec.astore_ebp(seed=19, astore_servers=3)
        .with_replicas(1)
        .with_views({"by_grp": view_sql})
        .with_multiplexing(2)
        .build()
    )
    dep.start()
    dep.engine.create_table(
        "facts", Schema([Column("k", INT()), Column("grp", INT())]), ["k"]
    )
    dep.fleet.sync_catalogs()
    ms = dep.mux.open("client")

    def load(txn):
        for k in range(12):
            yield from dep.engine.insert(txn, "facts", [k, k % 3])

    run(dep, dep.mux.write(ms, load))
    deadline = dep.env.now + 2.0
    while dep.env.now < deadline and not dep.views.caught_up():
        dep.run_for(0.002)
    proxy = dep.frontend
    admitted = dep.admission.admitted["read"]
    served = proxy.views_served
    result = run(dep, dep.mux.execute(ms, view_sql + " ORDER BY grp"))
    assert result.rows == [(0, 4), (1, 4), (2, 4)]
    assert proxy.views_served == served + 1
    # The lane's weighted-fair checkout was this read's admission.
    assert dep.admission.admitted["read"] == admitted


def test_sharded_prepared_select_plans_once_per_destination(monkeypatch):
    dep, client = build(2, replicas=1)
    sql = "SELECT k, v FROM kv WHERE k = ?"
    want = run(dep, client.execute(sql.replace("?", "1"))).rows
    planned = []
    plan_select = Planner.plan_select

    def counting(planner, select):
        planned.append(planner)
        return plan_select(planner, select)

    monkeypatch.setattr(Planner, "plan_select", counting)
    prepared = client.prepare(sql)
    routes = set()
    for _ in range(3):
        assert run(dep, prepared.execute(1)).rows == want == [(1, 101)]
        routes.add(client.last_route)
    # One plan template per destination session, bound per execution.
    assert len(planned) == len(routes) == 1
