"""Sharded deployment API tests: the with_shards builder, vector-token
read-your-writes through the proxy, scatter-gather merging, and
same-seed determinism of the sharded TPC-C driver."""

import pytest

from repro.common import QueryError

from repro.engine.codec import INT, Column, Schema
from repro.harness.deployment import DeploymentSpec
from repro.shard import ShardKeySpec
from repro.workloads import TpccConfig, run_tpcc_sharded


def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


def test_with_shards_validation():
    with pytest.raises(ValueError):
        DeploymentSpec.stock(seed=3).with_shards(0).build()


def test_with_shards_one_is_the_unsharded_spec():
    spec = DeploymentSpec.astore_ebp(seed=5, astore_servers=3)
    # n=1 is a no-op on the spec itself: same dataclass value, so the
    # resulting deployment is built from identical configuration.
    assert spec.with_shards(1) == spec
    dep = spec.with_shards(1).build()
    assert len(dep.shards) == 1
    assert dep.engines[0] is dep.engine
    # The coordinator session still works at n=1 (no 2PC ever fires).
    dep.start()
    session = dep.shard_session()
    session.create_table(
        "kv", Schema([Column("k", INT()), Column("v", INT())]), ["k"]
    )
    txn = session.begin()

    def work():
        yield from session.insert(txn, "kv", [1, 10])
        yield from session.commit(txn)

    run(dep, work())
    assert dep.coordinator.counters()["two_phase_commits"] == 0
    assert run(dep, dep.engine.read_row(None, "kv", (1,))) == [1, 10]


def test_sharded_accessors():
    dep = DeploymentSpec.stock(seed=9).with_shards(3).build()
    assert dep.config.shards == 3
    assert len(dep.shards) == 3
    assert len(dep.engines) == 3
    assert dep.engines[0] is dep.engine
    assert dep.shardmap.shards == 3
    assert dep.coordinator is not None
    # Each shard is a full vertical stack with its own log.
    logs = {id(stack.engine.log) for stack in dep.shards}
    assert len(logs) == 3


def build_sharded_frontend(seed=29):
    spec = (
        DeploymentSpec.astore_ebp(seed=seed, astore_servers=3)
        .with_shards(2)
        .with_replicas(2)
    )
    dep = spec.build()
    dep.start()
    session = dep.shard_session()
    session.create_table(
        "kv", Schema([Column("k", INT()), Column("v", INT())]), ["k"]
    )
    dep.shardmap.set_table("kv", ShardKeySpec(column_pos=0))
    for stack in dep.shards:
        stack.fleet.sync_catalogs()
    return dep


def test_vector_token_read_your_writes_across_shards():
    dep = build_sharded_frontend()
    client = dep.frontend_session("client")
    # One transaction writing both shards: k=0 -> shard 0, k=1 -> shard 1.
    run(dep, client.execute("INSERT INTO kv VALUES (0, 100), (1, 101)"))
    assert dep.coordinator.counters()["two_phase_commits"] == 1
    # The commit advanced BOTH components of the session token.
    assert client.token.get(0) > 0
    assert client.token.get(1) > 0
    # Immediate reads - replicas may still be applying - must observe the
    # writes on both shards: the per-shard token component holds each
    # read until its replica caught up (or bounces it to the primary).
    assert run(dep, client.read_row("kv", (0,))) == [0, 100]
    assert run(dep, client.read_row("kv", (1,))) == [1, 101]
    # After the fleets drain, the same reads serve from replicas and are
    # still fresh: zero stale reads.
    dep.run_for(0.5)
    assert run(dep, client.read_row("kv", (0,))) == [0, 100]
    assert client.last_route != "primary"
    assert run(dep, client.read_row("kv", (1,))) == [1, 101]
    assert client.last_route != "primary"


def test_scatter_select_merges_across_shards():
    dep = build_sharded_frontend(seed=31)
    client = dep.frontend_session("client")
    values = ", ".join("(%d, %d)" % (k, k * 10) for k in range(8))
    run(dep, client.execute("INSERT INTO kv VALUES %s" % values))

    result = run(dep, client.execute("SELECT COUNT(*), SUM(v) FROM kv"))
    assert result.rows == [(8, sum(k * 10 for k in range(8)))]

    result = run(
        dep, client.execute("SELECT MIN(v), MAX(v) FROM kv WHERE k >= 2")
    )
    assert result.rows == [(20, 70)]

    # Plain scatter re-applies ORDER BY and LIMIT globally.
    result = run(
        dep,
        client.execute("SELECT k, v FROM kv ORDER BY k DESC LIMIT 3"),
    )
    assert result.rows == [(7, 70), (6, 60), (5, 50)]

    assert dep.frontend.scatter_selects >= 3

    # AVG / DISTINCT aggregates are not decomposable from finalized
    # per-shard values; the scatter ships pre-finalize accumulator
    # states instead (sum+count, distinct value sets) and merges them
    # globally - the answer matches one engine holding every row.
    result = run(dep, client.execute("SELECT AVG(v) FROM kv"))
    assert result.rows == [(35.0,)]  # mean of 0,10,...,70
    result = run(dep, client.execute("SELECT COUNT(DISTINCT v) FROM kv"))
    assert result.rows == [(8,)]
    result = run(dep, client.execute(
        "SELECT COUNT(DISTINCT v) AS dv, AVG(v) AS mean FROM kv WHERE k >= 2"
    ))
    assert result.rows == [(6, 45.0)]

    # Single-shard aggregates are unaffected.
    result = run(dep, client.execute("SELECT AVG(v) FROM kv WHERE k = 4"))
    assert result.rows == [(40,)]


def test_scattered_order_by_source_column_under_an_alias_is_refused():
    """``SELECT k AS v ... ORDER BY kv.v``: one engine sorts by the source
    column ``v``; the merged rows carry only the select list, where the
    bare-name fallback of ``kv.v`` would land on the alias (= ``k``)."""
    dep = build_sharded_frontend(seed=47)
    rows = [(k, 100 - k) for k in range(8)]  # v descends as k ascends
    insert = "INSERT INTO kv VALUES %s" % ", ".join("(%d, %d)" % r for r in rows)
    one = DeploymentSpec.astore_ebp(seed=47, astore_servers=3).build()
    one.start()
    one.engine.create_table(
        "kv", Schema([Column("k", INT()), Column("v", INT())]), ["k"]
    )
    single = one.new_session()
    run(one, single.execute(insert))
    client = dep.frontend_session("client")
    run(dep, client.execute(insert))
    sql = "SELECT k AS v FROM kv ORDER BY kv.v"
    assert run(one, single.execute(sql)).rows == [(k,) for k in range(7, -1, -1)]
    with pytest.raises(QueryError, match="cannot scatter-gather: ORDER BY key "
                                         "is not in the select list"):
        run(dep, client.execute(sql))
    # The alias itself, and a qualified name of a column that did ship,
    # sort the merged rows as one engine does.
    for sql in ("SELECT k AS v FROM kv ORDER BY v",
                "SELECT kv.v, k FROM kv ORDER BY kv.v",
                "SELECT v AS v, k FROM kv ORDER BY kv.v DESC"):
        assert (run(dep, client.execute(sql)).rows
                == run(one, single.execute(sql)).rows), sql


def test_scattered_top_k_by_aggregate_is_the_one_engine_answer():
    """``GROUP BY ... ORDER BY <aggregate> LIMIT k`` with a group split
    across the shards: a leg that cut its groups by the LIMIT (or ranked
    them by its share of the aggregate) before the merge would answer
    (2, 4) - each shard's own top group - instead of (1, 6)."""
    dep = build_sharded_frontend(seed=41)
    home = {0: [], 1: []}
    for k in range(40):
        home[dep.shardmap.read_shard_of("kv", (k,))].append(k)
    # v=1: three rows on each shard; v=2: four rows, all on shard 1.
    rows = [(k, 1) for k in home[0][:3] + home[1][:3]]
    rows += [(k, 2) for k in home[1][3:7]]
    insert = "INSERT INTO kv VALUES %s" % ", ".join("(%d, %d)" % row for row in rows)
    one = DeploymentSpec.astore_ebp(seed=41, astore_servers=3).build()
    one.start()
    one.engine.create_table(
        "kv", Schema([Column("k", INT()), Column("v", INT())]), ["k"]
    )
    single = one.new_session()
    run(one, single.execute(insert))
    client = dep.frontend_session("client")
    run(dep, client.execute(insert))
    for sql, want in (
        ("SELECT v, COUNT(*) AS n FROM kv GROUP BY v ORDER BY n DESC LIMIT 1",
         [(1, 6)]),
        ("SELECT v, COUNT(*) AS n FROM kv GROUP BY v ORDER BY n LIMIT 1",
         [(2, 4)]),
        ("SELECT v, COUNT(*), AVG(k) FROM kv GROUP BY v "
         "ORDER BY COUNT(*) DESC, v LIMIT 1",
         [(1, 6, sum(k for k, v in rows if v == 1) / 6)]),
    ):
        before = dep.frontend.scatter_selects
        assert run(dep, client.execute(sql)).rows == want, sql
        assert run(one, single.execute(sql)).rows == want, sql
        assert dep.frontend.scatter_selects == before + 1
    # The prepared path scatters the bound AST through the same legs.
    prepared = client.prepare(
        "SELECT v, COUNT(*) AS n FROM kv WHERE k >= ? GROUP BY v "
        "ORDER BY n DESC LIMIT 1"
    )
    assert run(dep, prepared.execute(0)).rows == [(1, 6)]


def test_repeated_scattered_aggregate_hits_the_plan_cache():
    dep = build_sharded_frontend(seed=43)
    client = dep.frontend_session("client")
    values = ", ".join("(%d, %d)" % (k, k % 3) for k in range(12))
    run(dep, client.execute("INSERT INTO kv VALUES %s" % values))
    dep.run_for(0.5)  # replicas drain: the legs stay where they first ran
    proxy = dep.frontend

    def plan_cache():
        sessions = list(proxy._primary_sessions.values())
        sessions += proxy._replica_sessions.values()
        return (sum(s.plan_cache_hits for s in sessions),
                sum(s.plan_cache_misses for s in sessions))

    sql = "SELECT v, COUNT(*), AVG(k) FROM kv GROUP BY v ORDER BY v"
    first = run(dep, client.execute(sql))
    assert first.rows == [(0, 4, 4.5), (1, 4, 5.5), (2, 4, 6.5)]
    _hits, misses = plan_cache()
    assert misses >= 2  # one plan per leg
    routes = []
    for _ in range(3):
        hits, _ = plan_cache()
        assert run(dep, client.execute(sql)).rows == first.rows
        routes.append(plan_cache())
        assert routes[-1][0] >= hits + 1
    # Once every leg's session has seen the text, nothing re-plans.
    assert routes[-1] == (routes[-2][0] + 2, routes[-2][1])


def test_prepared_statement_routes_by_bound_parameter():
    dep = build_sharded_frontend(seed=37)
    client = dep.frontend_session("client")
    values = ", ".join("(%d, %d)" % (k, k + 200) for k in range(4))
    run(dep, client.execute("INSERT INTO kv VALUES %s" % values))

    prepared = client.prepare("SELECT v FROM kv WHERE k = ?")
    for k in range(4):
        result = run(dep, prepared.execute(k))
        assert result.rows == [(k + 200,)]
    # Every execution pinned one shard: no scatter happened.
    assert dep.frontend.scatter_selects == 0


def sharded_tpcc_report(seed):
    config = TpccConfig(
        warehouses=4, districts_per_warehouse=2, customers_per_district=6,
        items=20, remote_item_prob=0.2,
    )
    dep = DeploymentSpec.astore_ebp(
        seed=seed, astore_servers=3).with_shards(2).build()
    dep.start()
    tps, latency, terminals = run_tpcc_sharded(
        dep, config, clients=4, duration=1.0
    )
    return {
        "tps": tps,
        "committed": sum(t.committed for t in terminals),
        "aborted": sum(t.aborted for t in terminals),
        "coordinator": dep.coordinator.counters(),
        "virtual_end": dep.env.now,
    }


def test_sharded_tpcc_is_deterministic_per_seed():
    first = sharded_tpcc_report(seed=41)
    second = sharded_tpcc_report(seed=41)
    assert first == second
    assert first["committed"] > 0
    assert first["coordinator"]["two_phase_commits"] > 0
