"""ch_analytics: the 22 CH queries, columnar executor plus push-down."""

from __future__ import annotations

from repro import DeploymentSpec
from repro.common import KB, MB
from repro.workloads.tpcch import (
    CH_QUERIES,
    TpcchConfig,
    TpcchDatabase,
    ch_query_sql,
)

from .base import Outcome, run

NAME = "ch_analytics"
OP = "query"
LOOP = "closed loop, one analyst session, a cold pass then a warm pass"

#: bench_ch_slice's deployment (16-page BP, 128 MB EBP, 2 warehouses) over
#: data cut so that two passes of 22 queries fit a ~3 s window.
CONFIG = TpcchConfig(
    warehouses=2, customers_per_district=80, items=1200,
    initial_orders_per_district=80, suppliers=200, string_scale=1.0,
)
QUICK_CONFIG = TpcchConfig(
    warehouses=2, customers_per_district=16, items=240,
    initial_orders_per_district=16, suppliers=100, string_scale=1.0,
)
BP_PAGES = 16
EBP_BYTES = 128 * MB
SETTLE_S = 0.3                 # virtual: eviction populates the EBP
QUERIES = tuple(sorted(CH_QUERIES))
PASSES = 2
#: Checked against row mode: GROUP-BY partials, filter-only aggregate,
#: hash-build push, selective filter push.
PARITY_QUERIES = (1, 6, 12, 15)


def build_spec(seed: int, quick: bool) -> DeploymentSpec:
    return (
        DeploymentSpec.astore_pq(seed=seed)
        .with_engine(buffer_pool_bytes=BP_PAGES * 16 * KB)
        .with_ebp(EBP_BYTES)
    )


def canonical_rows(result):
    # Push-down's local-then-tasks merge permutes ORDER BY ties and
    # reassociates float sums, so parity compares rounded, sorted rows.
    rows = [
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in result.rows
    ]
    return sorted(rows, key=repr)


def setup(dep, quick: bool):
    database = TpcchDatabase(
        dep.engine, QUICK_CONFIG if quick else CONFIG,
        dep.seeds.stream("bench-ch-load"),
    )

    def load(env):
        yield from database.load()
        yield env.timeout(SETTLE_S)

    run(dep, load(dep.env), "bench-ch-load")
    sqls = {qno: ch_query_sql(qno) for qno in QUERIES}
    row_session = dep.new_session(enable_pushdown=False, batch_mode=False)
    reference = {
        qno: run(dep, row_session.execute(sqls[qno]), "bench-ch-reference")
        for qno in PARITY_QUERIES
    }
    session = dep.new_session(
        enable_pushdown=True, force_hash_joins=True, batch_mode=True
    )
    return {"sqls": sqls, "reference": reference, "session": session}


def window(dep, state, quick: bool) -> Outcome:
    env = dep.env
    session = state["session"]
    sqls = state["sqls"]
    latencies = []
    results = {}
    start = env.now
    for _pass in range(PASSES):
        for qno in QUERIES:
            began = env.now
            results[qno] = run(dep, session.execute(sqls[qno]), "bench-ch")
            latencies.append(env.now - began)
    state["results"] = results
    return Outcome(
        ops=len(latencies),
        attempted=len(latencies),
        failed=0,
        virtual_s=env.now - start,
        latencies=latencies,
        digest={
            str(qno): {"columns": r.columns, "rows": r.rows}
            for qno, r in results.items()
        },
    )


def check(dep, state, outcome: Outcome):
    errors = []
    for qno, expect in state["reference"].items():
        got = state["results"][qno]
        if (got.columns != expect.columns
                or canonical_rows(got) != canonical_rows(expect)):
            errors.append("Q%d: batch+PQ rows differ from row mode" % qno)
    return errors
