"""serve_htap: writes, read-your-writes and views through the SQL proxy."""

from __future__ import annotations

from repro import DeploymentSpec
from repro.common import KB
from repro.engine.codec import INT, Column, Schema
from repro.workloads.tpcc import TpccConfig, TpccDatabase

from .base import Outcome, drive, run
from .tpcc_log import consistency_errors, make_terminals

NAME = "serve_htap"
OP = "statement"
LOOP = ("closed loop, 8 proxy sessions: 4 TPC-C writers, 2 audit writers, "
        "2 analysts with 2 ms think time")

TPCC_SESSIONS = 4
AUDIT_SESSIONS = 2
ANALYST_SESSIONS = 2
REPLICAS = 2
CONFIG = TpccConfig(
    warehouses=2, districts_per_warehouse=3,
    customers_per_district=8, items=40,
)
BP_PAGES = 48
AUDIT_GROUPS = 8
THINK_S = 2e-3                 # analysts only
WARMUP_S = 0.03                # virtual: plan caches, view catch-up
WINDOW_S = 0.6                 # virtual
QUICK_WINDOW_S = 0.08

#: Aggregate arguments stay on INT columns so incremental SUM/AVG states
#: finalize bit-identically to the executor.
VIEWS = (
    ("ch_ol_by_wh",
     "SELECT ol_w_id, COUNT(*) AS cnt, SUM(ol_quantity) AS qty, "
     "AVG(ol_quantity) AS avg_qty, MAX(ol_quantity) AS max_qty "
     "FROM order_line GROUP BY ol_w_id"),
    ("vaudit_by_grp",
     "SELECT grp, COUNT(*) AS n, SUM(val) AS total "
     "FROM vaudit GROUP BY grp"),
)
VIEW_QUERY = VIEWS[0][1] + " ORDER BY ol_w_id"
AUDIT_QUERY = VIEWS[1][1] + " ORDER BY grp"
#: Matches no view: a replica-side scan of a fixed-size table.
SCAN_QUERY = ("SELECT COUNT(*) AS n, SUM(s_quantity) AS qty "
              "FROM stock WHERE s_w_id = 1")


def build_spec(seed: int, quick: bool) -> DeploymentSpec:
    return (
        DeploymentSpec.astore_ebp(seed=seed, astore_servers=4)
        .with_engine(buffer_pool_bytes=BP_PAGES * 16 * KB)
        .with_replicas(REPLICAS)
        .with_views(VIEWS)
    )


class _Tally:
    """Per-session counts and latencies for one phase."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.stale = []

    def timed(self, env, gen):
        """Generator: run one statement, record its virtual latency."""
        began = env.now
        result = yield from gen
        self.latencies.append(env.now - began)
        return result


def _tpcc_session(env, session, client, districts, floor, duration, tally):
    """TPC-C write, then a routed district read that must cover every
    payment and order this terminal has committed there."""
    deadline = env.now + duration
    turn = 0
    while env.now < deadline:
        _kind, latency = yield from tally.timed(
            env, session.run_write(client.run_one())
        )
        if latency is None:
            tally.failed += 1
        key = districts[turn % len(districts)]
        turn += 1
        row = yield from tally.timed(env, session.read_row("district", key))
        ytd0, next0 = floor[key]
        paid = client.committed_payments.get(key, 0.0)
        ordered = client.committed_new_orders.get(key, 0)
        if (row is None or row[6] < ytd0 + paid - 0.01
                or row[7] < next0 + ordered):
            tally.stale.append(
                "t=%.4f %s: district %r read %r behind own commits "
                "(+%.2f ytd, +%d orders; route %s)"
                % (env.now, session.name, key, row and row[6:8], paid,
                   ordered, session.last_route)
            )


def _audit_session(env, session, engine, index, rng, duration, tally, own):
    """Insert audit rows, then read the matching view back."""
    deadline = env.now + duration
    while env.now < deadline:
        rows = rng.randint(1, 3)
        base = own["next"]

        def work(txn, base=base, rows=rows):
            for seq in range(base, base + rows):
                yield from engine.insert(
                    txn, "vaudit",
                    [index * 1000000 + seq, seq % AUDIT_GROUPS, seq % 23],
                )
            return True

        yield from tally.timed(env, session.write(work))
        for seq in range(base, base + rows):
            grp = seq % AUDIT_GROUPS
            own["count"][grp] = own["count"].get(grp, 0) + 1
            own["total"][grp] = own["total"].get(grp, 0) + seq % 23
        own["next"] = base + rows
        result = yield from tally.timed(env, session.execute(AUDIT_QUERY))
        seen = {row[0]: (row[1], row[2]) for row in result.rows}
        for grp, count in own["count"].items():
            got = seen.get(grp)
            if got is None or got[0] < count or got[1] < own["total"][grp]:
                tally.stale.append(
                    "t=%.4f %s: group %d served %r < own (%d, %d) (route %s)"
                    % (env.now, session.name, grp, got, count,
                       own["total"][grp], session.last_route)
                )


def _analyst_session(env, session, duration, tally):
    deadline = env.now + duration
    turn = 0
    while env.now < deadline:
        sql = VIEW_QUERY if turn % 2 == 0 else SCAN_QUERY
        turn += 1
        result = yield from tally.timed(env, session.execute(sql))
        if not result.rows:
            tally.failed += 1
        yield env.timeout(THINK_S)


def _phase(dep, state, duration: float):
    """Run all eight sessions for ``duration``; returns (tallies, virtual s)."""
    env = dep.env
    tallies = []

    def tally():
        tallies.append(_Tally())
        return tallies[-1]

    gens = [
        _tpcc_session(env, session, client, state["districts"],
                      state["floor"], duration, tally())
        for session, client in state["tpcc"]
    ] + [
        _audit_session(env, session, dep.frontend.write_engine, index, rng,
                       duration, tally(), own)
        for index, (session, rng, own) in enumerate(state["audit"])
    ] + [
        _analyst_session(env, session, duration, tally())
        for session in state["analysts"]
    ]
    return tallies, drive(dep, gens, "bench-htap")


def setup(dep, quick: bool):
    engine = dep.engine
    database = TpccDatabase(
        engine, CONFIG, dep.seeds.stream("bench-htap-load")
    )
    run(dep, database.load(), "bench-htap-load")
    engine.create_table(
        "vaudit",
        Schema([Column("k", INT()), Column("grp", INT()),
                Column("val", INT())]),
        ["k"],
    )
    dep.fleet.sync_catalogs()
    districts = [
        (w_id, d_id)
        for w_id in range(1, CONFIG.warehouses + 1)
        for d_id in range(1, CONFIG.districts_per_warehouse + 1)
    ]
    floor = {}
    for key in districts:
        row = run(dep, engine.read_row(None, "district", key))
        floor[key] = (row[6], row[7])
    proxy = dep.frontend
    preload_lsn = engine.log.persistent_lsn
    terminals = make_terminals(
        database, dep.seeds, TPCC_SESSIONS, "bench-htap-terminal"
    )

    def session(name):
        opened = proxy.session(name)
        opened.note_commit_lsn(preload_lsn)
        return opened

    state = {
        "districts": districts,
        "floor": floor,
        "tpcc": [
            (session("bench-htap-tpcc-%d" % i), client)
            for i, client in enumerate(terminals)
        ],
        "audit": [
            (session("bench-htap-audit-%d" % i),
             dep.seeds.stream("bench-htap-audit-%d" % i),
             {"next": 0, "count": {}, "total": {}})
            for i in range(AUDIT_SESSIONS)
        ],
        "analysts": [
            session("bench-htap-analyst-%d" % i)
            for i in range(ANALYST_SESSIONS)
        ],
    }
    _phase(dep, state, WARMUP_S)
    return state


def window(dep, state, quick: bool) -> Outcome:
    tallies, virtual_s = _phase(
        dep, state, QUICK_WINDOW_S if quick else WINDOW_S
    )
    latencies = []
    for tally in tallies:
        latencies.extend(tally.latencies)
    failed = sum(t.failed for t in tallies)
    state["stale"] = [line for t in tallies for line in t.stale]
    return Outcome(
        ops=len(latencies) - failed,
        attempted=len(latencies),
        failed=failed,
        virtual_s=virtual_s,
        latencies=latencies,
        digest={
            "per_session": [len(t.latencies) for t in tallies],
            "persistent_lsn": dep.engine.log.persistent_lsn,
            "views_served": dep.frontend.views_served,
        },
    )


def check(dep, state, outcome: Outcome):
    errors = list(state["stale"][:5])
    if len(state["stale"]) > 5:
        errors.append("... %d stale reads in all" % len(state["stale"]))
    errors.extend(consistency_errors(dep, CONFIG))
    return errors
