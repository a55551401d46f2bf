"""sysbench_ebp: sysbench RW over a working set 3x the buffer pool."""

from __future__ import annotations

from repro import DeploymentSpec
from repro.common import KB
from repro.sim.metrics import LatencyRecorder
from repro.workloads.sysbench import (
    SysbenchClient,
    SysbenchConfig,
    SysbenchDatabase,
)

from .base import Outcome, drive, run

NAME = "sysbench_ebp"
OP = "statement"
LOOP = "closed loop, 16 clients, no think time"

CLIENTS = 16
#: Table III scaled: 18 000 rows ~ 225 pages against 72 BP + 216 EBP pages.
CONFIG = SysbenchConfig(rows=18000)
QUICK_CONFIG = SysbenchConfig(rows=4500)
STATEMENTS_PER_EVENT = (
    CONFIG.point_selects + CONFIG.range_scans + CONFIG.index_updates
)
BP_PAGES, EBP_PAGES = 72, 216
QUICK_BP_PAGES, QUICK_EBP_PAGES = 18, 54
PAGE = 16 * KB
WARMUP_S = 0.05                # virtual: fills BP and EBP
WINDOW_S = 0.25                # virtual
QUICK_WINDOW_S = 0.03
#: p99 here rides on the ~22 events of a window that queued behind several
#: PageStore reads and moves 21 % from seed to seed; p95 moves 3 %.
TAIL_CAP = 95


def build_spec(seed: int, quick: bool) -> DeploymentSpec:
    # --quick shrinks data and pools together, keeping the 3x ratio.
    bp, ebp = (
        (QUICK_BP_PAGES, QUICK_EBP_PAGES) if quick else (BP_PAGES, EBP_PAGES)
    )
    return (
        DeploymentSpec.astore_ebp(seed=seed)
        .with_engine(cores=16, buffer_pool_bytes=bp * PAGE)
        .with_ebp(ebp * PAGE, segment_bytes=16 * PAGE)
    )


def setup(dep, quick: bool):
    database = SysbenchDatabase(
        dep.engine, QUICK_CONFIG if quick else CONFIG
    )
    run(dep, database.load(), "bench-sysbench-load")
    clients = [
        SysbenchClient(database, dep.seeds.stream("bench-sysbench-%d" % i))
        for i in range(CLIENTS)
    ]
    drive(dep, [c.run_for(WARMUP_S) for c in clients])
    return clients


def window(dep, clients, quick: bool) -> Outcome:
    operations = sum(c.operations for c in clients)
    aborted = sum(c.aborted for c in clients)
    committed = dep.engine.committed
    for client in clients:
        client.latencies = LatencyRecorder()
    duration = QUICK_WINDOW_S if quick else WINDOW_S
    virtual_s = drive(dep, [c.run_for(duration) for c in clients])
    operations = sum(c.operations for c in clients) - operations
    aborted = sum(c.aborted for c in clients) - aborted
    latencies = []
    for client in clients:
        latencies.extend(client.latencies.samples)
    return Outcome(
        ops=operations,
        attempted=operations + aborted * STATEMENTS_PER_EVENT,
        failed=aborted * STATEMENTS_PER_EVENT,
        virtual_s=virtual_s,
        # One sample per sysbench event (a 7-statement transaction), as
        # sysbench itself reports latency.
        latencies=latencies,
        tail_cap=TAIL_CAP,
        digest={
            "per_client": [c.operations for c in clients],
            "engine_commits": dep.engine.committed - committed,
            "persistent_lsn": dep.engine.log.persistent_lsn,
        },
    )


def check(dep, clients, outcome: Outcome):
    errors = []
    config = clients[0].db.config
    rows = dep.engine.catalog.table("sbtest").row_count
    if rows != config.rows:
        errors.append("sbtest has %d rows, loaded %d" % (rows, config.rows))
    events = len(outcome.latencies)
    if outcome.digest["engine_commits"] != events:
        errors.append(
            "engine committed %d transactions, clients completed %d events"
            % (outcome.digest["engine_commits"], events)
        )
    if outcome.ops != events * STATEMENTS_PER_EVENT:
        errors.append(
            "clients report %d statements for %d events"
            % (outcome.ops, events)
        )
    return errors
