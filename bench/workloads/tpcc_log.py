"""tpcc_log: TPC-C on the AStore log-acceleration path (paper Fig 6/7)."""

from __future__ import annotations

from repro import DeploymentSpec
from repro.sim.metrics import LatencyRecorder
from repro.workloads.tpcc import TpccClient, TpccConfig, TpccDatabase

from .base import Outcome, drive, run

NAME = "tpcc_log"
OP = "committed transaction"
LOOP = "closed loop, 8 terminals, no think time"

TERMINALS = 8
CONFIG = TpccConfig()          # 2 warehouses x 10 districts x 30 customers
WARMUP_S = 0.05                # virtual
WINDOW_S = 0.25                # virtual, >= 1 500 transactions
QUICK_WINDOW_S = 0.03

#: The standard mix.  Delivery runs from terminal 0 only, as the spec's
#: deferred-execution queue does: two Deliveries picking the same oldest
#: new-order is the one abort this workload could produce, and a benchmark
#: whose failure count moves with timing cannot show that a change broke
#: nothing.  terminal_mix() keeps the global shares at 45/43/4/4/4.
MIX = (("new_order", 0.45), ("payment", 0.43), ("order_status", 0.04),
       ("stock_level", 0.04))
DELIVERY_SHARE = 0.04


def build_spec(seed: int, quick: bool) -> DeploymentSpec:
    return DeploymentSpec.astore_pq(seed=seed)


def terminal_mix(index: int, terminals: int):
    """Transaction weights for terminal ``index`` of ``terminals``."""
    delivery = DELIVERY_SHARE * terminals if index == 0 else 0.0
    scale = (1.0 - delivery) / (1.0 - DELIVERY_SHARE)
    return tuple((name, weight * scale) for name, weight in MIX) + (
        ("delivery", delivery),
    )


def make_terminals(database, seeds, count: int, tag: str):
    """``count`` TPC-C terminals, Delivery on terminal 0 only."""
    terminals = []
    for index in range(count):
        client = TpccClient(database, seeds.stream("%s-%d" % (tag, index)))
        client.MIX = terminal_mix(index, count)
        terminals.append(client)
    return terminals


def setup(dep, quick: bool):
    database = TpccDatabase(
        dep.engine, CONFIG, dep.seeds.stream("bench-tpcc-load")
    )
    run(dep, database.load(), "bench-tpcc-load")
    terminals = make_terminals(
        database, dep.seeds, TERMINALS, "bench-tpcc-terminal"
    )
    drive(dep, [t.run_for(WARMUP_S) for t in terminals])
    return terminals


def window(dep, terminals, quick: bool) -> Outcome:
    committed = sum(t.committed for t in terminals)
    aborted = sum(t.aborted for t in terminals)
    for terminal in terminals:
        terminal.latencies = LatencyRecorder()
    duration = QUICK_WINDOW_S if quick else WINDOW_S
    virtual_s = drive(dep, [t.run_for(duration) for t in terminals])
    committed = sum(t.committed for t in terminals) - committed
    aborted = sum(t.aborted for t in terminals) - aborted
    latencies = []
    for terminal in terminals:
        latencies.extend(terminal.latencies.samples)
    return Outcome(
        ops=committed,
        attempted=committed + aborted,
        failed=aborted,
        virtual_s=virtual_s,
        latencies=latencies,
        digest={
            "per_terminal": [t.committed for t in terminals],
            "persistent_lsn": dep.engine.log.persistent_lsn,
        },
    )


def consistency_errors(dep, config: TpccConfig):
    """TPC-C consistency conditions 1-3 over the whole database."""
    engine = dep.engine
    orders = engine.catalog.table("orders")
    new_order = engine.catalog.table("new_order")
    errors = []
    for w_id in range(1, config.warehouses + 1):
        warehouse = run(dep, engine.read_row(None, "warehouse", (w_id,)))
        d_ytd = 0.0
        for d_id in range(1, config.districts_per_warehouse + 1):
            district = run(
                dep, engine.read_row(None, "district", (w_id, d_id))
            )
            d_ytd += district[6]
            max_o = max(
                (key[2] for key, _loc in orders.pk_index.range(
                    (w_id, d_id), (w_id, d_id + 1))),
                default=0,
            )
            if district[7] != max_o + 1:
                errors.append(
                    "district (%d,%d): d_next_o_id %d != max(o_id)+1 %d"
                    % (w_id, d_id, district[7], max_o + 1)
                )
            pending = [
                key[2] for key, _loc in new_order.pk_index.range(
                    (w_id, d_id), (w_id, d_id + 1))
            ]
            if pending and max(pending) - min(pending) + 1 != len(pending):
                errors.append(
                    "district (%d,%d): new_order ids not contiguous"
                    % (w_id, d_id)
                )
        if abs(warehouse[7] - d_ytd) > 0.01:
            errors.append(
                "warehouse %d: w_ytd %.2f != sum(d_ytd) %.2f"
                % (w_id, warehouse[7], d_ytd)
            )
    return errors


def check(dep, terminals, outcome: Outcome):
    errors = consistency_errors(dep, CONFIG)
    if not outcome.ops:
        errors.append("no transaction committed")
    return errors
