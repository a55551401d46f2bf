"""TPC-C workload: schema, loader, the five transactions, and drivers.

A faithful (scaled-down) TPC-C implementation against the DBEngine API:
standard transaction mix (45/43/4/4/4), NURand key skew, per-district order
streams, and the consistency conditions used by the test suite (W_YTD =
sum(D_YTD), order/new-order counts, etc.).

Scaling: ``TpccConfig`` controls warehouses, customers per district, and
item counts, so simulations stay tractable while preserving the contention
structure (district hot rows, stock updates, warehouse YTD) that drives the
paper's Figures 6-7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..common import QueryError, TransactionAborted
from ..engine.codec import DECIMAL, INT, VARCHAR, Column, Schema
from ..engine.dbengine import DBEngine
from ..sim.metrics import LatencyRecorder, ThroughputMeter
from ..sim.rand import Rng, nurand

__all__ = [
    "TpccConfig",
    "TpccDatabase",
    "TpccClient",
    "run_tpcc",
    "run_tpcc_sharded",
    "register_tpcc_sharding",
    "tpcc_terminals",
]


@dataclass
class TpccConfig:
    warehouses: int = 2
    districts_per_warehouse: int = 10
    customers_per_district: int = 30
    items: int = 200
    #: Pre-loaded orders per district (TPC-C loads 3,000; scaled runs use
    #: less).  Needed for the CH-benCHmark's analytic queries.
    initial_orders_per_district: int = 0
    #: Fraction of string filler retained (1.0 = spec-size padding).
    string_scale: float = 0.25
    #: Probability that a NewOrder line is supplied by a *remote*
    #: warehouse (the spec uses 1%).  On a sharded deployment with
    #: warehouse->shard affinity this turns NewOrder into a cross-shard
    #: two-phase commit.
    remote_item_prob: float = 0.0

    def filler(self, spec_len: int) -> str:
        return "x" * max(4, int(spec_len * self.string_scale))


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


def define_schema(engine: DBEngine, config: TpccConfig) -> None:
    """Create the nine TPC-C tables with their standard keys."""
    f = config.filler
    engine.create_table(
        "warehouse",
        Schema(
            [
                Column("w_id", INT()),
                Column("w_name", VARCHAR(10)),
                Column("w_street", VARCHAR(40)),
                Column("w_city", VARCHAR(20)),
                Column("w_state", VARCHAR(2)),
                Column("w_zip", VARCHAR(9)),
                Column("w_tax", DECIMAL(4)),
                Column("w_ytd", DECIMAL(2)),
            ]
        ),
        ["w_id"],
    )
    engine.create_table(
        "district",
        Schema(
            [
                Column("d_w_id", INT()),
                Column("d_id", INT()),
                Column("d_name", VARCHAR(10)),
                Column("d_street", VARCHAR(40)),
                Column("d_city", VARCHAR(20)),
                Column("d_tax", DECIMAL(4)),
                Column("d_ytd", DECIMAL(2)),
                Column("d_next_o_id", INT()),
            ]
        ),
        ["d_w_id", "d_id"],
    )
    customer = engine.create_table(
        "customer",
        Schema(
            [
                Column("c_w_id", INT()),
                Column("c_d_id", INT()),
                Column("c_id", INT()),
                Column("c_first", VARCHAR(16)),
                Column("c_last", VARCHAR(16)),
                Column("c_credit", VARCHAR(2)),
                Column("c_credit_lim", DECIMAL(2)),
                Column("c_discount", DECIMAL(4)),
                Column("c_balance", DECIMAL(2)),
                Column("c_ytd_payment", DECIMAL(2)),
                Column("c_payment_cnt", INT()),
                Column("c_delivery_cnt", INT()),
                Column("c_data", VARCHAR(250)),
            ]
        ),
        ["c_w_id", "c_d_id", "c_id"],
    )
    customer.add_secondary_index("c_last_idx", ["c_w_id", "c_d_id", "c_last"])
    engine.create_table(
        "history",
        Schema(
            [
                Column("h_id", INT()),
                Column("h_c_w_id", INT()),
                Column("h_c_d_id", INT()),
                Column("h_c_id", INT()),
                Column("h_amount", DECIMAL(2)),
                Column("h_data", VARCHAR(24)),
            ]
        ),
        ["h_id"],
    )
    orders = engine.create_table(
        "orders",
        Schema(
            [
                Column("o_w_id", INT()),
                Column("o_d_id", INT()),
                Column("o_id", INT()),
                Column("o_c_id", INT()),
                Column("o_carrier_id", INT(), nullable=True),
                Column("o_ol_cnt", INT()),
                Column("o_all_local", INT()),
                Column("o_entry_d", INT()),
            ]
        ),
        ["o_w_id", "o_d_id", "o_id"],
    )
    orders.add_secondary_index("o_cust_idx", ["o_w_id", "o_d_id", "o_c_id"])
    engine.create_table(
        "new_order",
        Schema(
            [
                Column("no_w_id", INT()),
                Column("no_d_id", INT()),
                Column("no_o_id", INT()),
            ]
        ),
        ["no_w_id", "no_d_id", "no_o_id"],
    )
    engine.create_table(
        "order_line",
        Schema(
            [
                Column("ol_w_id", INT()),
                Column("ol_d_id", INT()),
                Column("ol_o_id", INT()),
                Column("ol_number", INT()),
                Column("ol_i_id", INT()),
                Column("ol_supply_w_id", INT()),
                Column("ol_quantity", INT()),
                Column("ol_amount", DECIMAL(2)),
                Column("ol_delivery_d", INT(), nullable=True),
                Column("ol_dist_info", VARCHAR(24)),
            ]
        ),
        ["ol_w_id", "ol_d_id", "ol_o_id", "ol_number"],
    )
    engine.create_table(
        "item",
        Schema(
            [
                Column("i_id", INT()),
                Column("i_name", VARCHAR(24)),
                Column("i_price", DECIMAL(2)),
                Column("i_data", VARCHAR(50)),
            ]
        ),
        ["i_id"],
    )
    engine.create_table(
        "stock",
        Schema(
            [
                Column("s_w_id", INT()),
                Column("s_i_id", INT()),
                Column("s_quantity", INT()),
                Column("s_ytd", DECIMAL(2)),
                Column("s_order_cnt", INT()),
                Column("s_remote_cnt", INT()),
                Column("s_data", VARCHAR(50)),
            ]
        ),
        ["s_w_id", "s_i_id"],
    )


class TpccDatabase:
    """Loader + shared counters for one TPC-C database instance."""

    def __init__(self, engine: DBEngine, config: TpccConfig, rng: Rng):
        self.engine = engine
        self.config = config
        self.rng = rng
        self._history_id = 0
        define_schema(engine, config)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self):
        """Generator: populate all tables at the configured scale."""
        engine, config, rng = self.engine, self.config, self.rng
        f = config.filler
        txn = engine.begin()
        statements = 0

        def maybe_commit():
            # Commit in chunks to bound txn size.
            return statements % 400 == 399

        for i_id in range(1, config.items + 1):
            yield from engine.insert(
                txn,
                "item",
                [i_id, "item-%d" % i_id, 1.0 + (i_id % 100), f(50)],
            )
            statements += 1
            if maybe_commit():
                yield from engine.commit(txn)
                txn = engine.begin()
        for w_id in range(1, config.warehouses + 1):
            yield from engine.insert(
                txn,
                "warehouse",
                [w_id, "W%d" % w_id, f(40), f(20), "CA", "900000000", 0.05, 0.0],
            )
            statements += 1
            for i_id in range(1, config.items + 1):
                yield from engine.insert(
                    txn,
                    "stock",
                    [w_id, i_id, 50 + (i_id % 50), 0.0, 0, 0, f(50)],
                )
                statements += 1
                if maybe_commit():
                    yield from engine.commit(txn)
                    txn = engine.begin()
            for d_id in range(1, config.districts_per_warehouse + 1):
                yield from engine.insert(
                    txn,
                    "district",
                    [w_id, d_id, "D%d" % d_id, f(40), f(20), 0.08, 0.0, 1],
                )
                statements += 1
                for c_id in range(1, config.customers_per_district + 1):
                    yield from engine.insert(
                        txn,
                        "customer",
                        [
                            w_id,
                            d_id,
                            c_id,
                            "First%d" % c_id,
                            _c_last(c_id - 1),
                            "GC" if rng.random() < 0.9 else "BC",
                            50000.0,
                            0.01 * (c_id % 50),
                            -10.0,
                            10.0,
                            1,
                            0,
                            f(250),
                        ],
                    )
                    statements += 1
                    if maybe_commit():
                        yield from engine.commit(txn)
                        txn = engine.begin()
                for o_id in range(1, config.initial_orders_per_district + 1):
                    c_id = 1 + (o_id * 7) % config.customers_per_district
                    ol_cnt = 5 + (o_id % 6)
                    delivered = o_id <= config.initial_orders_per_district * 7 // 10
                    yield from engine.insert(
                        txn,
                        "orders",
                        [w_id, d_id, o_id, c_id,
                         (o_id % 10) + 1 if delivered else None,
                         ol_cnt, 1, 0],
                    )
                    if not delivered:
                        yield from engine.insert(
                            txn, "new_order", [w_id, d_id, o_id]
                        )
                    for number in range(1, ol_cnt + 1):
                        i_id = 1 + (o_id * 13 + number * 17) % config.items
                        yield from engine.insert(
                            txn,
                            "order_line",
                            [w_id, d_id, o_id, number, i_id, w_id,
                             1 + (o_id + number) % 10,
                             round(1.0 + ((o_id * number) % 9000) / 100.0, 2),
                             0 if delivered else None,
                             f(24)],
                        )
                        statements += 1
                        if maybe_commit():
                            yield from engine.commit(txn)
                            txn = engine.begin()
                # Keep d_next_o_id consistent with the pre-loaded orders.
                if config.initial_orders_per_district:
                    yield from engine.update(
                        txn,
                        "district",
                        (w_id, d_id),
                        {"d_next_o_id": config.initial_orders_per_district + 1},
                    )
        yield from engine.commit(txn)

    def next_history_id(self) -> int:
        self._history_id += 1
        return self._history_id


_SYLLABLES = ("BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY",
              "ATION", "EING")


def _c_last(number: int) -> str:
    """TPC-C customer last-name syllable encoding."""
    return (
        _SYLLABLES[(number // 100) % 10]
        + _SYLLABLES[(number // 10) % 10]
        + _SYLLABLES[number % 10]
    )


class TpccClient:
    """One terminal: issues transactions with the standard mix."""

    MIX = (
        ("new_order", 0.45),
        ("payment", 0.43),
        ("order_status", 0.04),
        ("delivery", 0.04),
        ("stock_level", 0.04),
    )

    #: Retry backoff when an abort consumed no virtual time (the home
    #: shard is down and rejects at the first statement); keeps retry
    #: loops from spinning at a frozen clock.  Healthy transactions
    #: always advance the clock, so this never fires for them.
    ABORT_BACKOFF = 0.005

    def __init__(self, database: TpccDatabase, rng: Rng,
                 home_warehouse: Optional[int] = None,
                 engine=None):
        self.db = database
        # Sharded drivers hand each terminal its own CoordinatorSession
        # (pinned to the home warehouse's shard) while sharing one
        # database object for the schema and the history-id counter.
        self.engine = engine if engine is not None else database.engine
        self.config = database.config
        self.rng = rng
        self.home_warehouse = home_warehouse
        self.latencies = LatencyRecorder()
        self.per_type: Dict[str, LatencyRecorder] = {
            name: LatencyRecorder(name) for name, _ in self.MIX
        }
        self.committed = 0
        self.aborted = 0
        # Client-side ledger of *committed* effects, used by the chaos
        # soak to audit durability: sums/counts move from the pending
        # slot into these dicts only after commit() returns.
        self.committed_payments: Dict[Tuple[int, int], float] = {}
        self.committed_new_orders: Dict[Tuple[int, int], int] = {}
        # In-doubt 2PC outcomes: the coordinator durably decided commit
        # but the client saw the crash before phase 2 finished.  The
        # effect lands after recovery, so the audit treats these as
        # "maybe applied" (committed <= actual <= committed + maybe).
        self.maybe_payments: Dict[Tuple[int, int], float] = {}
        self.maybe_new_orders: Dict[Tuple[int, int], int] = {}
        self.in_doubt = 0
        self._pending_effect: Optional[Tuple] = None

    # -- key pickers ---------------------------------------------------------
    def _warehouse(self) -> int:
        if self.home_warehouse is not None:
            return self.home_warehouse
        return self.rng.randint(1, self.config.warehouses)

    def _district(self) -> int:
        return self.rng.randint(1, self.config.districts_per_warehouse)

    def _customer(self) -> int:
        return nurand(self.rng, 1023, 1, self.config.customers_per_district, 259)

    def _item(self) -> int:
        return nurand(self.rng, 8191, 1, self.config.items, 7911)

    def _pick_type(self) -> str:
        draw = self.rng.random()
        acc = 0.0
        for name, weight in self.MIX:
            acc += weight
            if draw < acc:
                return name
        return self.MIX[-1][0]

    # -- driver ----------------------------------------------------------------
    def run_one(self):
        """Generator: run one transaction of the standard mix.

        Returns (type, latency) for committed work; aborts are retried
        against the mix (counted, not re-run).
        """
        kind = self._pick_type()
        start = self.engine.env.now
        txn = self.engine.begin()
        self._pending_effect = None
        try:
            yield from getattr(self, "txn_" + kind)(txn)
            yield from self.engine.commit(txn)
        except (TransactionAborted, QueryError):
            # Deadlock victim, lock timeout, or a lost race (e.g. two
            # Delivery transactions picking the same oldest new-order).
            # A distributed txn whose commit decision was already
            # durable ("decided") surfaces here as InDoubtTransaction;
            # its effect will apply at recovery, so keep it in the
            # maybe ledger instead of dropping it.
            decided = getattr(txn, "status", None) in ("decided", "committed")
            yield from self.engine.rollback(txn)
            if decided:
                self.in_doubt += 1
                self._apply_effect(self.maybe_payments, self.maybe_new_orders)
            self.aborted += 1
            self._pending_effect = None
            if self.engine.env.now == start:
                yield self.engine.env.timeout(self.ABORT_BACKOFF)
            return (kind, None)
        self._apply_committed_effect()
        latency = self.engine.env.now - start
        self.latencies.record(latency)
        self.per_type[kind].record(latency)
        self.committed += 1
        return (kind, latency)

    def _apply_committed_effect(self) -> None:
        self._apply_effect(self.committed_payments, self.committed_new_orders)

    def _apply_effect(self, payments, new_orders) -> None:
        effect = self._pending_effect
        self._pending_effect = None
        if effect is None:
            return
        if effect[0] == "payment":
            _, w_id, d_id, amount = effect
            key = (w_id, d_id)
            payments[key] = round(payments.get(key, 0.0) + amount, 2)
        elif effect[0] == "new_order":
            _, w_id, d_id = effect
            key = (w_id, d_id)
            new_orders[key] = new_orders.get(key, 0) + 1

    def run_for(self, duration: float, meter: Optional[ThroughputMeter] = None):
        """Generator: issue transactions back to back until the deadline."""
        deadline = self.engine.env.now + duration
        while self.engine.env.now < deadline:
            kind, latency = yield from self.run_one()
            if meter is not None and latency is not None:
                meter.record(self.engine.env.now)

    # ------------------------------------------------------------------
    # The five transactions
    # ------------------------------------------------------------------
    def txn_new_order(self, txn):
        engine, rng = self.engine, self.rng
        w_id, d_id, c_id = self._warehouse(), self._district(), self._customer()
        # Pick the order lines up front and lock stock rows in sorted item
        # order - the standard TPC-C implementation trick that keeps stock
        # updates deadlock-free.  Duplicates collapse, so ol_cnt may be
        # slightly below the 5-15 draw.
        item_ids = sorted({self._item() for _ in range(rng.randint(5, 15))})
        ol_cnt = len(item_ids)
        # Draw supply warehouses up front so all_local is known before
        # the orders insert.  The draw order follows the sorted item
        # list, keeping same-seed runs deterministic.
        supply = {}
        for i_id in item_ids:
            supply_w = w_id
            if (
                self.config.remote_item_prob > 0.0
                and self.config.warehouses > 1
                and rng.random() < self.config.remote_item_prob
            ):
                supply_w = rng.randint(1, self.config.warehouses - 1)
                if supply_w >= w_id:
                    supply_w += 1
            supply[i_id] = supply_w
        all_local = 1 if all(s == w_id for s in supply.values()) else 0
        warehouse = yield from engine.read_row(txn, "warehouse", (w_id,))
        district = yield from engine.read_row(
            txn, "district", (w_id, d_id), for_update=True
        )
        o_id = district[7]  # d_next_o_id
        yield from engine.update(
            txn, "district", (w_id, d_id), {"d_next_o_id": o_id + 1}
        )
        customer = yield from engine.read_row(txn, "customer", (w_id, d_id, c_id))
        yield from engine.insert(
            txn,
            "orders",
            [w_id, d_id, o_id, c_id, None, ol_cnt, all_local, int(engine.env.now)],
        )
        yield from engine.insert(txn, "new_order", [w_id, d_id, o_id])
        for number, i_id in enumerate(item_ids, start=1):
            supply_w = supply[i_id]
            item = yield from engine.read_row(txn, "item", (i_id,))
            stock = yield from engine.read_row(
                txn, "stock", (supply_w, i_id), for_update=True
            )
            quantity = rng.randint(1, 10)
            new_qty = stock[2] - quantity
            if new_qty < 10:
                new_qty += 91
            yield from engine.update(
                txn,
                "stock",
                (supply_w, i_id),
                {
                    "s_quantity": new_qty,
                    "s_ytd": stock[3] + quantity,
                    "s_order_cnt": stock[4] + 1,
                },
            )
            amount = quantity * item[2]
            yield from engine.insert(
                txn,
                "order_line",
                [
                    w_id, d_id, o_id, number, i_id, supply_w, quantity,
                    amount, None, self.config.filler(24),
                ],
            )
        self._pending_effect = ("new_order", w_id, d_id)

    def txn_payment(self, txn):
        engine, rng = self.engine, self.rng
        w_id, d_id, c_id = self._warehouse(), self._district(), self._customer()
        amount = 1.0 + round(rng.random() * 4999.0, 2)
        warehouse = yield from engine.read_row(
            txn, "warehouse", (w_id,), for_update=True
        )
        yield from engine.update(
            txn, "warehouse", (w_id,), {"w_ytd": round(warehouse[7] + amount, 2)}
        )
        district = yield from engine.read_row(
            txn, "district", (w_id, d_id), for_update=True
        )
        yield from engine.update(
            txn, "district", (w_id, d_id), {"d_ytd": round(district[6] + amount, 2)}
        )
        customer = yield from engine.read_row(
            txn, "customer", (w_id, d_id, c_id), for_update=True
        )
        yield from engine.update(
            txn,
            "customer",
            (w_id, d_id, c_id),
            {
                "c_balance": round(customer[8] - amount, 2),
                "c_ytd_payment": round(customer[9] + amount, 2),
                "c_payment_cnt": customer[10] + 1,
            },
        )
        yield from engine.insert(
            txn,
            "history",
            [self.db.next_history_id() * 10000 + w_id, w_id, d_id, c_id,
             amount, self.config.filler(24)],
        )
        self._pending_effect = ("payment", w_id, d_id, amount)

    def txn_order_status(self, txn):
        engine = self.engine
        w_id, d_id, c_id = self._warehouse(), self._district(), self._customer()
        customer = yield from engine.read_row(txn, "customer", (w_id, d_id, c_id))
        orders = engine.catalog.table("orders")
        last_order_id = None
        for _key, _loc in orders.lookup_secondary(
            "o_cust_idx", (w_id, d_id, c_id)
        ):
            last_order_id = _key[-1]  # PK suffix: (o_w_id, o_d_id, o_id)
        if last_order_id is None:
            return
        order = yield from engine.read_row(
            txn, "orders", (w_id, d_id, last_order_id)
        )
        for number in range(1, order[5] + 1):
            yield from engine.read_row(
                txn, "order_line", (w_id, d_id, last_order_id, number)
            )

    def txn_delivery(self, txn):
        engine = self.engine
        w_id = self._warehouse()
        carrier = self.rng.randint(1, 10)
        new_order = engine.catalog.table("new_order")
        for d_id in range(1, self.config.districts_per_warehouse + 1):
            oldest = None
            for key, _loc in new_order.pk_index.range(
                (w_id, d_id), (w_id, d_id + 1)
            ):
                oldest = key[2]
                break
            if oldest is None:
                continue
            yield from engine.delete(txn, "new_order", (w_id, d_id, oldest))
            order = yield from engine.read_row(
                txn, "orders", (w_id, d_id, oldest), for_update=True
            )
            yield from engine.update(
                txn, "orders", (w_id, d_id, oldest), {"o_carrier_id": carrier}
            )
            total = 0.0
            for number in range(1, order[5] + 1):
                line = yield from engine.read_row(
                    txn, "order_line", (w_id, d_id, oldest, number)
                )
                total += line[7]
                yield from engine.update(
                    txn,
                    "order_line",
                    (w_id, d_id, oldest, number),
                    {"ol_delivery_d": int(engine.env.now)},
                )
            c_id = order[3]
            customer = yield from engine.read_row(
                txn, "customer", (w_id, d_id, c_id), for_update=True
            )
            yield from engine.update(
                txn,
                "customer",
                (w_id, d_id, c_id),
                {
                    "c_balance": round(customer[8] + total, 2),
                    "c_delivery_cnt": customer[11] + 1,
                },
            )

    def txn_stock_level(self, txn):
        engine = self.engine
        w_id, d_id = self._warehouse(), self._district()
        threshold = self.rng.randint(10, 20)
        district = yield from engine.read_row(txn, "district", (w_id, d_id))
        next_o_id = district[7]
        order_line = engine.catalog.table("order_line")
        item_ids = set()
        low = (w_id, d_id, max(1, next_o_id - 20), 0)
        high = (w_id, d_id, next_o_id, 0)
        for key, locator in list(order_line.pk_index.range(low, high)):
            page_no, slot = locator
            page = yield from engine.fetch_page(order_line.page_id(page_no))
            try:
                values = order_line.schema.decode(page.get(slot))
            except KeyError:
                continue
            item_ids.add(values[4])
        low_count = 0
        for i_id in sorted(item_ids):
            stock = yield from engine.read_row(txn, "stock", (w_id, i_id))
            if stock is not None and stock[2] < threshold:
                low_count += 1
        return low_count


def run_tpcc(
    deployment,
    config: TpccConfig,
    clients: int,
    duration: float,
    warmup: float = 0.0,
    seed_tag: str = "tpcc",
):
    """Load TPC-C and drive ``clients`` terminals for ``duration`` seconds.

    Returns (throughput_tps, aggregate LatencyRecorder, clients list).
    """
    engine = deployment.engine
    seeds = deployment.seeds
    database = TpccDatabase(engine, config, seeds.stream("%s-load" % seed_tag))
    load = deployment.env.process(database.load())
    deployment.run_until(load)
    terminals = tpcc_terminals(
        deployment, database, clients, seed_tag + "-client-%d")
    throughput, aggregate = _drive_terminals(deployment, terminals, duration, warmup)
    return throughput, aggregate, terminals


def tpcc_terminals(dep, database, count: int, stream: str) -> List[TpccClient]:
    """``count`` terminals seeded from ``stream % index``.  Over a
    database loaded through the coordinator (every sharded deployment,
    and :func:`run_tpcc_sharded` on one shard) terminal ``i`` is homed on
    warehouse ``i % warehouses + 1`` through a session on that
    warehouse's shard; over the primary's engine it roams."""
    terminals = []
    for index in range(count):
        rng = dep.seeds.stream(stream % index)
        if database.engine is dep.engine:
            terminals.append(TpccClient(database, rng))
            continue
        w_id = index % database.config.warehouses + 1
        home = dep.shardmap.read_shard_of("warehouse", (w_id,))
        terminals.append(TpccClient(
            database, rng, home_warehouse=w_id, engine=dep.shard_session(home)
        ))
    return terminals


def _drive_terminals(deployment, terminals, duration: float, warmup: float):
    """Drive loaded terminals concurrently; returns (tps, aggregate)."""
    meter = ThroughputMeter()

    def drive(client):
        if warmup > 0:
            yield from client.run_for(warmup)
        client.latencies = LatencyRecorder()
        for recorder in client.per_type.values():
            del recorder.samples[:]
        meter.start(deployment.env.now)
        yield from client.run_for(duration, meter)

    procs = [deployment.env.process(drive(t)) for t in terminals]
    from ..sim.core import AllOf

    deployment.run_until(AllOf(deployment.env, procs))
    throughput = meter.completed / duration if duration > 0 else 0.0
    aggregate = LatencyRecorder()
    for terminal in terminals:
        aggregate.samples.extend(terminal.latencies.samples)
    return throughput, aggregate


# ---------------------------------------------------------------------------
# Sharded TPC-C
# ---------------------------------------------------------------------------


def register_tpcc_sharding(shardmap) -> None:
    """Partition the TPC-C schema by warehouse on ``shardmap``.

    Every warehouse-keyed table shards on its leading warehouse column;
    ``history`` packs the warehouse into the low digits of ``h_id``;
    the read-only ``item`` table is replicated to every shard so
    NewOrder's item lookups stay local.
    """
    from ..shard import ShardKeySpec

    for table in (
        "warehouse",
        "district",
        "customer",
        "orders",
        "new_order",
        "order_line",
        "stock",
    ):
        shardmap.set_table(table, ShardKeySpec(column_pos=0))
    shardmap.set_table(
        "history", ShardKeySpec(extractor=lambda key: key[0] % 10000)
    )
    shardmap.set_replicated("item")


def run_tpcc_sharded(
    deployment,
    config: TpccConfig,
    clients: int,
    duration: float,
    warmup: float = 0.0,
    seed_tag: str = "tpcc",
    after_load: Optional[Dict[str, int]] = None,
):
    """Run TPC-C against a sharded deployment.

    Terminals pin to home warehouses round-robin and run over a
    CoordinatorSession homed on that warehouse's shard, so the five
    transactions stay single-shard except for NewOrder lines drawn
    remote via ``config.remote_item_prob`` (those commit through 2PC).
    Returns (throughput_tps, aggregate LatencyRecorder, clients list).

    ``after_load``, when given a dict, is filled with a snapshot of the
    coordinator counters taken between load and drive: the load itself
    broadcast-inserts replicated tables (a legitimate cross-shard
    write), so workload-attributable 2PC traffic is the delta from this
    snapshot, not the raw counter.
    """
    seeds = deployment.seeds
    register_tpcc_sharding(deployment.shardmap)
    database = TpccDatabase(
        deployment.shard_session(home=0),
        config,
        seeds.stream("%s-load" % seed_tag),
    )
    load = deployment.env.process(database.load())
    deployment.run_until(load)
    if after_load is not None:
        after_load.update(deployment.coordinator.counters())
    terminals = tpcc_terminals(
        deployment, database, clients, seed_tag + "-client-%d")
    throughput, aggregate = _drive_terminals(deployment, terminals, duration, warmup)
    return throughput, aggregate, terminals
