"""TPC-CH (CH-benCHmark): TPC-C transactions + the 22 analytic queries.

The CH-benCHmark [Cole et al., DBTest'11] runs TPC-C transaction streams
concurrently with 22 TPC-H-derived queries over the combined schema (TPC-C
tables plus SUPPLIER / NATION / REGION).

The queries below are expressed in this library's SQL subset.  Where the
original uses features outside the subset (correlated subqueries, EXISTS,
CASE, HAVING), the query is *approximated* with the same table footprint
and operator shape (scan/filter/join/aggregate structure), which is what
the paper's Figures 10-14 measure.  Approximations are flagged inline.

The paper-relevant structure is preserved exactly:

- Q1, Q6, Q22: single-table scans with aggregation -> fully pushable.
- Q11, Q13, Q15, Q20: selective filters on large scans -> filter pushdown.
- Q16: small two-table join whose working set fits DRAM -> no EBP benefit.
- Q7 and friends: multi-join working sets larger than the buffer pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..engine.codec import DECIMAL, INT, VARCHAR, Column, Schema
from ..engine.dbengine import DBEngine
from ..sim.rand import Rng
from .tpcc import TpccConfig, TpccDatabase

__all__ = ["TpcchConfig", "TpcchDatabase", "CH_QUERIES", "ch_query_sql"]


@dataclass
class TpcchConfig(TpccConfig):
    suppliers: int = 100
    nations: int = 25
    regions: int = 5


class TpcchDatabase(TpccDatabase):
    """TPC-C loader plus the CH-only dimension tables."""

    def __init__(self, engine: DBEngine, config: TpcchConfig, rng: Rng):
        super().__init__(engine, config, rng)
        self.config: TpcchConfig = config
        self._define_ch_tables()

    def _define_ch_tables(self) -> None:
        engine = self.engine
        engine.create_table(
            "supplier",
            Schema(
                [
                    Column("su_suppkey", INT()),
                    Column("su_name", VARCHAR(25)),
                    Column("su_nationkey", INT()),
                    Column("su_acctbal", DECIMAL(2)),
                    Column("su_comment", VARCHAR(100)),
                ]
            ),
            ["su_suppkey"],
        )
        engine.create_table(
            "nation",
            Schema(
                [
                    Column("n_nationkey", INT()),
                    Column("n_name", VARCHAR(25)),
                    Column("n_regionkey", INT()),
                ]
            ),
            ["n_nationkey"],
        )
        engine.create_table(
            "region",
            Schema(
                [
                    Column("r_regionkey", INT()),
                    Column("r_name", VARCHAR(25)),
                ]
            ),
            ["r_regionkey"],
        )

    def load(self):
        yield from super().load()
        engine, config, rng = self.engine, self.config, self.rng
        txn = engine.begin()
        for r_id in range(config.regions):
            yield from engine.insert(txn, "region", [r_id, "REGION%d" % r_id])
        for n_id in range(config.nations):
            yield from engine.insert(
                txn, "nation", [n_id, "NATION%d" % n_id, n_id % config.regions]
            )
        for su_id in range(1, config.suppliers + 1):
            yield from engine.insert(
                txn,
                "supplier",
                [
                    su_id,
                    "Supplier%d" % su_id,
                    su_id % config.nations,
                    1000.0 + su_id,
                    config.filler(100),
                ],
            )
        yield from engine.commit(txn)


def ch_query_sql(query_no: int, config: Optional[TpcchConfig] = None) -> str:
    """The SQL text for CH query ``query_no`` (1-22)."""
    config = config or TpcchConfig()
    sql = CH_QUERIES.get(query_no)
    if sql is None:
        raise KeyError("CH query %d undefined" % query_no)
    return sql(config) if callable(sql) else sql


# Each entry is SQL text or a callable(config) -> SQL text.
CH_QUERIES: Dict[int, object] = {
    # Q1: pricing summary - single-table aggregate (fully pushable).
    1: (
        "SELECT ol_number, sum(ol_quantity) AS sum_qty, "
        "sum(ol_amount) AS sum_amount, avg(ol_quantity) AS avg_qty, "
        "avg(ol_amount) AS avg_amount, count(*) AS count_order "
        "FROM order_line WHERE ol_o_id > 0 "
        "GROUP BY ol_number ORDER BY ol_number"
    ),
    # Q2: cheapest-supplier lookup (approx: min-supplycost subquery dropped).
    2: (
        "SELECT s_i_id, i_name, s_quantity FROM stock "
        "JOIN item ON s_i_id = i_id "
        "WHERE i_data LIKE 'x%' AND s_quantity < 30 "
        "ORDER BY s_i_id LIMIT 100"
    ),
    # Q3: unshipped orders by value.
    3: (
        "SELECT o_id, o_w_id, o_d_id, sum(ol_amount) AS revenue "
        "FROM orders JOIN order_line ON ol_w_id = o_w_id "
        "AND ol_d_id = o_d_id AND ol_o_id = o_id "
        "WHERE o_carrier_id = 0 OR o_id > 0 "
        "GROUP BY o_id, o_w_id, o_d_id ORDER BY revenue DESC LIMIT 10"
    ),
    # Q4: order-priority count (approx: EXISTS folded into the join).
    4: (
        "SELECT o_ol_cnt, count(*) AS order_count FROM orders "
        "JOIN order_line ON ol_w_id = o_w_id AND ol_d_id = o_d_id "
        "AND ol_o_id = o_id "
        "WHERE ol_number = 1 GROUP BY o_ol_cnt ORDER BY o_ol_cnt"
    ),
    # Q5: revenue by nation (region-nation-supplier-stock-order_line chain).
    5: (
        "SELECT n_name, sum(ol_amount) AS revenue "
        "FROM order_line "
        "JOIN stock ON ol_supply_w_id = s_w_id AND ol_i_id = s_i_id "
        "JOIN supplier ON su_suppkey = s_i_id "
        "JOIN nation ON n_nationkey = su_nationkey "
        "GROUP BY n_name ORDER BY revenue DESC"
    ),
    # Q6: forecast revenue change - single-table aggregate (fully pushable).
    6: (
        "SELECT sum(ol_amount) AS revenue FROM order_line "
        "WHERE ol_quantity BETWEEN 1 AND 10"
    ),
    # Q7: bi-nation shipping volume; the big multi-join working set.
    7: (
        "SELECT su_nationkey, c_d_id, sum(ol_amount) AS revenue "
        "FROM order_line "
        "JOIN orders ON o_w_id = ol_w_id AND o_d_id = ol_d_id "
        "AND o_id = ol_o_id "
        "JOIN customer ON c_w_id = o_w_id AND c_d_id = o_d_id "
        "AND c_id = o_c_id "
        "JOIN stock ON s_w_id = ol_supply_w_id AND s_i_id = ol_i_id "
        "JOIN supplier ON su_suppkey = s_i_id "
        "GROUP BY su_nationkey, c_d_id ORDER BY revenue DESC"
    ),
    # Q8: market share (approx).
    8: (
        "SELECT i_id, avg(ol_amount) AS avg_amount FROM item "
        "JOIN order_line ON ol_i_id = i_id "
        "WHERE i_price < 60 GROUP BY i_id ORDER BY i_id LIMIT 50"
    ),
    # Q9: product-type profit by nation (approx).
    9: (
        "SELECT su_nationkey, sum(ol_amount) AS profit FROM order_line "
        "JOIN stock ON s_w_id = ol_supply_w_id AND s_i_id = ol_i_id "
        "JOIN supplier ON su_suppkey = s_i_id "
        "JOIN item ON i_id = ol_i_id "
        "WHERE i_data LIKE 'x%' "
        "GROUP BY su_nationkey ORDER BY profit DESC"
    ),
    # Q10: returned-item reporting.
    10: (
        "SELECT c_id, c_last, sum(ol_amount) AS revenue "
        "FROM customer "
        "JOIN orders ON o_w_id = c_w_id AND o_d_id = c_d_id "
        "AND o_c_id = c_id "
        "JOIN order_line ON ol_w_id = o_w_id AND ol_d_id = o_d_id "
        "AND ol_o_id = o_id "
        "WHERE c_balance < 0 "
        "GROUP BY c_id, c_last ORDER BY revenue DESC LIMIT 20"
    ),
    # Q11: important stock - selective filter pushdown case.
    11: lambda c: (
        "SELECT s_i_id, sum(s_order_cnt) AS ordercount FROM stock "
        "JOIN supplier ON su_suppkey = s_i_id "
        "WHERE su_nationkey = 3 "
        "GROUP BY s_i_id ORDER BY ordercount DESC"
    ),
    # Q12: shipping-mode order counts.
    12: (
        "SELECT o_ol_cnt, count(*) AS line_count FROM orders "
        "JOIN order_line ON ol_w_id = o_w_id AND ol_d_id = o_d_id "
        "AND ol_o_id = o_id "
        "WHERE ol_quantity <= 5 GROUP BY o_ol_cnt ORDER BY o_ol_cnt"
    ),
    # Q13: customer order-count distribution - the plan-change poster child
    # (NL join by default; hash join once PQ is enabled).
    13: (
        "SELECT o_c_id, count(*) AS c_count FROM customer "
        "JOIN orders ON o_w_id = c_w_id AND o_d_id = c_d_id "
        "AND o_c_id = c_id "
        "WHERE c_credit = 'GC' "
        "GROUP BY o_c_id ORDER BY c_count DESC LIMIT 50"
    ),
    # Q14: promotion effect (approx: CASE folded into the filter).
    14: (
        "SELECT sum(ol_amount) AS promo_revenue FROM order_line "
        "JOIN item ON i_id = ol_i_id WHERE i_price < 50"
    ),
    # Q15: top supplier - selective filter pushdown case.
    15: (
        "SELECT ol_supply_w_id, sum(ol_amount) AS total_revenue "
        "FROM order_line WHERE ol_i_id < 30 "
        "GROUP BY ol_supply_w_id ORDER BY total_revenue DESC"
    ),
    # Q16: part/supplier relationship - tiny working set (fits the BP).
    16: (
        "SELECT i_price, count(*) AS supplier_cnt FROM item "
        "JOIN supplier ON su_suppkey = i_id "
        "WHERE i_data LIKE 'x%' "
        "GROUP BY i_price ORDER BY supplier_cnt DESC LIMIT 20"
    ),
    # Q17: small-quantity-order revenue (approx: avg subquery -> constant).
    17: (
        "SELECT sum(ol_amount) AS avg_yearly FROM order_line "
        "JOIN item ON i_id = ol_i_id "
        "WHERE ol_quantity < 3 AND i_price > 10"
    ),
    # Q18: large-volume customers (approx: HAVING -> ORDER BY/LIMIT).
    18: (
        "SELECT o_c_id, o_w_id, o_d_id, sum(ol_amount) AS total "
        "FROM orders "
        "JOIN order_line ON ol_w_id = o_w_id AND ol_d_id = o_d_id "
        "AND ol_o_id = o_id "
        "GROUP BY o_c_id, o_w_id, o_d_id ORDER BY total DESC LIMIT 100"
    ),
    # Q19: disjunctive filters.
    19: (
        "SELECT sum(ol_amount) AS revenue FROM order_line "
        "JOIN item ON i_id = ol_i_id "
        "WHERE (ol_quantity BETWEEN 1 AND 5 AND i_price BETWEEN 1 AND 40) "
        "OR (ol_quantity BETWEEN 6 AND 10 AND i_price BETWEEN 40 AND 100)"
    ),
    # Q20: suppliers with excess stock - selective filter pushdown case.
    20: (
        "SELECT su_name, su_suppkey FROM supplier "
        "JOIN stock ON s_i_id = su_suppkey "
        "WHERE s_quantity > 70 AND su_nationkey < 10 "
        "ORDER BY su_suppkey LIMIT 50"
    ),
    # Q21: suppliers who kept orders waiting (approx).
    21: (
        "SELECT su_name, count(*) AS numwait FROM supplier "
        "JOIN stock ON s_i_id = su_suppkey "
        "JOIN order_line ON ol_supply_w_id = s_w_id AND ol_i_id = s_i_id "
        "WHERE ol_quantity > 5 "
        "GROUP BY su_name ORDER BY numwait DESC LIMIT 20"
    ),
    # Q22: dormant-customer balances - single-table aggregate (pushable).
    # (Spec filters on positive balances of order-less customers; TPC-C
    # loads every customer at -10.00, so we aggregate the negative-balance
    # population to keep the scan+aggregate shape with non-empty output.)
    22: (
        "SELECT c_credit, count(*) AS numcust, sum(c_balance) AS totacctbal "
        "FROM customer WHERE c_balance < 0 "
        "GROUP BY c_credit ORDER BY c_credit"
    ),
}
