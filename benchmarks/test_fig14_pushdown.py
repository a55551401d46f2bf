"""Figure 14: push-down query speedups on the 22 CH queries.

Paper: with PQ + EBP enabled, queries 1, 6, 11, 13, 15, 20, 22 improve by
4x-24x (aggregation or selective-filter push-down); the geometric mean over
all 22 queries is ~2.8x.  A second experiment isolates the *plan change*
(hash-join-friendly plans chosen when PQ is on) via hints: plan change
alone leaves ~2x of geo-mean speedup attributable to push-down proper.
"""

from conftest import print_table

from repro.sim.metrics import geomean

PAPER_WINNERS = (1, 6, 11, 13, 15, 20, 22)
#: The legs' factors of each row's PQ+EBP speedup.
FACTORS = ("ebp_speedup", "plan_speedup", "pushdown_speedup")


def test_fig14_pushdown(benchmark, fig14_results):
    rows, mean = benchmark.pedantic(
        lambda: fig14_results, rounds=1, iterations=1
    )
    print_table(
        "Figure 14 - push-down speedup per CH query "
        "(paper: winners 4-24x, geo-mean ~2.8x)",
        ["query", "PQ+EBP speedup", "plan-change-only", "EBP", "plan",
         "push-down proper", "paper winner?"],
        [
            (
                "Q%d" % r.query_no,
                "%.2fx" % r.pq_speedup,
                "%.2fx" % r.plan_change_speedup,
                "%.2fx" % r.ebp_speedup,
                "%.2fx" % r.plan_speedup,
                "%.2fx" % r.pushdown_speedup,
                "yes" if r.query_no in PAPER_WINNERS else "",
            )
            for r in rows
        ]
        + [("geo-mean", "%.2fx" % mean, "")
           + tuple("%.2fx" % geomean([getattr(r, name) for r in rows])
                   for name in FACTORS)
           + ("",)]
        + [("paper", "~2.8x", "", "", "", "~2x", "")],
    )
    by = {r.query_no: r for r in rows}
    benchmark.extra_info["geomean_speedup"] = round(mean, 2)
    winner_speedups = [by[q].pq_speedup for q in PAPER_WINNERS if q in by]
    benchmark.extra_info["winners_geomean"] = round(geomean(winner_speedups), 2)
    for name in FACTORS:
        benchmark.extra_info[name + "_geomean"] = round(
            geomean([getattr(r, name) for r in rows]), 2
        )
    # The factors are the speedup, split by leg: their product is it.
    for r in rows:
        product = r.ebp_speedup * r.plan_speedup * r.pushdown_speedup
        assert abs(product - r.pq_speedup) <= 1e-9 * r.pq_speedup
    # Shape 1: overall geo-mean gain is solid (paper: ~2.8x).
    assert mean > 1.8
    # Shape 2: the paper's winner set shows multi-x gains as a group.
    assert geomean(winner_speedups) > 3.0
    # Shape 3: the aggregation-push-down queries are each big winners.
    for q in (1, 6, 22):
        assert by[q].pq_speedup > 4.0
    # Shape 4: plan change alone explains only part of the win on the
    # aggregation queries (push-down proper does the heavy lifting).
    for q in (1, 6, 22):
        assert by[q].pq_speedup > 2.0 * by[q].plan_change_speedup
    # Shape 5: the paper's winners stay the bigger winners: their geo-mean
    # at least twice that of the other fifteen queries.
    others = [r.pq_speedup for r in rows if r.query_no not in PAPER_WINNERS]
    assert geomean(winner_speedups) >= 2.0 * geomean(others)
