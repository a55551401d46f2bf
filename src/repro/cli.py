"""Command-line interface: regenerate any paper table/figure from a shell.

Usage::

    python -m repro list
    python -m repro table2
    python -m repro fig6 --duration 0.3 --clients 16,64,128
    python -m repro fig14 --queries 1,6,13,22
    python -m repro trace --out trace.json
    python -m repro chaos --seed 7 --short
    python -m repro chaos --shards 2
    python -m repro serve --seed 7 --replicas 2 --policy least-lag
    python -m repro serve --shards 4
    python -m repro views --seed 7
    python -m repro all

``chaos`` runs the seeded chaos soak (:mod:`repro.harness.soak`): TPC-C
terminals under randomized server crashes, a CM outage, and a partial
partition, followed by an engine crash/recovery and a durability audit.
With ``--shards N`` the soak runs the sharded 2PC variant instead:
failpoint crashes at every protocol instant (including in-flight
coordinator crashes), coordination-plane shard partitions, and audits
for zero unresolved in-doubt transactions, zero hung transactions, and
zero scatter-read atomicity violations.  It prints a deterministic JSON
report (same seed, byte-identical) and exits non-zero if any invariant
was violated.

``serve`` drives mixed TPC-C write + sysbench-style read traffic through
the serving frontend (:mod:`repro.frontend`): a SQL proxy routes reads
across a standby-replica fleet with read-your-writes session tokens
while a chaos schedule kills and restarts a replica.  It prints a
deterministic routing/lag/shed report and exits non-zero if any session
observed a read older than its own commit token.

``views`` drives TPC-C writes plus CH-style aggregate reads served from
incrementally maintained views (:mod:`repro.views`): the proxy answers
eligible SELECTs from view state in O(result), and the scenario audits
read-your-writes freshness against the view watermark plus byte-exact
equivalence with fresh rescans — including after a forced REDO-feed
overflow and a maintainer crash/rebuild.  It prints a deterministic
JSON report and exits non-zero on any violation.

``trace`` runs a short TPC-C smoke workload with span tracing enabled and
emits Chrome ``trace_event`` JSON (load it at ``chrome://tracing`` or
https://ui.perfetto.dev).  The export is deterministic: the same seed
produces byte-identical output.

Each command runs the corresponding experiment from
:mod:`repro.harness.experiments` and prints the paper-style table.
Benchmarks under ``benchmarks/`` wrap the same runners with assertions;
this CLI is for interactive exploration with custom parameters.
Wall-clock performance is not measured here: ``python bench/run.py``
(declared by ``BENCHMARK.json``, documented in ``bench/README.md``) is the
one harness for that.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from .harness import experiments as exp
from .sim.metrics import geomean

__all__ = ["main"]


def _table(title: str, headers: Sequence[str], rows) -> None:
    print()
    print(title)
    print("-" * max(len(title), 8))
    fmt = "  ".join("%%-%ds" % max(len(h), 10) for h in headers)
    print(fmt % tuple(headers))
    for row in rows:
        print(fmt % tuple(str(c) for c in row))


def _ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def cmd_table2(args) -> None:
    without_pmem, with_pmem = exp.table2_log_micro(writes=args.writes)
    _table(
        "Table II - log writing micro-benchmark",
        ["config", "avg ms", "IOPS", "MB/s"],
        [
            (r.label, "%.3f" % r.avg_latency_ms, "%.0f" % r.iops,
             "%.2f" % r.bandwidth_mb_s)
            for r in (without_pmem, with_pmem)
        ],
    )
    print("speedup: %.1fx (paper: ~7.4x)"
          % (without_pmem.avg_latency_ms / with_pmem.avg_latency_ms))


def cmd_fig6(args) -> None:
    points = exp.fig6_fig7_tpcc_sweep(
        clients_list=_ints(args.clients), duration=args.duration
    )
    _table(
        "Figures 6 & 7 - TPC-C throughput and latency vs clients",
        ["deployment", "clients", "TPS", "p50 ms", "p95 ms", "p99 ms"],
        [
            (p.deployment, p.clients, "%.0f" % p.tps, "%.2f" % p.p50_ms,
             "%.2f" % p.p95_ms, "%.2f" % p.p99_ms)
            for p in points
        ],
    )


def cmd_fig8(args) -> None:
    points = exp.fig8_order_processing(
        clients_list=_ints(args.clients), duration=args.duration
    )
    _table(
        "Figure 8 - order-processing workload",
        ["deployment", "transaction", "clients", "TPS", "p95 ms"],
        [
            (p.deployment, p.kind, p.clients, "%.0f" % p.tps,
             "%.2f" % p.p95_ms)
            for p in points
        ],
    )


def cmd_fig9(args) -> None:
    results = exp.fig9_advertisement(clients=args.ad_clients,
                                     duration=args.duration)
    _table(
        "Figure 9 - advertisement workload",
        ["deployment", "avg ms", "p99 ms", "max ms", "ops"],
        [
            (r.deployment, "%.3f" % r.avg_ms, "%.2f" % r.p99_ms,
             "%.2f" % r.max_ms, r.operations)
            for r in results
        ],
    )


def cmd_fig10(args) -> None:
    points = exp.fig10_ap_impact(duration=args.duration)
    _table(
        "Figure 10 - AP impact on TP throughput",
        ["EBP", "AP streams", "TP TPS", "TP p95 ms"],
        [
            ("on" if p.ebp else "off", p.ap_streams, "%.0f" % p.tp_tps,
             "%.2f" % p.tp_p95_ms)
            for p in points
        ],
    )


def cmd_fig11(args) -> None:
    rows = exp.fig11_ebp_query_speedup(
        query_nos=tuple(_ints(args.queries)), runs=args.runs
    )
    _table(
        "Figure 11 - EBP speedup per CH query",
        ["query", "buffer pool", "speedup"],
        [("Q%d" % r.query_no, r.bp_label, "%.2fx" % r.speedup) for r in rows],
    )


def cmd_fig12(args) -> None:
    points = exp.fig12_ebp_size_sweep(lookups=args.lookups)
    _table(
        "Figure 12 - EBP size sweep (internal lookup workload)",
        ["EBP size", "avg ms", "p99 ms"],
        [(p.ebp_label, "%.3f" % p.avg_ms, "%.3f" % p.p99_ms) for p in points],
    )


def cmd_fig13(args) -> None:
    points = exp.fig13_sysbench_cost_equal(
        clients_list=_ints(args.clients), duration=args.duration
    )
    _table(
        "Table III / Figure 13 - cost-equal sysbench",
        ["cores", "clients", "stock QPS", "astore QPS", "improvement"],
        [
            (p.cores, p.clients, "%.0f" % p.stock_qps, "%.0f" % p.astore_qps,
             "%+.0f%%" % p.improvement_pct)
            for p in points
        ],
    )


def cmd_fig14(args) -> None:
    rows, mean = exp.fig14_pushdown_speedup(
        query_nos=tuple(_ints(args.queries)), runs=args.runs
    )
    factors = ("ebp_speedup", "plan_speedup", "pushdown_speedup")
    _table(
        "Figure 14 - push-down speedups (PQ+EBP = EBP x plan x push-down)",
        ["query", "PQ+EBP", "plan-change only", "EBP", "plan",
         "push-down"],
        [
            ("Q%d" % r.query_no, "%.2fx" % r.pq_speedup,
             "%.2fx" % r.plan_change_speedup)
            + tuple("%.2fx" % getattr(r, name) for name in factors)
            for r in rows
        ],
    )
    print("geometric mean: %.2fx (paper: ~2.8x over all 22)" % mean)
    print("factor geo-means: EBP %.2fx, plan %.2fx, push-down proper %.2fx "
          "(paper: ~2x push-down proper)" % tuple(
              geomean([getattr(r, name) for r in rows]) for name in factors))


def _verdict(report, failure: str) -> int:
    """Print a scenario's deterministic JSON report; unless it is ``ok``,
    print ``failure`` to stderr and exit 1."""
    import json

    print(json.dumps(report, sort_keys=True, indent=2))
    if report["ok"]:
        return 0
    print(failure, file=sys.stderr)
    return 1


def cmd_chaos(args) -> int:
    """Run the seeded chaos soak and print its deterministic report."""
    from .harness.soak import run_chaos_soak, run_sharded_soak

    if args.shards > 1:
        report = run_sharded_soak(
            seed=args.seed, shards=args.shards, short=args.short
        )
    else:
        report = run_chaos_soak(seed=args.seed, short=args.short)
    return _verdict(report, "chaos soak FAILED: %d invariant violation(s)"
                    % len(report["violations"]))


def cmd_serve(args) -> int:
    """Run the serving-layer scenario and print its deterministic report."""
    from .frontend.serve import run_serving, run_serving_mux

    if args.mux:
        # Flags of the unmultiplexed scenario: refuse them, don't drop them.
        for flag, value, default in (("--shards", args.shards, 1),
                                     ("--tenants", args.tenants, 1),
                                     ("--read-limit", args.read_limit, None)):
            if value != default:
                raise ValueError("%s does not apply to --mux" % flag)
        report = run_serving_mux(
            seed=args.seed,
            sessions=args.sessions if args.sessions is not None else 10000,
            lanes=args.lanes,
            replicas=args.replicas,
            policy=args.policy,
            duration=args.duration if args.duration is not None else 1.0,
            chaos=not args.no_chaos,
            queue_limit=args.queue_limit,
        )
        return _verdict(
            report,
            "serve --mux FAILED: %d stale read(s), %d missing row(s), "
            "%d/%d sessions executed, fairness %s"
            % (report["consistency"]["stale_reads"],
               report["consistency"]["missing_rows"],
               report["mux"]["sessions_executed"],
               report["sessions"],
               "ok" if report["fairness"]["ok"] else "VIOLATED"),
        )
    report = run_serving(
        seed=args.seed,
        replicas=args.replicas,
        policy=args.policy,
        duration=args.duration if args.duration is not None else 1.5,
        shards=args.shards,
        sessions=args.sessions,
        tenants=args.tenants,
        chaos=not args.no_chaos,
        read_limit=args.read_limit,
        queue_limit=args.queue_limit,
    )
    return _verdict(
        report,
        "serve FAILED: %d stale read(s), %d missing row(s)"
        % (report["consistency"]["stale_reads"],
           report["consistency"]["missing_rows"]),
    )


def cmd_views(args) -> int:
    """Run the incremental-views scenario and print its report."""
    from .views.scenario import run_views

    report = run_views(
        seed=args.seed,
        duration=args.duration,
        replicas=args.replicas,
        feed_bound=args.feed_bound,
        burst_rows=args.burst_rows,
        crash_phase=not args.no_crash,
    )
    return _verdict(
        report, "views FAILED: %d violation(s)" % len(report["violations"])
    )


def cmd_trace(args) -> None:
    """Run a traced TPC-C smoke workload and dump Chrome trace JSON."""
    from .harness.deployment import DeploymentSpec
    from .workloads.tpcc import TpccConfig, run_tpcc

    spec = DeploymentSpec.astore_pq(seed=args.seed).with_tracing()
    dep = spec.build()
    dep.start()
    run_tpcc(dep, TpccConfig(), clients=args.clients, duration=args.duration)
    payload = dep.tracer.export_chrome_json(indent=2 if args.pretty else None)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
                fh.write("\n")
        except OSError as exc:
            raise SystemExit("cannot write %s: %s" % (args.out, exc))
        print(
            "wrote %d spans to %s (open at chrome://tracing)"
            % (len(dep.tracer.spans), args.out),
            file=sys.stderr,
        )
    else:
        print(payload)
    if args.metrics:
        print(dep.registry.to_json(indent=2), file=sys.stderr)


SCENARIOS = {"chaos": cmd_chaos, "serve": cmd_serve, "views": cmd_views}

COMMANDS = {
    "table2": ("Table II log micro-benchmark", cmd_table2),
    "fig6": ("TPC-C throughput sweep (also prints Fig 7 latency)", cmd_fig6),
    "fig8": ("order-processing workload", cmd_fig8),
    "fig9": ("advertisement workload", cmd_fig9),
    "fig10": ("AP impact on TP, EBP on/off", cmd_fig10),
    "fig11": ("EBP per-query speedups", cmd_fig11),
    "fig12": ("EBP size sweep", cmd_fig12),
    "fig13": ("cost-equal sysbench", cmd_fig13),
    "fig14": ("push-down speedups", cmd_fig14),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures from the veDB+AStore paper.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    all_parser = sub.add_parser("all", help="run every experiment (slow)")
    chaos_parser = sub.add_parser(
        "chaos", help="seeded chaos soak: TPC-C under failures + audit"
    )
    chaos_parser.add_argument("--seed", type=int, default=7)
    chaos_parser.add_argument(
        "--short", action="store_true",
        help="smaller horizon/terminal count (CI smoke mode)"
    )
    chaos_parser.add_argument(
        "--shards", type=int, default=1,
        help="shard count; >1 runs the 2PC crash/partition soak with "
             "the in-doubt, hung-transaction, and scatter-atomicity "
             "audits"
    )
    serve_parser = sub.add_parser(
        "serve", help="serving layer: proxied reads over a replica fleet"
    )
    serve_parser.add_argument("--seed", type=int, default=7)
    serve_parser.add_argument("--replicas", type=int, default=2)
    serve_parser.add_argument(
        "--policy", default="least-lag",
        choices=("round-robin", "least-lag", "p2c"),
    )
    serve_parser.add_argument("--duration", type=float, default=None,
                              help="virtual seconds of mixed traffic "
                                   "(default 1.5, or 1.0 with --mux)")
    serve_parser.add_argument("--shards", type=int, default=1,
                              help="hash-shard the keyspace across N "
                                   "primaries (cross-shard writes use 2PC)")
    serve_parser.add_argument("--mux", action="store_true",
                              help="session multiplexing: run --sessions "
                                   "parked sessions over --lanes execution "
                                   "lanes with weighted-fair tenant QoS")
    serve_parser.add_argument("--sessions", type=int, default=None,
                              help="client session count (read sessions "
                                   "without --mux; default 10000 parked "
                                   "descriptors with --mux)")
    serve_parser.add_argument("--tenants", type=int, default=1,
                              help="tag sessions round-robin across N "
                                   "tenants (non-mux; report breakdown)")
    serve_parser.add_argument("--lanes", type=int, default=8,
                              help="execution lanes for --mux")
    serve_parser.add_argument("--no-chaos", action="store_true",
                              help="skip the replica crash/restart schedule")
    serve_parser.add_argument("--read-limit", type=int, default=None,
                              help="admission concurrency cap for reads")
    serve_parser.add_argument("--queue-limit", type=int, default=None,
                              help="admission queue bound before shedding")
    views_parser = sub.add_parser(
        "views", help="incremental views: view-served aggregates + audits"
    )
    views_parser.add_argument("--seed", type=int, default=7)
    views_parser.add_argument("--replicas", type=int, default=2)
    views_parser.add_argument("--duration", type=float, default=0.6,
                              help="virtual seconds of mixed traffic")
    views_parser.add_argument("--feed-bound", type=int, default=512,
                              help="REDO feed queue bound per view")
    views_parser.add_argument("--burst-rows", type=int, default=600,
                              help="rows in the overflow-forcing burst txn")
    views_parser.add_argument("--no-crash", action="store_true",
                              help="skip the maintainer crash/rebuild phase")
    trace_parser = sub.add_parser(
        "trace", help="emit a Chrome trace of a short TPC-C run"
    )
    trace_parser.add_argument("--out", default=None,
                              help="write trace JSON here (default: stdout)")
    trace_parser.add_argument("--seed", type=int, default=42)
    trace_parser.add_argument("--clients", type=int, default=4)
    trace_parser.add_argument("--duration", type=float, default=0.05,
                              help="virtual seconds of TPC-C to trace")
    trace_parser.add_argument("--pretty", action="store_true",
                              help="indent the JSON output")
    trace_parser.add_argument("--metrics", action="store_true",
                              help="also print the metrics snapshot to stderr")
    for name, (help_text, _fn) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--duration", type=float, default=0.3,
                       help="virtual seconds per measurement window")
        p.add_argument("--writes", type=int, default=1500)
        p.add_argument("--lookups", type=int, default=2400)
        p.add_argument("--runs", type=int, default=1)
        p.add_argument("--ad-clients", type=int, default=24)
        if name in ("fig6", "fig8"):
            p.add_argument("--clients", default="16,64,128")
        elif name == "fig13":
            p.add_argument("--clients", default="4,16,64,128")
        if name == "fig11":
            p.add_argument("--queries", default="1,6,7,16,22")
        elif name == "fig14":
            p.add_argument("--queries",
                           default=",".join(str(q) for q in range(1, 23)))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        print("available experiments:")
        for name, (help_text, _fn) in COMMANDS.items():
            print("  %-8s %s" % (name, help_text))
        print("  %-8s %s" % ("all", "run everything (slow)"))
        print("  %-8s %s" % ("trace", "Chrome trace of a short TPC-C run"))
        print("  %-8s %s" % ("chaos", "seeded chaos soak with invariant audit"))
        print("  %-8s %s" % ("serve", "serving layer over a replica fleet"))
        print("  %-8s %s" % ("views", "incremental views with audits"))
        return 0
    scenario = SCENARIOS.get(args.command)
    if scenario is not None:
        try:
            return scenario(args)
        except ValueError as exc:
            # Arguments are checked before anything is built or run.
            print("python -m repro %s: error: %s" % (args.command, exc),
                  file=sys.stderr)
            return 2
    if args.command == "trace":
        cmd_trace(args)
        return 0
    if args.command == "all":
        for name, (_help, fn) in COMMANDS.items():
            start = time.time()
            fn(build_parser().parse_args([name]))
            print("[%s took %.0fs]" % (name, time.time() - start),
                  file=sys.stderr)
        return 0
    # Wall-clock lines go to stderr: a verb's stdout depends on its seed only.
    start = time.time()
    COMMANDS[args.command][1](args)
    print("[%.0fs]" % (time.time() - start), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
