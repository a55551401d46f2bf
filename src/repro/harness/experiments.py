"""Experiment runners: one function per table/figure of the paper.

Each runner stands up the deployments it needs, drives the workload at a
(configurable) scaled-down size, and returns plain dataclass rows that the
``benchmarks/`` harness prints in the paper's format and records in
EXPERIMENTS.md.  Scale factors default to sizes that keep each experiment
in the minutes range on a laptop; the shapes (who wins, by what factor,
where crossovers happen) are scale-invariant per DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..common import KB, MB
from ..engine.dbengine import EngineConfig
from ..sim.core import AllOf
from ..sim.metrics import LatencyRecorder, ThroughputMeter, geomean
from ..workloads.ads import AdsClient, AdsConfig, AdsDatabase
from ..workloads.lookup import LookupClient, LookupConfig, LookupDatabase
from ..workloads.microbench import (
    run_astore_micro,
    run_logstore_micro,
)
from ..workloads.orders import OrdersClient, OrdersConfig, OrdersDatabase
from ..workloads.sysbench import SysbenchClient, SysbenchConfig, SysbenchDatabase
from ..workloads.tpcc import TpccConfig, run_tpcc, tpcc_terminals
from ..workloads.tpcch import CH_QUERIES, TpcchConfig, TpcchDatabase, ch_query_sql
from .deployment import Deployment, DeploymentSpec
from .scenario import run, run_all

__all__ = [
    "table2_log_micro",
    "TpccPoint",
    "fig6_fig7_tpcc_sweep",
    "OrdersPoint",
    "fig8_order_processing",
    "AdsResult",
    "fig9_advertisement",
    "Fig10Point",
    "fig10_ap_impact",
    "Fig11Row",
    "fig11_ebp_query_speedup",
    "Fig12Point",
    "fig12_ebp_size_sweep",
    "Fig13Point",
    "fig13_sysbench_cost_equal",
    "Fig14Row",
    "fig14_pushdown_speedup",
]


def _merged_latency(clients) -> LatencyRecorder:
    """One recorder holding every client's latency samples."""
    latency = LatencyRecorder()
    for client in clients:
        latency.samples.extend(client.latencies.samples)
    return latency


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------


def table2_log_micro(writes: int = 1500, seed: int = 7):
    """The log-writing micro-benchmark, both configurations."""
    without_pmem = run_logstore_micro(writes=writes, seed=seed)
    with_pmem = run_astore_micro(writes=writes, seed=seed)
    return without_pmem, with_pmem


# ---------------------------------------------------------------------------
# Figures 6 & 7: TPC-C throughput / latency vs clients
# ---------------------------------------------------------------------------


@dataclass
class TpccPoint:
    deployment: str
    clients: int
    tps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    aborts: int


def fig6_fig7_tpcc_sweep(
    clients_list: Sequence[int] = (16, 64, 128, 256),
    duration: float = 0.3,
    warehouses: int = 16,
    seed: int = 42,
) -> List[TpccPoint]:
    """TPC-C on stock veDB vs veDB+AStore across a client sweep.

    16 warehouses keeps hot-row amplification in the paper's regime (their
    1000-warehouse run is contention-light); the sweep's top end lets the
    stock deployment approach its late peak while AStore saturates at 64
    clients, reproducing Figures 6-7's crossover structure.
    """
    points: List[TpccPoint] = []
    for name, factory in (
        ("stock", DeploymentSpec.stock),
        ("astore", DeploymentSpec.astore_log),
    ):
        for clients in clients_list:
            dep = Deployment(factory(seed=seed))
            dep.start()
            config = TpccConfig(
                warehouses=warehouses, customers_per_district=12, items=60
            )
            tps, latency, terminals = run_tpcc(
                dep, config, clients=clients, duration=duration
            )
            points.append(
                TpccPoint(
                    deployment=name,
                    clients=clients,
                    tps=tps,
                    p50_ms=latency.p50 * 1000,
                    p95_ms=latency.p95 * 1000,
                    p99_ms=latency.p99 * 1000,
                    aborts=sum(t.aborted for t in terminals),
                )
            )
    return points


# ---------------------------------------------------------------------------
# Figure 8: order-processing workload
# ---------------------------------------------------------------------------


@dataclass
class OrdersPoint:
    deployment: str
    kind: str  # 'single_insert' | 'order_processing'
    clients: int
    tps: float
    p95_ms: float


def fig8_order_processing(
    clients_list: Sequence[int] = (2, 8, 32, 64),
    duration: float = 0.4,
    seed: int = 42,
) -> List[OrdersPoint]:
    points: List[OrdersPoint] = []
    for name, factory in (
        ("stock", DeploymentSpec.stock),
        ("astore", DeploymentSpec.astore_log),
    ):
        for kind in ("single_insert", "order_processing"):
            for clients in clients_list:
                dep = Deployment(factory(seed=seed))
                dep.start()
                database = OrdersDatabase(dep.engine, OrdersConfig())
                run(dep, database.load())
                workers = [
                    OrdersClient(database, dep.seeds.stream("orders-%d" % i))
                    for i in range(clients)
                ]
                meter = ThroughputMeter()
                meter.start(dep.env.now)
                run_all(dep, (w.run_for(duration, kind=kind, meter=meter)
                              for w in workers))
                latency = _merged_latency(workers)
                points.append(
                    OrdersPoint(
                        deployment=name,
                        kind=kind,
                        clients=clients,
                        tps=meter.completed / duration,
                        p95_ms=latency.p95 * 1000,
                    )
                )
    return points


# ---------------------------------------------------------------------------
# Figure 9: advertisement workload
# ---------------------------------------------------------------------------


@dataclass
class AdsResult:
    deployment: str
    avg_ms: float
    p99_ms: float
    max_ms: float
    operations: int


def fig9_advertisement(
    clients: int = 24, duration: float = 0.6, seed: int = 42
) -> List[AdsResult]:
    """Identical replayed traffic against stock veDB and veDB+AStore."""
    results: List[AdsResult] = []
    for name, factory in (
        ("stock", DeploymentSpec.stock),
        ("astore", DeploymentSpec.astore_log),
    ):
        dep = Deployment(factory(seed=seed))
        dep.start()
        database = AdsDatabase(dep.engine, AdsConfig())
        run(dep, database.load())
        workers = [
            AdsClient(database, dep.seeds.stream("ads-%d" % i))
            for i in range(clients)
        ]
        run_all(dep, (w.run_for(duration) for w in workers))
        latency = _merged_latency(workers)
        results.append(
            AdsResult(
                deployment=name,
                avg_ms=latency.mean * 1000,
                p99_ms=latency.p99 * 1000,
                max_ms=latency.maximum * 1000,
                operations=latency.count,
            )
        )
    return results


# ---------------------------------------------------------------------------
# TPC-CH infrastructure shared by Figures 10, 11, 14
# ---------------------------------------------------------------------------


def _build_tpcch(
    deployment_config: DeploymentSpec,
    config: Optional[TpcchConfig] = None,
):
    dep = Deployment(deployment_config)
    dep.start()
    config = config or TpcchConfig(
        warehouses=2,
        customers_per_district=100,
        items=1500,
        initial_orders_per_district=100,
        suppliers=200,
        string_scale=1.0,  # full-width rows: working sets outgrow the BP
    )
    database = TpcchDatabase(dep.engine, config, dep.seeds.stream("ch-load"))
    run(dep, database.load())
    return dep, database, config


def _timed_query(dep, session, query_no: int, runs: int) -> float:
    """Mean virtual seconds of CH query ``query_no`` over ``runs`` runs,
    after one warm-up run (the paper's method)."""

    def timed():
        sql = ch_query_sql(query_no)
        yield from session.execute(sql)
        start = dep.env.now
        for _ in range(runs):
            yield from session.execute(sql)
        return (dep.env.now - start) / runs

    return run(dep, timed())


@dataclass
class Fig10Point:
    ebp: bool
    ap_streams: int
    tp_tps: float
    tp_p95_ms: float


def fig10_ap_impact(
    ap_streams_list: Sequence[int] = (0, 1, 8),
    tp_clients: int = 16,
    duration: float = 0.4,
    seed: int = 42,
    ap_queries: Sequence[int] = (1, 6, 12, 15, 18),
) -> List[Fig10Point]:
    """TP throughput under concurrent AP streams, EBP off vs on.

    Small DRAM buffer pool so AP scans evict TP working-set pages; the EBP
    absorbs the damage (a 20 us re-fetch instead of ~1 ms).
    """
    points: List[Fig10Point] = []
    engine_config = EngineConfig(buffer_pool_bytes=48 * 16 * KB)
    for use_ebp in (False, True):
        factory = (
            DeploymentSpec.astore_ebp if use_ebp else DeploymentSpec.astore_log
        )
        for ap_streams in ap_streams_list:
            dep, database, _config = _build_tpcch(
                factory(seed=seed, engine=engine_config,
                        ebp_capacity_bytes=64 * MB)
                if use_ebp
                else factory(seed=seed, engine=engine_config)
            )
            terminals = tpcc_terminals(dep, database, tp_clients, "tp-%d")
            meter = ThroughputMeter()
            meter.start(dep.env.now)
            tp_procs = [
                dep.env.process(t.run_for(duration, meter)) for t in terminals
            ]
            session = dep.new_session(enable_pushdown=False)

            def ap_stream(env, stream_no):
                index = stream_no
                deadline = env.now + duration
                while env.now < deadline:
                    query_no = ap_queries[index % len(ap_queries)]
                    index += 1
                    yield from session.execute(ch_query_sql(query_no))

            for stream_no in range(ap_streams):
                dep.env.process(ap_stream(dep.env, stream_no))
            dep.env.run_until_event(AllOf(dep.env, tp_procs))
            latency = _merged_latency(terminals)
            points.append(
                Fig10Point(
                    ebp=use_ebp,
                    ap_streams=ap_streams,
                    tp_tps=meter.completed / duration,
                    tp_p95_ms=latency.p95 * 1000,
                )
            )
    return points


@dataclass
class Fig11Row:
    query_no: int
    bp_label: str
    speedup: float  # elapsed without EBP / elapsed with EBP


def fig11_ebp_query_speedup(
    query_nos: Sequence[int] = (1, 3, 6, 7, 12, 15, 16, 18, 22),
    bp_sizes: Sequence[Tuple[str, int]] = (
        ("16GB-scaled", 24 * 16 * KB),
        ("32GB-scaled", 48 * 16 * KB),
    ),
    seed: int = 42,
    runs: int = 2,
) -> List[Fig11Row]:
    """Per-query EBP acceleration at two buffer-pool sizes.

    Mirrors the paper's method: warm-up run, then average repeated runs;
    speedup = elapsed(EBP off) / elapsed(EBP on).
    """
    rows: List[Fig11Row] = []
    for bp_label, bp_bytes in bp_sizes:
        timings: Dict[bool, Dict[int, float]] = {}
        for use_ebp in (False, True):
            factory = (
                DeploymentSpec.astore_ebp
                if use_ebp
                else DeploymentSpec.astore_log
            )
            kwargs = dict(seed=seed, engine=EngineConfig(buffer_pool_bytes=bp_bytes))
            if use_ebp:
                kwargs["ebp_capacity_bytes"] = 128 * MB
            dep, database, _config = _build_tpcch(factory(**kwargs))
            session = dep.new_session(enable_pushdown=False)
            timings[use_ebp] = {
                query_no: _timed_query(dep, session, query_no, runs)
                for query_no in query_nos
            }
        for query_no in query_nos:
            rows.append(
                Fig11Row(
                    query_no=query_no,
                    bp_label=bp_label,
                    speedup=timings[False][query_no]
                    / max(timings[True][query_no], 1e-9),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 12: EBP size sweep on the internal lookup workload
# ---------------------------------------------------------------------------


@dataclass
class Fig12Point:
    ebp_label: str
    avg_ms: float
    p99_ms: float


def fig12_ebp_size_sweep(
    ebp_sizes: Sequence[Tuple[str, int]] = (
        # The dataset is ~1.5 MB of pages against a 512 KB buffer pool.
        # The smallest EBP already covers most of the *eligible* data -
        # the same regime as the paper's 256 GB EBP against a 17 TB table
        # whose hot set is far smaller - so the first step buys the big
        # cut and each doubling buys less (the figure's diminishing
        # returns).
        ("no-EBP", 0),
        ("256GB-scaled", 1024 * KB),
        ("512GB-scaled", 2048 * KB),
        ("1TB-scaled", 4096 * KB),
    ),
    lookups: int = 2500,
    clients: int = 8,
    seed: int = 42,
) -> List[Fig12Point]:
    """Average / P99 lookup latency as the EBP grows (data >> buffer pool)."""
    points: List[Fig12Point] = []
    for label, ebp_bytes in ebp_sizes:
        engine_config = EngineConfig(buffer_pool_bytes=32 * 16 * KB)
        if ebp_bytes:
            dep = Deployment(
                DeploymentSpec.astore_ebp(
                    seed=seed,
                    engine=engine_config,
                    ebp_capacity_bytes=ebp_bytes,
                    ebp_segment_bytes=128 * KB,
                )
            )
        else:
            dep = Deployment(
                DeploymentSpec.astore_log(seed=seed, engine=engine_config)
            )
        dep.start()
        database = LookupDatabase(dep.engine, LookupConfig(rows=6000))
        run(dep, database.load())
        workers = [
            LookupClient(database, dep.seeds.stream("lk-%d" % i))
            for i in range(clients)
        ]
        # Warm the caches, then measure.
        run_all(dep, (w.run_count(lookups // (2 * clients)) for w in workers))
        for worker in workers:
            worker.latencies = LatencyRecorder()
        run_all(dep, (w.run_count(lookups // clients) for w in workers))
        latency = _merged_latency(workers)
        points.append(
            Fig12Point(
                ebp_label=label,
                avg_ms=latency.mean * 1000,
                p99_ms=latency.p99 * 1000,
            )
        )
    return points


# ---------------------------------------------------------------------------
# Table III / Figure 13: cost-equal sysbench comparison
# ---------------------------------------------------------------------------


@dataclass
class Fig13Point:
    cores: int
    clients: int
    stock_qps: float
    astore_qps: float

    @property
    def improvement_pct(self) -> float:
        if self.stock_qps <= 0:
            return 0.0
        return (self.astore_qps - self.stock_qps) / self.stock_qps * 100.0


#: Table III scaled: (cores, stock BP pages, astore BP pages, EBP pages).
#: PMem costs ~1/3 of DRAM per GB, so shrinking BP by X buys 3X of EBP.
#: Page counts are sized against the default 18k-row sbtest table (~225
#: pages): the stock pool holds ~2/3 of the data, the AStore pool holds
#: ~1/3 in DRAM but DRAM+EBP covers everything - the paper's trade.
TABLE3_CONFIGS = (
    (16, 144, 72, 216),
    (8, 72, 36, 108),
)


def fig13_sysbench_cost_equal(
    clients_list: Sequence[int] = (4, 16, 64, 192),
    duration: float = 0.3,
    rows: int = 18000,
    seed: int = 42,
    configs: Sequence[Tuple[int, int, int, int]] = TABLE3_CONFIGS[:1],
) -> List[Fig13Point]:
    points: List[Fig13Point] = []
    for cores, stock_bp, astore_bp, ebp_pages in configs:
        for clients in clients_list:
            qps: Dict[str, float] = {}
            for name in ("stock", "astore"):
                if name == "stock":
                    dep = Deployment(
                        DeploymentSpec.stock(
                            seed=seed,
                            engine=EngineConfig(
                                cores=cores,
                                buffer_pool_bytes=stock_bp * 16 * KB,
                            ),
                        )
                    )
                else:
                    dep = Deployment(
                        DeploymentSpec.astore_ebp(
                            seed=seed,
                            engine=EngineConfig(
                                cores=cores,
                                buffer_pool_bytes=astore_bp * 16 * KB,
                            ),
                            ebp_capacity_bytes=ebp_pages * 16 * KB,
                            ebp_segment_bytes=16 * 16 * KB,
                        )
                    )
                dep.start()
                database = SysbenchDatabase(
                    dep.engine, SysbenchConfig(rows=rows)
                )
                run(dep, database.load())
                workers = [
                    SysbenchClient(database, dep.seeds.stream("sb-%d" % i))
                    for i in range(clients)
                ]
                meter = ThroughputMeter()
                meter.start(dep.env.now)
                run_all(dep, (w.run_for(duration, meter) for w in workers))
                qps[name] = meter.completed / duration
            points.append(
                Fig13Point(
                    cores=cores,
                    clients=clients,
                    stock_qps=qps["stock"],
                    astore_qps=qps["astore"],
                )
            )
    return points


# ---------------------------------------------------------------------------
# Figure 14: push-down speedups on the 22 CH queries
# ---------------------------------------------------------------------------


@dataclass
class Fig14Row:
    query_no: int
    pq_speedup: float  # baseline / (PQ + EBP)
    plan_change_speedup: float  # baseline / (hash-join hint, no PQ/EBP)
    #: ``pq_speedup`` as three factors whose product it is: baseline /
    #: EBP alone, EBP alone / EBP with the hash-join hint, and that /
    #: PQ + EBP - push-down proper, what the paper's PQ adds on its own.
    ebp_speedup: float
    plan_speedup: float
    pushdown_speedup: float


def fig14_pushdown_speedup(
    query_nos: Sequence[int] = tuple(sorted(CH_QUERIES)),
    seed: int = 42,
    runs: int = 2,
    config: Optional[TpcchConfig] = None,
) -> Tuple[List[Fig14Row], float]:
    """Per-query speedup of PQ+EBP over the stock configuration, plus the
    plan-change-only ablation and the speedup's three factors: EBP alone,
    then the hash-join plan over the EBP, then push-down proper.  Returns
    (rows, geometric-mean speedup).
    """
    engine_config = EngineConfig(buffer_pool_bytes=16 * 16 * KB)
    timings: Dict[str, Dict[int, float]] = {}

    def ebp() -> DeploymentSpec:
        return DeploymentSpec.astore_ebp(
            seed=seed, engine=engine_config, ebp_capacity_bytes=128 * MB
        )

    setups = {
        # (deployment factory kwargs, session kwargs)
        "baseline": (
            DeploymentSpec.astore_log(seed=seed, engine=engine_config),
            dict(enable_pushdown=False, force_hash_joins=False),
        ),
        "plan-change": (
            DeploymentSpec.astore_log(seed=seed, engine=engine_config),
            dict(enable_pushdown=False, force_hash_joins=True),
        ),
        "ebp": (ebp(), dict(enable_pushdown=False, force_hash_joins=False)),
        "ebp-hash": (ebp(), dict(enable_pushdown=False, force_hash_joins=True)),
        "pq-ebp": (
            DeploymentSpec.astore_pq(
                seed=seed, engine=engine_config, ebp_capacity_bytes=128 * MB
            ),
            dict(enable_pushdown=True, force_hash_joins=True,
                 pushdown_row_threshold=400),
        ),
    }
    for label, (dep_config, session_kwargs) in setups.items():
        dep, database, _cfg = _build_tpcch(dep_config, config)
        session = dep.new_session(**session_kwargs)
        timings[label] = {
            query_no: _timed_query(dep, session, query_no, runs)
            for query_no in query_nos
        }

    def ratio(slow: str, fast: str, query_no: int) -> float:
        return timings[slow][query_no] / max(timings[fast][query_no], 1e-9)

    rows = [
        Fig14Row(
            query_no=query_no,
            pq_speedup=ratio("baseline", "pq-ebp", query_no),
            plan_change_speedup=ratio("baseline", "plan-change", query_no),
            ebp_speedup=ratio("baseline", "ebp", query_no),
            plan_speedup=ratio("ebp", "ebp-hash", query_no),
            pushdown_speedup=ratio("ebp-hash", "pq-ebp", query_no),
        )
        for query_no in query_nos
    ]
    mean = geomean([row.pq_speedup for row in rows])
    return rows, mean
