"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper - these isolate individual mechanisms the paper
asserts qualitatively:

1. SegmentRing vs BlobGroup: large log writes unsplit over RDMA beat
   8 KB-striped SSD writes, and the gap grows with I/O size (Section V-A).
2. Chained RDMA verbs vs separate doorbells (Section IV-B).
3. Group commit batching: batched flushes sustain more commits/s than
   flush-per-commit (Section V-B's run-to-completion model).
4. EBP priority vs flat policy under a repeated-scan (PQ-style) workload:
   priority keeps the hot table's pages cached (Section VI-B).
5. Projection push-down: a pushed fragment that ships only the columns
   the plan reads moves fewer result bytes, and finishes the CH queries
   no later, than one shipping every column (Section VI).
6. PQ morsels: a push-down task split into per-core morsels finishes the
   CH queries sooner than one core a task, from storage-side CPU the
   one-sided data plane leaves idle (Section VI).
7. Runtime filters: a hash join's build keys filtering its probe-side scan
   (storage-side when that scan is pushed) finish the CH join queries
   sooner, probing fewer rows (selection before data crosses the wire,
   Section VI).
8. Eager aggregation: the many side of the join under an aggregate groups
   by its join keys before the join (storage-side when pushed), so the
   engine builds, probes and groups partial groups instead of rows, and
   the CH join queries finish sooner (aggregation push-down, Section VI).
"""

from conftest import print_table

from repro.common import KB, MB, US
from repro.sim.core import AllOf, Environment
from repro.sim.metrics import LatencyRecorder
from repro.sim.network import RdmaFabric, RdmaVerb
from repro.sim.rand import SeedSequence


def test_ablation_segmentring_vs_blobgroup(benchmark):
    """Write latency by I/O size: BlobGroup (striped SSD) vs SegmentRing."""
    from repro.astore.cluster import AStoreCluster
    from repro.astore.segment_ring import SegmentRing
    from repro.storage.logstore import LogStore

    sizes = (4 * KB, 64 * KB, 256 * KB)

    def run():
        results = {}
        for label in ("blobgroup", "segmentring"):
            env = Environment()
            seeds = SeedSequence(3)
            recorders = {size: LatencyRecorder() for size in sizes}
            if label == "blobgroup":
                store = LogStore(env, seeds)

                def writer(env):
                    for size in sizes:
                        for _ in range(150):
                            latency = yield from store.append(size)
                            recorders[size].record(latency)

            else:
                from repro.common import GB

                cluster = AStoreCluster(env, seeds, num_servers=3,
                                        pmem_capacity=1 * GB,
                                        segment_slot_size=64 * MB)
                client = cluster.new_client("bench")
                ring = SegmentRing(client, ring_size=6, segment_size=64 * MB)

                def writer(env):
                    yield from ring.initialize()
                    lsn = 0
                    for size in sizes:
                        for _ in range(150):
                            lsn += size
                            start = env.now
                            yield from ring.append(lsn, size, b"")
                            recorders[size].record(env.now - start)

            proc = env.process(writer(env))
            env.run_until_event(proc)
            results[label] = {s: recorders[s].mean for s in sizes}
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation - SegmentRing vs BlobGroup write latency by I/O size",
        ["I/O size", "BlobGroup (ms)", "SegmentRing (ms)", "ratio"],
        [
            (
                "%d KB" % (size // KB),
                "%.3f" % (results["blobgroup"][size] * 1000),
                "%.3f" % (results["segmentring"][size] * 1000),
                "%.1fx"
                % (results["blobgroup"][size] / results["segmentring"][size]),
            )
            for size in sizes
        ],
    )
    for size in sizes:
        assert results["segmentring"][size] < results["blobgroup"][size]
    # Paper's 256 KB claim: ~0.1 ms over one-sided RDMA (wire time).  Our
    # end-to-end path adds SDK bookkeeping and PMem media bandwidth on
    # top, so allow up to ~4x the wire-only figure - still several times
    # faster than the striped SSD path at the same size.
    assert results["segmentring"][256 * KB] < 0.45e-3


def test_ablation_rdma_chaining(benchmark):
    """Chained persistent-write verbs vs three separate doorbells."""

    def run():
        env = Environment()
        seeds = SeedSequence(5)
        fabric = RdmaFabric(env, seeds.stream("rdma"), jitter_sigma=0.0)
        chained = LatencyRecorder()
        separate = LatencyRecorder()

        def worker(env):
            for _ in range(500):
                start = env.now
                yield from fabric.persistent_write(512)
                chained.record(env.now - start)
            for _ in range(500):
                start = env.now
                for verb in (
                    RdmaVerb("write", 512),
                    RdmaVerb("write", 8),
                    RdmaVerb("read", 8),
                ):
                    yield from fabric.post(verb)
                separate.record(env.now - start)

        proc = env.process(worker(env))
        env.run_until_event(proc)
        return chained.mean, separate.mean

    chained_mean, separate_mean = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation - chained verbs vs separate doorbells (persistent write)",
        ["variant", "mean latency (us)"],
        [
            ("chained (1 doorbell)", "%.2f" % (chained_mean * 1e6)),
            ("separate (3 doorbells)", "%.2f" % (separate_mean * 1e6)),
        ],
    )
    assert chained_mean < separate_mean


def test_ablation_group_commit(benchmark):
    """Commits/s with group commit vs flush-per-commit."""
    from repro.engine.page import PageOp
    from repro.engine.wal import LogBuffer, RedoRecord
    from repro.common import PageId

    def run():
        results = {}
        for label, batch_bytes in (("grouped", 512 * KB), ("per-commit", 1)):
            env = Environment()
            flush_latency = 0.0006  # the SSD log path

            def flush(records, nbytes):
                yield env.timeout(flush_latency)

            log = LogBuffer(env, flush, max_batch_bytes=batch_bytes)
            log.start()
            done_count = [0]

            def committer(env, index):
                for i in range(40):
                    record = RedoRecord(
                        lsn=index * 100000 + i + 1,
                        txn_id=index,
                        page_id=PageId(1, 1),
                        op=PageOp("insert", slot=0, row=b"x" * 64),
                    )
                    event = log.submit([record], wait=True)
                    yield event
                    done_count[0] += 1

            procs = [env.process(committer(env, i)) for i in range(32)]
            env.run_until_event(AllOf(env, procs))
            results[label] = done_count[0] / env.now
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation - group commit batching (32 concurrent committers)",
        ["variant", "commits/s"],
        [(label, "%.0f" % rate) for label, rate in results.items()],
    )
    assert results["grouped"] > 2.0 * results["per-commit"]


def test_ablation_ebp_priority_policy(benchmark):
    """Priority vs flat EBP policy: hot-table hit ratio under churn."""
    from repro.astore.cluster import AStoreCluster
    from repro.common import PageId
    from repro.engine.ebp import ExtendedBufferPool
    from repro.engine.page import Page, PageOp, apply_op

    def run():
        results = {}
        page_size = 4 * KB
        for policy in ("flat", "priority"):
            env = Environment()
            seeds = SeedSequence(9)
            cluster = AStoreCluster(env, seeds, num_servers=3,
                                    segment_slot_size=1 * MB)
            client = cluster.new_client("ebp")
            ebp = ExtendedBufferPool(
                env,
                client,
                capacity_bytes=2 * MB,
                segment_size=1 * MB,
                page_size=page_size,
                policy=policy,
                space_priorities={1: 5, 2: 0},  # space 1 = the hot PQ table
            )

            def page_of(space, number):
                page = Page(PageId(space, number), size=page_size)
                apply_op(page, PageOp("insert", slot=0, row=b"d" * 64), 1)
                return page

            def worker(env):
                # Cache the hot table once, then churn cold pages through.
                for number in range(100):
                    yield from ebp.cache_page(page_of(1, number))
                for number in range(1500):
                    yield from ebp.cache_page(page_of(2, number))
                hot_hits = 0
                for number in range(100):
                    got = yield from ebp.get_page(PageId(1, number))
                    if got is not None:
                        hot_hits += 1
                return hot_hits

            proc = env.process(worker(env))
            env.run_until_event(proc)
            results[policy] = proc.value
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation - EBP policy: hot-table pages retained after churn "
        "(100 cached, then 1500 cold evictions)",
        ["policy", "hot pages still cached"],
        [(policy, count) for policy, count in results.items()],
    )
    # Priority keeps (almost) the whole hot table; flat loses much of it.
    assert results["priority"] > results["flat"]
    assert results["priority"] >= 80


def _loaded_ch_deployment():
    """A seed-5 PQ deployment (16-page buffer pool, 128 MB EBP) holding a
    small CH database whose eviction has populated the EBP, and a pushing
    session on it."""
    from repro.harness.deployment import DeploymentSpec
    from repro.harness.scenario import run
    from repro.workloads.tpcch import TpcchConfig, TpcchDatabase

    config = TpcchConfig(
        warehouses=2, customers_per_district=30, items=400,
        initial_orders_per_district=30, suppliers=100, string_scale=1.0,
    )
    dep = (
        DeploymentSpec.astore_pq(seed=5)
        .with_engine(buffer_pool_bytes=16 * 16 * KB)
        .with_ebp(128 * MB)
        .build()
    )
    dep.start()
    database = TpcchDatabase(dep.engine, config, dep.seeds.stream("ch"))

    def load(env):
        yield from database.load()
        yield env.timeout(0.3)  # eviction populates the EBP

    run(dep, load(dep.env))
    session = dep.new_session(enable_pushdown=True, force_hash_joins=True)
    return dep, session


def test_ablation_projection_pushdown(benchmark):
    """Pushed CH fragments shipping their projection vs every column."""
    from repro.harness.scenario import run
    from repro.query.plan import PlanNode, SeqScan
    from repro.workloads.tpcch import CH_QUERIES, ch_query_sql

    def widen(node, catalog):
        """Every pushed scan under ``node`` reads every column."""
        if isinstance(node, SeqScan):
            if node.pushdown:
                node.projection = catalog.table(node.table_name).schema.names
            return
        for attr in ("child", "left", "right", "outer"):
            child = getattr(node, attr, None)
            if isinstance(child, PlanNode):
                widen(child, catalog)

    def run_variant(full):
        dep, session = _loaded_ch_deployment()
        registry = dep.obs.registry
        shipped = registry.value("query.pushdown.result_bytes")
        start = dep.env.now
        for query_no in sorted(CH_QUERIES):
            plan = session.plan(ch_query_sql(query_no))
            if full:
                widen(plan, dep.engine.catalog)
            run(dep, session.execute_plan(plan))
        return (
            registry.value("query.pushdown.result_bytes") - shipped,
            dep.env.now - start,
        )

    def run_both():
        return {
            label: run_variant(full)
            for label, full in (("projected", False), ("every column", True))
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print_table(
        "Ablation - projection push-down: result bytes and virtual time "
        "of the 22 CH queries",
        ["fragments ship", "result bytes", "virtual s"],
        [
            (label, shipped, "%.4f" % seconds)
            for label, (shipped, seconds) in results.items()
        ],
    )
    projected, full = results["projected"], results["every column"]
    assert projected[0] <= full[0]
    assert projected[1] <= full[1]


def test_ablation_pq_morsels(benchmark):
    """Push-down tasks split into per-core morsels vs one core a task."""
    from repro.harness.scenario import run
    from repro.sim.resources import CpuPool
    from repro.workloads.tpcch import CH_QUERIES, ch_query_sql

    def run_variant(single_core):
        dep, session = _loaded_ch_deployment()
        if single_core:
            # Every storage server keeps one core, so each task is one
            # morsel: reads, then one charge, as before the split.
            for server in list(dep.astore.servers.values()) + list(
                dep.pagestore.servers
            ):
                server.cpu = CpuPool(dep.env, 1)
        times = {}
        for query_no in sorted(CH_QUERIES):
            start = dep.env.now
            run(dep, session.execute(ch_query_sql(query_no)))
            times[query_no] = dep.env.now - start
        return times

    def run_both():
        return {
            label: run_variant(single_core)
            for label, single_core in (("morsels", False), ("1 core", True))
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    morsels, single = results["morsels"], results["1 core"]
    print_table(
        "Ablation - PQ morsels: virtual ms per CH query, storage servers "
        "at their cores vs one core each",
        ["query", "morsels ms", "1 core ms", "speedup"],
        [
            ("Q%d" % query_no, "%.3f" % (morsels[query_no] * 1e3),
             "%.3f" % (single[query_no] * 1e3),
             "%.2fx" % (single[query_no] / morsels[query_no]))
            for query_no in sorted(morsels)
        ] + [("total", "%.3f" % (sum(morsels.values()) * 1e3),
              "%.3f" % (sum(single.values()) * 1e3),
              "%.2fx" % (sum(single.values()) / sum(morsels.values())))],
    )
    assert sum(morsels.values()) < sum(single.values())
    for query_no in (1, 6, 22):
        assert single[query_no] >= 2 * morsels[query_no], query_no


def test_ablation_runtime_filters(benchmark):
    """Hash joins filtering their probe-side scans vs every plan's runtime
    filter cleared."""
    from repro.harness.scenario import run
    from repro.query.plan import HashJoin, PlanNode
    from repro.workloads.tpcch import CH_QUERIES, ch_query_sql

    def clear(node):
        """Take every hash join's runtime filter under ``node`` off."""
        if isinstance(node, HashJoin):
            node.runtime_filter = None
        for attr in ("child", "left", "right", "outer"):
            child = getattr(node, attr, None)
            if isinstance(child, PlanNode):
                clear(child)

    def run_variant(unfiltered):
        dep, session = _loaded_ch_deployment()
        registry = dep.obs.registry
        probed = registry.value("query.join.rows_probed")
        times = {}
        for query_no in sorted(CH_QUERIES):
            plan = session.plan(ch_query_sql(query_no))
            if unfiltered:
                clear(plan)
            start = dep.env.now
            run(dep, session.execute_plan(plan))
            times[query_no] = dep.env.now - start
        return times, registry.value("query.join.rows_probed") - probed

    def run_both():
        return {
            label: run_variant(unfiltered)
            for label, unfiltered in (("filtered", False), ("cleared", True))
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    (filtered, probed), (cleared, cleared_probed) = (
        results["filtered"], results["cleared"]
    )
    print_table(
        "Ablation - runtime filters: virtual ms per CH query, build keys "
        "filtering the probe-side scan vs cleared (rows probed %d vs %d)"
        % (probed, cleared_probed),
        ["query", "filtered ms", "cleared ms", "speedup"],
        [
            ("Q%d" % query_no, "%.3f" % (filtered[query_no] * 1e3),
             "%.3f" % (cleared[query_no] * 1e3),
             "%.2fx" % (cleared[query_no] / filtered[query_no]))
            for query_no in sorted(filtered)
        ] + [("total", "%.3f" % (sum(filtered.values()) * 1e3),
              "%.3f" % (sum(cleared.values()) * 1e3),
              "%.2fx" % (sum(cleared.values()) / sum(filtered.values())))],
    )
    assert sum(filtered.values()) < sum(cleared.values())
    assert probed < cleared_probed
    for query_no in (5, 7):
        assert cleared[query_no] >= 2 * filtered[query_no], query_no


def test_ablation_eager_aggregation(benchmark, monkeypatch):
    """The many side of a join grouping before the join vs the planner's
    rule switched off."""
    from repro.harness.scenario import run
    from repro.query.planner import Planner
    from repro.workloads.tpcch import CH_QUERIES, ch_query_sql

    def run_variant(rows_joined):
        with monkeypatch.context() as patch:
            if rows_joined:
                patch.setattr(
                    Planner, "_aggregate_before_join", lambda *args: False
                )
            dep, session = _loaded_ch_deployment()
            registry = dep.obs.registry
            times, built = {}, {}
            for query_no in sorted(CH_QUERIES):
                before = registry.value("query.join.rows_built")
                start = dep.env.now
                run(dep, session.execute(ch_query_sql(query_no)))
                times[query_no] = dep.env.now - start
                built[query_no] = (
                    registry.value("query.join.rows_built") - before
                )
        return times, built

    def run_both():
        return {
            label: run_variant(rows_joined)
            for label, rows_joined in (("grouped", False), ("rows", True))
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    (grouped, grouped_built), (rows, rows_built) = (
        results["grouped"], results["rows"]
    )
    print_table(
        "Ablation - eager aggregation: virtual ms and rows built into hash "
        "tables per CH query, the join's many side grouped before the join "
        "vs joined as rows",
        ["query", "grouped ms", "rows ms", "speedup", "grouped built",
         "rows built"],
        [
            ("Q%d" % query_no, "%.3f" % (grouped[query_no] * 1e3),
             "%.3f" % (rows[query_no] * 1e3),
             "%.2fx" % (rows[query_no] / grouped[query_no]),
             grouped_built[query_no], rows_built[query_no])
            for query_no in sorted(grouped)
        ] + [("total", "%.3f" % (sum(grouped.values()) * 1e3),
              "%.3f" % (sum(rows.values()) * 1e3),
              "%.2fx" % (sum(rows.values()) / sum(grouped.values())),
              sum(grouped_built.values()), sum(rows_built.values()))],
    )
    assert sum(grouped.values()) < sum(rows.values())
    assert sum(grouped_built.values()) < sum(rows_built.values())
