"""Count-type layer metrics: registry-snapshot deltas over the timed window.

Names are ``<layer>.<metric>`` with the layers being the ``src/repro``
packages.  Everything here is a virtual-time statistic read through
``registry.snapshot()`` and ``registry.latency()``, so it repeats exactly
for a fixed seed.  A metric whose subsystem is absent from the deployment
(no mux, no views, no EBP) reads 0.
"""

from __future__ import annotations

from typing import Any, Dict

from .stats import percentile

__all__ = ["WindowProbe", "flatten"]

#: Registry latency recorders whose in-window samples feed a percentile.
RECORDERS = (
    "engine.txn.commit_wait",
    "engine.log.flush",
    "astore.client.log-client.write",
    "astore.client.ebp-client.read",
    "frontend.fleet_lsn_wait",
    "frontend.admission_wait",
    "frontend.tenant.gold.wait",
    "frontend.tenant.silver.wait",
    "frontend.tenant.bronze.wait",
)


def flatten(tree: Dict[str, Any], prefix: str = "") -> Dict[str, Any]:
    """``{dotted-name: leaf}`` of a nested snapshot."""
    flat: Dict[str, Any] = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            flat.update(flatten(value, prefix + key + "."))
        else:
            flat[prefix + key] = value
    return flat


def events_scheduled(env) -> int:
    # The kernel has no public event counter; its sequence number is what
    # ``repro perf`` reads too.
    return env._seq


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class WindowProbe:
    """Opened before the timed window, closed after it."""

    def __init__(self, dep):
        self.dep = dep
        registry = dep.registry
        self.offsets = {
            name: len(registry.latency(name).samples)
            for name in RECORDERS if name in registry
        }
        self.parse = self._parse_cache_counts()
        self.before = flatten(registry.snapshot())
        self.events = events_scheduled(dep.env)

    def _parse_cache_counts(self):
        frontend = self.dep.frontend
        if frontend is None:
            return (0, 0)
        return (frontend.parse_cache.hits, frontend.parse_cache.misses)

    def _pct_us(self, name: str, pct: float) -> float:
        """A percentile of the samples ``name`` recorded inside the window."""
        if name not in self.offsets:
            return 0.0
        samples = self.dep.registry.latency(name).samples[self.offsets[name]:]
        return percentile(samples, pct) * 1e6 if samples else 0.0

    def close(self, outcome) -> Dict[str, float]:
        dep = self.dep
        events = events_scheduled(dep.env) - self.events
        after = flatten(dep.registry.snapshot())
        before = self.before
        ops = outcome.ops
        virtual_s = outcome.virtual_s

        def delta(name: str) -> float:
            value = after.get(name, 0)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return 0
            return value - before.get(name, 0)

        def total(prefix: str, suffix: str) -> float:
            return sum(
                delta(name) for name in after
                if name.startswith(prefix) and name.endswith(suffix)
            )

        def per_op(value: float) -> float:
            return _ratio(value, ops)

        replica_reads = delta("frontend.proxy.reads_replica")
        primary_reads = delta("frontend.proxy.reads_primary")
        views_served = delta("frontend.proxy.views_served")
        reads = replica_reads + primary_reads + views_served
        shed = (total("frontend.admission.", ".shed")
                + total("frontend.mux.shed.", ""))
        parse_hits, parse_misses = (
            now - then
            for now, then in zip(self._parse_cache_counts(), self.parse)
        )
        pushed_pages = (delta("query.pushdown.pages_via_ebp")
                        + delta("query.pushdown.pages_via_pagestore"))
        bp_hits = delta("buffer_pool.hits")
        bp_misses = delta("buffer_pool.misses")
        ebp_hits = delta("ebp.hits")
        ebp_stale = delta("ebp.stale_hits")
        committed = delta("engine.committed")
        aborted = delta("engine.aborted")
        flushes = delta("engine.log_flushes")
        lag = [
            after[name] for name in after
            if name.startswith("frontend.replicas.")
            and name.endswith(".lag_lsn")
        ]
        astore_cores = sum(
            server.cpu.cores for server in dep.astore.servers.values()
        ) if dep.astore is not None else 0
        storage_cores = sum(
            server.cpu.cores for server in dep.pagestore.servers
        )
        ships = delta("pagestore.ships")
        folded = delta("views.maintainer.records_folded")

        counts = {
            "sim.events_per_op": per_op(events),
            "sim.rdma_verbs_per_op": per_op(
                total("sim.rdma.", ".verbs_posted")),
            "sim.rdma_bytes_per_op": per_op(
                total("sim.rdma.", ".bytes_moved")),
            "sim.device_queue_wait_us_per_op": per_op(
                total("sim.device.", ".queue_wait_s") * 1e6),

            "frontend.replica_read_share": _ratio(replica_reads, reads),
            "frontend.bounce_share": _ratio(
                total("frontend.proxy.bounces.", ""), reads),
            "frontend.view_served_share": _ratio(views_served, reads),
            "frontend.lsn_wait_p99_us": self._pct_us(
                "frontend.fleet_lsn_wait", 99),
            "frontend.admission_wait_p99_us": self._pct_us(
                "frontend.admission_wait", 99),
            "frontend.shed_share": _ratio(shed, outcome.attempted),
            "frontend.mux_binds_per_op": per_op(delta("frontend.mux.binds")),

            "query.parse_cache_hit_ratio": _ratio(
                parse_hits, parse_hits + parse_misses),
            "query.pushdown_fragments_per_op": per_op(
                delta("query.pushdown.fragments")),
            "query.hash_build_fragments_per_op": per_op(
                delta("query.pushdown.hash_fragments")),
            "query.pushdown_page_share": _ratio(
                pushed_pages,
                pushed_pages + delta("query.pushdown.pages_local")),
            "query.pushdown_fallback_pages_per_op": per_op(
                delta("query.pushdown.fallback_pages")),
            "query.pushdown_cost_rejected_per_op": per_op(
                delta("query.pushdown.cost_rejected")),

            # No lookup at all (reads served from standby page images)
            # means nothing missed: 1.0, as when everything fits.
            "engine.bp_hit_ratio": (
                _ratio(bp_hits, bp_hits + bp_misses)
                if bp_hits + bp_misses else 1.0),
            "engine.bp_evictions_per_op": per_op(
                delta("buffer_pool.evictions")),
            "engine.page_fetches_per_op": per_op(
                total("engine.page_fetch.", "")),
            "engine.ebp_hit_ratio": _ratio(
                ebp_hits, ebp_hits + delta("ebp.misses")),
            "engine.ebp_stale_hit_share": _ratio(
                ebp_stale, ebp_hits + ebp_stale),
            "engine.ebp_pages_written_per_op": per_op(
                delta("ebp.pages_written")),
            "engine.ebp_compactions_per_kop": 1000.0 * per_op(
                delta("ebp.compactions")),
            "engine.pagestore_reads_per_op": per_op(
                delta("engine.page_fetch.pagestore_read")),
            "engine.records_per_flush": _ratio(
                delta("engine.records_flushed"), flushes),
            "engine.log_flushes_per_op": per_op(flushes),
            "engine.log_bytes_per_op": per_op(delta("engine.persistent_lsn")),
            "engine.commit_wait_p50_us": self._pct_us(
                "engine.txn.commit_wait", 50),
            "engine.commit_wait_p99_us": self._pct_us(
                "engine.txn.commit_wait", 99),
            "engine.log_flush_p50_us": self._pct_us("engine.log.flush", 50),
            "engine.log_flush_p99_us": self._pct_us("engine.log.flush", 99),
            "engine.lock_waits_per_op": per_op(delta("engine.lock_waits")),
            "engine.abort_share": _ratio(aborted, committed + aborted),
            "engine.redo_feed_overflows": delta("engine.redo_feed.overflows"),
            "engine.replica_records_applied_per_op": per_op(
                total("frontend.replicas.", ".records_applied")),
            "engine.replica_lag_lsn_max": max(lag, default=0),

            "astore.log_writes_per_op": per_op(
                delta("astore.client.log-client.writes")),
            "astore.log_write_p50_us": self._pct_us(
                "astore.client.log-client.write", 50),
            "astore.log_write_p99_us": self._pct_us(
                "astore.client.log-client.write", 99),
            "astore.ebp_reads_per_op": per_op(
                delta("astore.client.ebp-client.reads")),
            "astore.ebp_read_p50_us": self._pct_us(
                "astore.client.ebp-client.read", 50),
            "astore.ebp_writes_per_op": per_op(
                delta("astore.client.ebp-client.writes")),
            "astore.pmem_reads_per_op": per_op(
                total("astore.servers.", ".pmem_reads")),
            "astore.pmem_writes_per_op": per_op(
                total("astore.servers.", ".pmem_writes")),
            "astore.retries": total("astore.client.", ".retries"),
            "astore.segment_creates": total(
                "astore.client.", ".segment_create.count"),
            "astore.ring_advances": delta("segment_ring.advances"),
            "astore.server_cpu_busy_share": _ratio(
                total("astore.servers.", ".cpu_busy_s"),
                astore_cores * virtual_s),

            "storage.page_reads_per_op": per_op(
                delta("pagestore.page_reads")),
            "storage.ships_per_op": per_op(ships),
            "storage.records_per_ship": _ratio(
                total("pagestore.servers.", ".records_received"),
                ships * len(dep.pagestore.servers)),
            "storage.gossip_rounds": delta("pagestore.gossip_rounds"),
            "storage.server_cpu_busy_share": _ratio(
                total("pagestore.servers.", ".cpu_busy_s"),
                storage_cores * virtual_s),

            "views.records_folded_per_op": per_op(folded),
            "views.deltas_per_record": _ratio(
                delta("views.maintainer.deltas_applied"), folded),
            "views.rescans": delta("views.maintainer.rescans"),
            "views.feed_overflows": total("views.", ".feed_overflows"),
            "views.lsn_waits_per_serve": _ratio(
                delta("views.maintainer.lsn_waits"),
                delta("views.maintainer.serves")),
            "views.decode_misses": delta("views.maintainer.decode_misses"),
        }
        for tenant in ("gold", "silver", "bronze"):
            counts["frontend.wfq_wait_p99_us.%s" % tenant] = self._pct_us(
                "frontend.tenant.%s.wait" % tenant, 99)
        for label in ("r40", "r60", "r80", "r90", "r100"):
            counts["frontend.lat_p99_us.%s" % label] = outcome.extra.get(
                "lat_p99_us.%s" % label, 0.0)
        return counts
