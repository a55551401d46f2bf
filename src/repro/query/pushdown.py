"""Push-down query (PQ) framework.

Paper Section VI.  A marked scan fragment (filter + projection + optional
partial aggregation) is decomposed into per-server tasks by looking up each
required page in the EBP index - pages go where a current copy sits, not
where they are resident:

- pages whose EBP copy is current (index entry at the page's latest LSN,
  ``page_versions``) on a live server form one task per AStore server
  holding them, resident in the engine's buffer pool or not - executed by
  the PQ process on that server against local PMem, using CPU the
  one-sided data plane leaves idle.  A logged change drops a stale copy's
  entry, so a current copy is byte-equal to the buffer-pool frame;
- the remaining buffer-pool-resident pages (never written to the EBP,
  dirtied since, or their copy's server down) are processed locally on
  the engine thread;
- all remaining pages form one task per PageStore (primary) server,
  executed against local SSD.

Tasks are dispatched in parallel, and a task uses its server's cores: its
pages split into at most one contiguous morsel per core, and each morsel
reads its pages into a pipeline of its own and charges their scan CPU on
a core of its own - the core-seconds of one charge for the whole task,
spread across the cores.  The task then finishes the fragment over its
morsels' pages, in page order, and returns filtered column batches,
partial groups (full GROUP-BY partial aggregation, DISTINCT included, in
the executor's own ``(keys, samples, states)`` shape), or the prepared
build side of a hash join (join-key tuples + filtered columns), which the
engine merges (secondary aggregation / hash probe).  Merged rows keep the
table's page order, as a local scan's do.  Pages a server cannot serve (copy overwritten, server
crashed) are returned as failures and re-processed through the engine's
normal read path - push-down never affects correctness; a copy that is
not the page its index entry says loses that entry, as an engine read
through the EBP drops it, so no later scan sends the page there again.

The probe runs where its scan runs (Farview-style operator off-load).  A
pushed scan at the bottom of a left-deep chain of hash joins is offered
their built tables (``executor.ShippedProbe``), bottom up, and takes each
while the tables so far, one copy per task, cost less on the wire than
the rows the planner priced the scan at (``planner.shipped_probes``); the
Aggregate right above the chain's top join gives its grouping too once
every table ships.  Each morsel probes its rows with the tables in turn
and pays that probe on its core (one ``join`` charge of the rows
probed); a many side (``SeqScan.partial_agg``) groups over the whole task
first and its groups are probed on one core.  The engine then receives
joined rows or partial groups, not probe rows, and the joins whose tables
shipped neither probe nor charge a probe.  A table replaces its join's
key set on the wire; a page that falls back is probed on the engine
thread through the same stage.

Between dispatching its tasks and waiting for them, the engine thread
works on: it pays the CPU of the hash-join builds the query owes (the
session hands their build rows over as ``owed``: joins whose build rows
are in hand and whose probe sides are running), then scans the resident
pages no current copy covers.  Only then does it wait for the tasks.

A scan that a hash join's build side filters (``HashJoin.runtime_filter``)
carries the build's key set in its fragment and drops, after its own
filter, the rows whose key is not in it - on storage tasks, buffer-pool
pages and fallback pages alike - unless shipping the key set would cost
more than the scan's planned result (or the join's table, which holds the
key set, ships anyway).

A fragment runs through the engine's one scan pipeline
(``repro.query.executor.ScanPipeline``) wherever it runs - on a storage
task, over buffer-pool pages or over fallback pages, as a local scan
does: column-major decode of the fragment's projection, its filter, its
runtime filters, its shipped probes, then rows, key tuples or partial
groups, through the generated kernels of ``repro.query.kernels``.  So a
task neither decodes nor ships a column the plan does not read.  What a
task's result costs on the wire is the planner's width-aware
``wire_bytes`` of what it holds (of each joined column's table, for
joined rows) - the same model that decided to push.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..common import PageId, StorageError
from ..cost import charge
from ..engine.dbengine import DBEngine
from ..engine.ebp import ExtendedBufferPool, describe_ebp_payload
from ..engine.page import Page
from ..engine.table import Table
from ..obs import obs_of
from ..sim.core import Environment, FanOut
from ..sim.network import RpcNetwork
from ..sim.resources import CpuPool
from ..storage.pagestore import PageStoreService, PageStoreServer
from . import kernels
from .columnar import ColumnBatch
from .executor import (
    Offered, PushdownFragment, RuntimeFilter, ScanPipeline, ShippedProbe,
)
from .plan import Aggregate, SeqScan
from .planner import fragment_wire_bytes, joined_wire_bytes, shipped_probes

__all__ = ["PushdownRuntime"]

#: Serialized plan-fragment size.
FRAGMENT_WIRE_BYTES = 600


@dataclass
class _Task:
    kind: str  # 'astore' | 'pagestore'
    server_id: str
    #: For astore: [(page_id, entry)]; for pagestore: [(page_id, min_lsn)].
    pages: List[Tuple] = field(default_factory=list)
    #: The task's ``pq.dispatch`` span while tracing: its morsels' parent.
    span: object = None


class PushdownRuntime:
    """Engine-side dispatcher plus the storage-side PQ executor model."""

    def __init__(
        self,
        env: Environment,
        engine: DBEngine,
        pagestore: PageStoreService,
        ebp: Optional[ExtendedBufferPool] = None,
        network: Optional[RpcNetwork] = None,
    ):
        self.env = env
        self.engine = engine
        self.pagestore = pagestore
        self.ebp = ebp
        from ..sim.rand import Rng

        self.network = network or RpcNetwork(env, Rng(1299827))
        # Counters accumulate in the environment-wide registry so fragment
        # counts survive across sessions and land in the harness report
        # (``cost_rejected`` stays 0: whether to push is the planner's call,
        # and ``bench/layers.py`` reads the key).
        self.obs = obs_of(env)
        registry = self.obs.registry
        for key in (
            "query.pushdown.fragments",
            "query.pushdown.hash_fragments",
            "query.pushdown.tasks_dispatched",
            "query.pushdown.pages_via_ebp",
            "query.pushdown.pages_via_pagestore",
            "query.pushdown.pages_local",
            "query.pushdown.fallback_pages",
            "query.pushdown.cost_rejected",
            "query.pushdown.result_bytes",
            "query.pushdown.morsels",
        ):
            registry.incr(key, 0)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run_scan(self, scan: SeqScan,
                 filters: Sequence[RuntimeFilter] = (), owed: int = 0):
        """Generator: execute a marked scan fragment via PQ, ``filters``
        the runtime filters targeting it (see :meth:`_shipped`), paying on
        the engine thread, while its tasks run, the ``owed`` build rows of
        the query's hash joins (one ``join`` charge).

        Returns ``("batch", ColumnBatch)``, or ``("partials", (keys,
        samples, states))`` - every task's groups, unfolded - when the
        fragment carries partial aggregation.
        """
        self.obs.registry.incr("query.pushdown.fragments")
        return (yield from self._traced(
            "pq.scan", scan, filters, False, owed, ()
        ))[0]

    def run_chain_scan(self, scan: SeqScan,
                       filters: Sequence[RuntimeFilter], owed: int,
                       offered: Offered):
        """Generator: :meth:`run_scan` of the pushed scan at the bottom of
        a left-deep chain of hash joins, ``offered`` what those joins offer
        it (``executor.Offered``).  The fragment carries the bottom-up run
        of them the probe price admits (:meth:`_carried`).

        Returns ``(result, taken)``: ``taken`` counts what it carried, from
        the bottom of ``offered``; ``result`` is :meth:`run_scan`'s, of
        the joined rows when it carried probes and of the Aggregate's task
        groups when it carried that too.
        """
        self.obs.registry.incr("query.pushdown.fragments")
        return (yield from self._traced(
            "pq.scan", scan, filters, False, owed, offered
        ))

    def run_hash_build(self, scan: SeqScan,
                       filters: Sequence[RuntimeFilter] = (), owed: int = 0):
        """Generator: push the build side of a hash join storage-side.

        The fragment filters the scan (``filters`` and ``owed`` as
        :meth:`run_scan`'s) and extracts join-key tuples on the storage
        servers; the engine only builds the hash table and probes.  Returns
        ``(key_tuples, ColumnBatch)``.
        """
        self.obs.registry.incr("query.pushdown.fragments")
        self.obs.registry.incr("query.pushdown.hash_fragments")
        return (yield from self._traced(
            "pq.hash_build", scan, filters, True, owed, ()
        ))[0]

    def _traced(self, name: str, scan: SeqScan,
                filters: Sequence[RuntimeFilter], hash_build: bool,
                owed: int, offered: Offered):
        """Generator: :meth:`_run_scan` under a ``name`` span while tracing,
        tagged ``query.runtime_filter`` with the build sides whose key sets
        it carries."""
        shipped = self._shipped(scan, filters)
        tracer = self.obs.tracer
        if not tracer.enabled:
            return (yield from self._run_scan(
                scan, shipped, hash_build, owed, offered
            ))
        tags = {"table": scan.table_name}
        if shipped:
            tags["query.runtime_filter"] = ",".join(f.build for f in shipped)
        with tracer.span(name, tags=tags):
            return (yield from self._run_scan(
                scan, shipped, hash_build, owed, offered
            ))

    @staticmethod
    def _shipped(scan: SeqScan, filters: Sequence[RuntimeFilter]):
        """The runtime filters worth shipping with ``scan``'s fragment: a
        key set that costs more on the wire than the planner's estimate of
        the whole result (``scan.wire[0]``) stays behind, and its rows
        reach the join's probe unfiltered."""
        if scan.wire is None:
            return tuple(filters)
        return tuple(f for f in filters if f.wire <= scan.wire[0])

    def _run_scan(self, scan: SeqScan, filters: Sequence[RuntimeFilter],
                  hash_build: bool, owed: int, offered: Offered):
        """Generator: ``(the fragment's merged result, what it took of
        offered)`` - see :meth:`run_chain_scan`."""
        table = self.engine.catalog.table(scan.table_name)
        rank: Dict[PageId, int] = {}
        local_pages: List[PageId] = []
        astore_tasks: Dict[str, _Task] = {}
        pagestore_tasks: Dict[str, _Task] = {}
        for page_no in list(table.page_nos):
            page_id = table.page_id(page_no)
            rank[page_id] = len(rank)
            required = self.engine.page_versions.get(page_id, 0)
            entry = self.ebp.index.get(page_id) if self.ebp is not None else None
            if entry is not None and entry.lsn >= required:
                server_id = self._astore_server_of(entry.segment_id)
                if server_id is not None:
                    task = astore_tasks.setdefault(
                        server_id, _Task("astore", server_id)
                    )
                    task.pages.append((page_id, entry))
                    continue
            if page_id in self.engine.buffer_pool:
                local_pages.append(page_id)
                continue
            server = self.pagestore.server_for_page(page_id)
            task = pagestore_tasks.setdefault(
                server.server_id, _Task("pagestore", server.server_id)
            )
            task.pages.append((page_id, required))

        all_tasks = list(astore_tasks.values()) + list(pagestore_tasks.values())
        probes, group, taken = self._carried(scan, offered, len(all_tasks))
        fragment = PushdownFragment.of(
            scan, table.schema, hash_build, scan.partial_agg, filters,
            probes, group,
        )
        merged = _Merge(fragment, rank)
        dispatched = FanOut(
            self.env,
            [self._dispatch(fragment, task, table) for task in all_tasks],
        ) if all_tasks else None
        # Meanwhile the engine thread pays the hash-join builds the query
        # owes, then scans the resident pages no current copy on a live
        # server covers, if any.
        if owed:
            yield from charge(self.engine.cpu, "join", owed)
            if dispatched is not None:
                self.obs.registry.incr(
                    "query.join.rows_built_overlapped", owed
                )
        failed: List[Tuple[PageId, int]] = []
        if local_pages:
            local_result, failed = yield from self._run_local(
                fragment, [(pid, 0) for pid in local_pages]
            )
            merged.add(local_result, local_pages)
        self.obs.registry.incr("query.pushdown.pages_local", len(local_pages))
        if dispatched is not None:
            results = yield dispatched
            for task, (task_result, task_failed) in zip(all_tasks, results):
                merged.add(task_result, [pid for pid, _ in task.pages])
                failed.extend(task_failed)
        # Fallback: any failed page goes through the normal engine path.
        if failed:
            self.obs.registry.incr("query.pushdown.fallback_pages", len(failed))
            fallback_result, still_failed = yield from self._run_local(
                fragment, failed, via_engine=True
            )
            if still_failed:
                raise StorageError(
                    "pages unreadable even via engine path: %r" % still_failed
                )
            merged.add(fallback_result, [pid for pid, _ in failed])
        self.obs.registry.incr(
            "query.pushdown.tasks_dispatched", len(all_tasks)
        )
        return merged.finish(), taken

    @staticmethod
    def _carried(scan: SeqScan, offered: Offered, tasks: int):
        """What ``scan``'s fragment carries of what is ``offered`` it, each
        of its ``tasks`` shipping every table it takes: ``(probes, bottom
        up; the grouping of the joined rows, or None; how many of
        offered, from the bottom, that is)``.  The probes are the bottom-up
        run :func:`shipped_probes` admits; the offering Aggregate's
        grouping comes too once every probe does (and a many side, whose
        groups only that Aggregate can fold, carries nothing without
        it)."""
        if not offered:
            return (), None, 0
        tables = [stage for stage in reversed(offered)
                  if isinstance(stage, ShippedProbe)]
        count = shipped_probes(scan, [probe.wire for probe in tables], tasks)
        top = offered[0]
        grouped = count == len(tables) and isinstance(top, Aggregate)
        if scan.partial_agg is not None and not grouped:
            return (), None, 0
        group = (top.group_exprs, top.aggregates) if grouped else None
        return tables[:count], group, count + grouped

    def _astore_server_of(self, segment_id: int) -> Optional[str]:
        meta = self.ebp.client.open_segments.get(segment_id)
        if meta is None:
            return None
        for server_id in meta.route.replicas:
            server = self.ebp.client.servers.get(server_id)
            if server is not None and server.alive:
                return server_id
        return None

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------
    def _dispatch(self, fragment: PushdownFragment, task: _Task, table: Table):
        """Generator: RPC a task to its server, execute it there and ship
        its result back."""
        tracer = self.obs.tracer
        span = (
            tracer.span(
                "pq.dispatch",
                tags={
                    "server": task.server_id,
                    "kind": task.kind,
                    "pages": len(task.pages),
                },
            )
            if tracer.enabled
            else None
        )
        task.span = span
        try:
            # Each task's request carries the fragment's key sets and its
            # shipped tables; a table carries its join's key set.
            tables = {probe.join.right.binding for probe in fragment.probes}
            key_set_bytes = sum(
                f.wire for f in fragment.runtime_filters
                if f.build not in tables
            )
            self.obs.registry.incr(
                "query.runtime_filter.bytes_shipped", key_set_bytes
            )
            request_bytes = (
                FRAGMENT_WIRE_BYTES + 24 * len(task.pages) + key_set_bytes
                + sum(probe.wire for probe in fragment.probes)
            )
            yield from self.network.send(request_bytes)
            if task.kind == "astore":
                result, failed = yield from self._run_on_astore(fragment, task)
            else:
                result, failed = yield from self._run_on_pagestore(fragment, task)
            result_bytes = self._result_bytes(table, fragment, result)
            self.obs.registry.incr("query.pushdown.result_bytes", result_bytes)
            yield from self.network.send(result_bytes)
        finally:
            if span is not None:
                span.finish()
        return result, failed

    @staticmethod
    def _result_bytes(table: Table, fragment: PushdownFragment, result) -> int:
        """What ``result`` costs on the wire: ``fragment_wire_bytes`` of
        the rows (partial groups) it holds - ``joined_wire_bytes`` of the
        joined columns when the fragment probed."""
        kind, payload = result
        distinct_values = aggregates = 0
        if kind == "batch":
            rows = payload
        elif kind == "hash":
            rows = payload[1]
        else:
            # partials: the shipped DISTINCT value sets are the last slot of
            # each aggregate in a flat state.
            _keys, rows, states = payload
            distinct_values = sum(
                len(values)
                for state in states
                for values in state[kernels.AGG_SLOTS::kernels.AGG_SLOTS]
                if values is not None
            )
            aggregates = len(fragment.grouping[1])
        if not fragment.probes:
            return fragment_wire_bytes(table, fragment, rows.n, distinct_values)
        tables = {fragment.binding: table}
        tables.update(
            (probe.join.right.binding, probe.table) for probe in fragment.probes
        )
        return joined_wire_bytes(
            tables, rows.keys, rows.n, aggregates, distinct_values
        )

    def _run_on_astore(self, fragment: PushdownFragment, task: _Task):
        """Generator: PQ process on an AStore server, reading local PMem.
        A copy that is not the page the index says it is fails, and its
        entry goes, as an engine read through the EBP drops it: no later
        scan sends that page here again."""
        server = self.ebp.client.servers[task.server_id]

        def read(spec):
            page_id, entry = spec
            if not server.alive:
                return None
            segment = server.segments.get(entry.segment_id)
            stored = segment.entries.get(entry.offset) if segment else None
            payload = stored.payload if stored else None
            if describe_ebp_payload(payload) != (page_id, entry.lsn):
                self.ebp.drop_entry(page_id, entry)
                return None
            # Local PMem read: no fabric hop, just media time.
            yield from server.pmem.read(entry.length)
            return payload[3]

        items = [(spec, (spec[0], spec[1].lsn)) for spec in task.pages]
        pipelines, failed = yield from self._run_morsels(
            task, server.cpu, items, read, fragment
        )
        self.obs.registry.incr(
            "query.pushdown.pages_via_ebp", sum(len(p.pages) for p in pipelines)
        )
        return (yield from self._finish(server.cpu, pipelines)), failed

    def _run_on_pagestore(self, fragment: PushdownFragment, task: _Task):
        """Generator: PQ process on a PageStore server, reading local SSD.

        Shipping and the image lookup stay serial in page order; only the
        SSD reads and the scan CPU run as morsels.  A replica's images are
        its chain, so a task applies nothing itself."""
        server: PageStoreServer = next(
            s for s in self.pagestore.servers if s.server_id == task.server_id
        )
        found: List[Tuple[Page, Tuple[PageId, int]]] = []
        failed: List[Tuple[PageId, int]] = []
        for page_id, min_lsn in task.pages:
            if not server.alive:
                failed.append((page_id, min_lsn))
                continue
            segment_no = self.pagestore.segment_of(page_id)
            try:
                # The first page ahead of shipped_lsn ships the whole queue.
                yield from self.engine.ship_through(min_lsn, "read")
                page = server.replica(segment_no).pages.get(page_id)
            except StorageError:
                page = None
            if page is None or page.page_lsn < min_lsn:
                failed.append((page_id, min_lsn))
            else:
                found.append((page, (page_id, min_lsn)))

        def read(page):
            if not server.alive:
                return None
            yield from server.device.read(page.size)
            return page

        pipelines, unread = yield from self._run_morsels(
            task, server.cpu, found, read, fragment
        )
        failed.extend(unread)
        self.obs.registry.incr(
            "query.pushdown.pages_via_pagestore",
            sum(len(p.pages) for p in pipelines),
        )
        return (yield from self._finish(server.cpu, pipelines)), failed

    @staticmethod
    def _finish(cpu: CpuPool, pipelines: List[ScanPipeline]):
        """Generator: a task's result from its morsels' pipelines.  A many
        side groups over the whole task before its groups are probed, so
        that probe runs here, on one of the task's cores (one ``join``
        charge)."""
        head = pipelines[0]
        result = head.finish(*pipelines[1:])
        if head.probed_groups:
            yield from charge(cpu, "join", head.probed_groups)
        return result

    def _run_morsels(
        self, task: _Task, cpu: CpuPool, items: List[Tuple], read,
        fragment: PushdownFragment,
    ):
        """Generator: run a task's pages as per-core morsels.

        ``items`` is ``[(spec, failure)]`` in page order; ``read(spec)`` is a
        generator returning the page image, or None when the page cannot be
        served (it is then reported as ``failure``).  The items split into
        at most ``cpu.cores`` contiguous runs, run as legs of one
        ``FanOut``: each leg feeds the pages it reads to a pipeline of its
        own, stages them, and charges its own core for what it read (one
        ``task`` charge) and for the rows its probes took in, if the
        fragment probes (one ``join`` charge).  So the task's core-seconds
        are those of one charge for all its pages, spread over the
        server's cores.  A 1-core server runs one leg.  Returns ``(the
        legs' pipelines, failed)``, both in page order.
        """
        count = max(1, min(cpu.cores, len(items)))
        size, extra = divmod(len(items), count)
        legs = []
        start = 0
        for index in range(count):
            stop = start + size + (index < extra)
            legs.append(
                self._morsel(task, cpu, items[start:stop], read, fragment)
            )
            start = stop
        pipelines: List[ScanPipeline] = []
        failed: List[Tuple[PageId, int]] = []
        for pipeline, leg_failed in (yield FanOut(self.env, legs)):
            pipelines.append(pipeline)
            failed.extend(leg_failed)
        return pipelines, failed

    def _morsel(self, task: _Task, cpu: CpuPool, items: List[Tuple], read,
                fragment: PushdownFragment):
        """Generator: one leg of :meth:`_run_morsels`."""
        self.obs.registry.incr("query.pushdown.morsels")
        tracer = self.obs.tracer
        span = (
            tracer.span(
                "pq.morsel",
                parent=task.span,
                tags={"server": task.server_id, "pages": len(items)},
            )
            if tracer.enabled
            else None
        )
        try:
            pipeline = ScanPipeline(fragment, self.obs.registry)
            failed: List[Tuple[PageId, int]] = []
            rows = 0
            for spec, failure in items:
                page = yield from read(spec)
                if page is None:
                    failed.append(failure)
                    continue
                pipeline.feed(page)
                rows += page.row_count
            probed = pipeline.stage()
            yield from charge(cpu, "task", rows, len(pipeline.pages))
            if probed:
                yield from charge(cpu, "join", probed)
        finally:
            if span is not None:
                span.finish()
        return pipeline, failed

    def _run_local(self, fragment: PushdownFragment, page_specs, via_engine=False):
        """Generator: process pages on the engine thread, each fed to the
        fragment's pipeline as soon as it is read, then one charge for
        them all, and one for what its probes took in, if they took any.

        ``page_specs`` is [(page_id, min_lsn)].  With ``via_engine`` the
        pages go through the full fetch path (fallback); otherwise only
        buffer-pool residents are read.
        """
        pipeline = ScanPipeline(fragment, self.obs.registry, "engine")
        failed: List[Tuple[PageId, int]] = []
        for page_id, min_lsn in page_specs:
            if via_engine:
                try:
                    page = yield from self.engine.fetch_page(page_id)
                except StorageError:
                    failed.append((page_id, min_lsn))
                    continue
            else:
                page = self.engine.buffer_pool.get(page_id)
                if page is None:
                    failed.append((page_id, min_lsn))
                    continue
            pipeline.feed(page)
        result = pipeline.finish()
        yield from charge(
            self.engine.cpu, "task", pipeline.decoded.n, len(pipeline.pages)
        )
        probed = pipeline.probed + pipeline.probed_groups
        if probed:
            yield from charge(self.engine.cpu, "join", probed)
        return result, failed


class _Merge:
    """Accumulates task results into the fragment's output shape.

    Results arrive local pages first, then dispatched tasks in dispatch
    order, then fallback pages, each over the same projected keys.  Partial
    groups merge in that order.  Rows of plain and hash-build results are
    laid out in the table's page order instead, as a local scan returns
    them, by each executed page's row count (``fragment.page_rows``).
    """

    def __init__(self, fragment: PushdownFragment, rank: Dict[PageId, int]):
        self.fragment = fragment
        #: Each heap page's position in the table's page order.
        self.rank = rank
        #: The sample rows of partial groups, their group keys and states.
        self.batch = fragment.empty_batch()
        self.keys: List[Tuple] = []
        self.states: List[List] = []
        #: Plain / hash-build results: (join-key tuples or None, rows).
        self.results: List[Tuple[Optional[List[Tuple]], ColumnBatch]] = []
        #: ``(page rank, result, first row, rows)`` per executed page.
        self.spans: List[Tuple[int, int, int, int]] = []

    def add(self, result, page_ids: List[PageId]) -> None:
        """Take ``result``, produced from those of ``page_ids`` (in page
        order) that executed: a page that failed here has no row count
        yet, and its rows come with the fallback's result."""
        kind, payload = result
        if kind == "partials":
            keys, samples, states = payload
            self.keys.extend(keys)
            self.batch.extend(samples)
            self.states.extend(states)
            return
        index = len(self.results)
        self.results.append(payload if kind == "hash" else (None, payload))
        start = 0
        page_rows = self.fragment.page_rows
        for page_id in page_ids:
            rows = page_rows.get(page_id)
            if rows is not None:
                self.spans.append((self.rank[page_id], index, start, rows))
                start += rows

    def finish(self):
        fragment = self.fragment
        if fragment.grouping is not None:
            return ("partials", (self.keys, self.batch, self.states))
        batch, keys = self.batch, self.keys
        for _, index, start, rows in sorted(self.spans):
            piece_keys, piece = self.results[index]
            stop = start + rows
            for array, source in zip(batch.arrays, piece.arrays):
                array.extend(source[start:stop])
            if piece_keys is not None:
                keys.extend(piece_keys[start:stop])
            batch.n += rows
        if fragment.hash_keys is not None:
            return keys, batch
        return ("batch", batch)
