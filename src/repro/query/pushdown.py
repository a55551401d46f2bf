"""Push-down query (PQ) framework.

Paper Section VI.  A marked scan fragment (filter + projection + optional
partial aggregation) is decomposed into per-server tasks by looking up each
required page in the EBP index:

- pages resident in the engine's own buffer pool are processed locally
  (they may be newer than any cached copy);
- pages found in the EBP index at a sufficient LSN form one task per
  AStore server holding them - executed by the PQ process on that server
  against local PMem, using CPU the one-sided data plane leaves idle;
- all remaining pages form one task per PageStore (primary) server,
  executed against local SSD.

Tasks are dispatched in parallel, and a task uses its server's cores: its
pages split into at most one contiguous morsel per core, and each morsel
reads its pages and charges their scan CPU on a core of its own - the
core-seconds of one charge for the whole task, spread across the cores.
The task then runs the fragment once over every page its morsels read and
returns filtered column batches, partial groups (full GROUP-BY partial
aggregation, DISTINCT included, in the executor's own ``(keys, samples,
states)`` shape), or the prepared build side of a hash join (join-key
tuples + filtered columns), which the engine merges (secondary
aggregation / hash probe).  Merged rows keep the table's page order, as a
local scan's do.  Pages a server cannot serve (entry cleaned, server
crashed) are returned as failures and re-processed through the engine's
normal read path - push-down never affects correctness.

A scan that a hash join's build side filters (``HashJoin.runtime_filter``)
carries the build's key set in its fragment and drops, after its own
filter, the rows whose key is not in it - on storage tasks, buffer-pool
pages and fallback pages alike - unless shipping the key set would cost
more than the scan's planned result.

A fragment runs through the engine's one scan pipeline
(``repro.query.executor.ScanPipeline``) wherever it runs - on a storage
task, over buffer-pool pages or over fallback pages, as a local scan does:
column-major decode of the fragment's projection, its filter, its runtime
filters, then rows, key tuples or partial groups, through the generated
kernels of ``repro.query.kernels``.  So a task neither decodes nor ships a
column the plan does not read.  What a task's result costs on the wire is
the planner's width-aware ``wire_bytes`` of what it holds - the same model
that decided to push.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..common import PageId, StorageError
from ..engine.dbengine import DBEngine
from ..engine.ebp import EBP_PAGE_TAG, ExtendedBufferPool
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
    PAGE_CPU, ROW_CPU, PushdownFragment, RuntimeFilter, ScanPipeline,
)
from .plan import SeqScan
from .planner import fragment_wire_bytes

__all__ = ["PushdownRuntime", "execute_fragment_on_pages"]

#: Serialized plan-fragment size.
FRAGMENT_WIRE_BYTES = 600


def execute_fragment_on_pages(
    fragment: PushdownFragment, pages: List[Page], registry=None,
):
    """Run the fragment's pipeline over a storage task's page images; pure
    compute, no timing.  Returns :meth:`ScanPipeline.finish`'s result and
    the number of rows scanned (for CPU accounting by the caller)."""
    pipeline = ScanPipeline(fragment, registry)
    for page in pages:
        pipeline.feed(page)
    return pipeline.finish(), pipeline.decoded.n


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
                 filters: Sequence[RuntimeFilter] = ()):
        """Generator: execute a marked scan fragment via PQ, ``filters``
        the runtime filters targeting it (see :meth:`_shipped`).

        Returns ``("batch", ColumnBatch)``, or ``("partials", (keys,
        samples, states))`` - every task's groups, unfolded - when the
        fragment carries partial aggregation.
        """
        self.obs.registry.incr("query.pushdown.fragments")
        return (yield from self._traced("pq.scan", scan, filters, False))

    def run_hash_build(self, scan: SeqScan,
                       filters: Sequence[RuntimeFilter] = ()):
        """Generator: push the build side of a hash join storage-side.

        The fragment filters the scan (``filters`` as :meth:`run_scan`'s)
        and extracts join-key tuples on the storage servers; the engine
        only builds the hash table and probes.  Returns ``(key_tuples,
        ColumnBatch)``.
        """
        self.obs.registry.incr("query.pushdown.fragments")
        self.obs.registry.incr("query.pushdown.hash_fragments")
        return (yield from self._traced("pq.hash_build", scan, filters, True))

    def _traced(self, name: str, scan: SeqScan,
                filters: Sequence[RuntimeFilter], hash_build: bool):
        """Generator: :meth:`_run_scan` under a ``name`` span while tracing,
        tagged ``query.runtime_filter`` with the build sides whose key sets
        it carries."""
        shipped = self._shipped(scan, filters)
        tracer = self.obs.tracer
        if not tracer.enabled:
            return (yield from self._run_scan(scan, shipped, hash_build))
        tags = {"table": scan.table_name}
        if shipped:
            tags["query.runtime_filter"] = ",".join(f.build for f in shipped)
        with tracer.span(name, tags=tags):
            return (yield from self._run_scan(scan, shipped, hash_build))

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
                  hash_build: bool):
        table = self.engine.catalog.table(scan.table_name)
        fragment = PushdownFragment.of(
            scan, table.schema, hash_build, scan.partial_agg, filters
        )
        merged = _Merge(fragment)
        local_pages: List[PageId] = []
        astore_tasks: Dict[str, _Task] = {}
        pagestore_tasks: Dict[str, _Task] = {}
        for page_no in list(table.page_nos):
            page_id = table.page_id(page_no)
            merged.rank[page_id] = len(merged.rank)
            required = self.engine.page_versions.get(page_id, 0)
            if page_id in self.engine.buffer_pool:
                local_pages.append(page_id)
                continue
            entry = self.ebp.index.get(page_id) if self.ebp is not None else None
            if entry is not None and entry.lsn >= required:
                server_id = self._astore_server_of(entry.segment_id)
                if server_id is not None:
                    task = astore_tasks.setdefault(
                        server_id, _Task("astore", server_id)
                    )
                    task.pages.append((page_id, entry))
                    continue
            server = self.pagestore.server_for_page(page_id)
            task = pagestore_tasks.setdefault(
                server.server_id, _Task("pagestore", server.server_id)
            )
            task.pages.append((page_id, required))

        all_tasks = list(astore_tasks.values()) + list(pagestore_tasks.values())
        dispatched = FanOut(
            self.env,
            [self._dispatch(fragment, task, table) for task in all_tasks],
        ) if all_tasks else None
        # Meanwhile the engine thread processes buffer-pool-resident pages.
        local_result, failed = yield from self._run_local(
            fragment, [(pid, 0) for pid in local_pages]
        )
        self.obs.registry.incr("query.pushdown.pages_local", len(local_pages))
        merged.add(local_result, local_pages)
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
        return merged.finish()

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
            # Each task's request carries the fragment's key sets.
            key_set_bytes = sum(f.wire for f in fragment.runtime_filters)
            self.obs.registry.incr(
                "query.runtime_filter.bytes_shipped", key_set_bytes
            )
            request_bytes = (
                FRAGMENT_WIRE_BYTES + 24 * len(task.pages) + key_set_bytes
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
        the rows (partial groups) it holds."""
        kind, payload = result
        if kind == "batch":
            return fragment_wire_bytes(table, fragment, payload.n)
        if kind == "hash":
            return fragment_wire_bytes(table, fragment, payload[1].n)
        # partials: the shipped DISTINCT value sets are the last slot of
        # each aggregate in a flat state.
        keys, _samples, states = payload
        distinct_values = sum(
            len(values)
            for state in states
            for values in state[kernels.AGG_SLOTS::kernels.AGG_SLOTS]
            if values is not None
        )
        return fragment_wire_bytes(table, fragment, len(keys), distinct_values)

    def _run_on_astore(self, fragment: PushdownFragment, task: _Task):
        """Generator: PQ process on an AStore server, reading local PMem."""
        server = self.ebp.client.servers[task.server_id]

        def read(spec):
            page_id, entry = spec
            if not server.alive:
                return None
            segment = server.segments.get(entry.segment_id)
            stored = segment.entries.get(entry.offset) if segment else None
            payload = stored.payload if stored else None
            if (
                payload is None
                or not (isinstance(payload, tuple) and payload[0] == EBP_PAGE_TAG)
                or payload[1] != page_id
                or payload[2] != entry.lsn
            ):
                return None
            # Local PMem read: no fabric hop, just media time.
            yield from server.pmem.read(entry.length)
            return payload[3]

        items = [(spec, (spec[0], spec[1].lsn)) for spec in task.pages]
        pages, failed = yield from self._run_morsels(
            task, server.cpu, items, read
        )
        result, _ = execute_fragment_on_pages(
            fragment, pages, self.obs.registry
        )
        self.obs.registry.incr("query.pushdown.pages_via_ebp", len(pages))
        return result, failed

    def _run_on_pagestore(self, fragment: PushdownFragment, task: _Task):
        """Generator: PQ process on a PageStore server, reading local SSD.

        Shipping, catch-up and the image lookup stay serial in page order
        (so no two catch-ups of one segment overlap); only the SSD reads
        and the scan CPU run as morsels."""
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
                yield from server.catch_up(segment_no)
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

        pages, unread = yield from self._run_morsels(
            task, server.cpu, found, read
        )
        failed.extend(unread)
        result, _ = execute_fragment_on_pages(
            fragment, pages, self.obs.registry
        )
        self.obs.registry.incr(
            "query.pushdown.pages_via_pagestore", len(pages)
        )
        return result, failed

    def _run_morsels(
        self, task: _Task, cpu: CpuPool, items: List[Tuple], read
    ):
        """Generator: read a task's pages as per-core morsels.

        ``items`` is ``[(spec, failure)]`` in page order; ``read(spec)`` is a
        generator returning the page image, or None when the page cannot be
        served (it is then reported as ``failure``).  The items split into
        at most ``cpu.cores`` contiguous runs, run as legs of one
        ``FanOut``: each leg reads its pages, then makes one charge on its
        own core for what it read, so the task's core-seconds are those of
        one charge for all its pages, spread over the server's cores.  A
        1-core server runs one leg.  Returns ``(pages, failed)`` in page
        order.
        """
        count = max(1, min(cpu.cores, len(items)))
        size, extra = divmod(len(items), count)
        legs = []
        start = 0
        for index in range(count):
            stop = start + size + (index < extra)
            legs.append(self._morsel(task, cpu, items[start:stop], read))
            start = stop
        pages: List[Page] = []
        failed: List[Tuple[PageId, int]] = []
        for leg_pages, leg_failed in (yield FanOut(self.env, legs)):
            pages.extend(leg_pages)
            failed.extend(leg_failed)
        return pages, failed

    def _morsel(self, task: _Task, cpu: CpuPool, items: List[Tuple], read):
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
            pages: List[Page] = []
            failed: List[Tuple[PageId, int]] = []
            rows = 0
            for spec, failure in items:
                page = yield from read(spec)
                if page is None:
                    failed.append(failure)
                    continue
                pages.append(page)
                rows += page.row_count
            yield from cpu.consume(
                PAGE_CPU * max(len(pages), 1) + ROW_CPU * rows
            )
        finally:
            if span is not None:
                span.finish()
        return pages, failed

    def _run_local(self, fragment: PushdownFragment, page_specs, via_engine=False):
        """Generator: process pages on the engine thread, each fed to the
        fragment's pipeline as soon as it is read, then one charge for
        them all.

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
        yield from self.engine.cpu.consume(
            PAGE_CPU * max(len(pipeline.pages), 1) + ROW_CPU * pipeline.decoded.n
        )
        return result, failed


class _Merge:
    """Accumulates task results into the fragment's output shape.

    Results arrive local pages first, then dispatched tasks in dispatch
    order, then fallback pages, each over the same projected keys.  Partial
    groups merge in that order.  Rows of plain and hash-build results are
    laid out in the table's page order instead, as a local scan returns
    them, by each executed page's row count (``fragment.page_rows``).
    """

    def __init__(self, fragment: PushdownFragment):
        self.fragment = fragment
        #: Each heap page's position in the table's page order.
        self.rank: Dict[PageId, int] = {}
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
        if fragment.partial_agg is not None:
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
