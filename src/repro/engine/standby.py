"""Read-only standby instance fed by the REDO stream.

The paper's second future-work item (Section VIII): "expand the usage of
EBP ... it could be used by stand-by instances that serve read-only
queries."  This module implements the standby, not its use of the EBP:
it is the *page-apply sink* of a
:class:`repro.engine.redo_applier.RedoApplier` (which owns the feed
cursor, the PageStore catch-up scan and the crash/recover lifecycle):

- durable REDO records are applied to its own page images, maintaining
  its own B+-tree indexes incrementally - inserts/updates/deletes carry
  enough information (op row + logged before image) to keep secondary
  indexes correct without re-scanning;
- a catch-up scan replaces every image and rebuilds the indexes from
  them in one step, so readers see the old snapshot or the new one;
- the replica is a full copy: the scan and the feed between them put
  every page of every table into :attr:`StandbyReplica.pages`, and reads
  come only from there.  A page that is missing means a crash cleared
  the images under the read, which then fails (the proxy reroutes it);
  it never falls through to the shared EBP or PageStore, whose images
  are at the primary's version, not the replica's;
- replication lag is explicit: reads are snapshot-consistent to
  ``applied_lsn``, the applier's watermark.

The standby deliberately reuses the primary's catalog *schemas* but keeps
fully independent indexes and page bookkeeping, so a primary crash never
corrupts it.  ``sync_catalog`` mirrors lazily, so a standby built before
the workload's tables exist picks them up on first touch.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..common import US, PageId, QueryError, StorageError
from ..cost import ENGINE_STMT_CPU
from ..sim.core import Environment
from ..sim.resources import CpuPool
from .page import Page, apply_op
from .redo_applier import RedoApplier
from .table import Catalog, Table
from .wal import RedoRecord

__all__ = ["StandbyReplica"]


class StandbyReplica:
    """A read-only compute node trailing the primary's REDO stream."""

    def __init__(self, env: Environment, primary, cores: int = 8):
        self.env = env
        self.primary = primary
        self.cpu = CpuPool(env, cores=cores)
        self.catalog = Catalog()
        # Standby-local page images, applied from the REDO stream.
        self.pages: Dict[PageId, Page] = {}
        self.records_applied = 0
        #: Lifecycle, ``alive``/``epoch`` and the poll cadences live here;
        #: readers snapshot ``epoch`` to discard a result a crash straddled.
        self.applier = RedoApplier(
            env, primary, self, self.cpu, name="standby-apply"
        )
        self.sync_catalog()

    def sync_catalog(self) -> None:
        """Mirror primary table definitions created since the last sync.

        Schemas are immutable metadata; indexes and page bookkeeping stay
        independent.  Mirroring in creation order keeps tablespace numbers
        aligned, which the REDO feed relies on (records address pages by
        ``space_no``).
        """
        if len(self.catalog) == len(self.primary.catalog):
            return
        for table in self.primary.catalog.tables():
            if table.name in self.catalog:
                continue
            mirrored = self.catalog.create_table(
                table.name, table.schema, table.key_columns, table.priority
            )
            if mirrored.space_no != table.space_no:
                raise QueryError(
                    "standby tablespace drift: %s is space %d on the primary "
                    "but %d here" % (table.name, table.space_no,
                                     mirrored.space_no)
                )
            for name, index in table.secondary.items():
                mirrored.add_secondary_index(name, list(index.columns))

    @property
    def applied_lsn(self) -> int:
        """Reads are snapshot-consistent to this LSN."""
        return self.applier.watermark

    @property
    def lag_lsn(self) -> int:
        """How far the standby trails the primary's durable tail."""
        return max(0, self.primary.log.persistent_lsn - self.applied_lsn)

    # ------------------------------------------------------------------
    # REDO sink
    # ------------------------------------------------------------------
    def scan_tables(self) -> List[Table]:
        """Every primary table: a catch-up rebuilds the whole replica."""
        self.sync_catalog()
        return list(self.primary.catalog.tables())

    def reset(self) -> None:
        self.pages.clear()
        for table in self.catalog.tables():
            table.clear_indexes()
            table.free_hints.clear()
            table.page_nos = []
            # note_page re-registers a page only at or past this mark.
            table._next_page_no = 0

    def rebuild(self, scanned) -> None:
        """Replace all page images and rebuild the indexes from them."""
        self.reset()
        for source_table, page in scanned:
            table = self.catalog.by_space(source_table.space_no)
            page_no = page.page_id.page_no
            self.pages[page.page_id] = page
            table.note_page(page_no, page.free_bytes)
            for slot, raw in page.slots():
                values = table.schema.decode(raw)
                if table.lookup(table.key_of(values)) is None:
                    table.index_insert(values, (page_no, slot))

    def apply(self, batch: List[RedoRecord]) -> int:
        self.records_applied += len(batch)
        pages = self.pages
        for record in batch:
            if record.is_marker:
                continue
            page_id = record.page_id
            lsn = record.lsn
            page = pages.get(page_id)
            if page is None:
                page = Page(page_id)
                pages[page_id] = page
            elif page.page_lsn >= lsn:
                # ARIES-style redo check: the image (from a catch-up
                # scan) already reflects this record, so the indexes
                # rebuilt from it do too - skip maintenance.
                continue
            table = self._table_for(page_id)
            op = record.op
            kind = op.kind
            # Index maintenance BEFORE mutating the page (we may need the
            # pre-image still stored in the slot).
            if table is not None:
                if kind == "insert":
                    values = table.schema.decode(op.row)
                    if table.lookup(table.key_of(values)) is None:
                        table.index_insert(values, (page_id.page_no, op.slot))
                elif kind == "update":
                    # An update moves neither the row nor its primary key
                    # (the primary refuses one): without a secondary index
                    # there is nothing to maintain, so nothing to decode.
                    if table.secondary:
                        old_row = self._before_image(page, record)
                        if old_row is not None:
                            table.index_update(
                                table.schema.decode(old_row),
                                table.schema.decode(op.row),
                                (page_id.page_no, op.slot),
                            )
                elif kind == "delete":
                    old_row = self._before_image(page, record)
                    if old_row is not None:
                        old_values = table.schema.decode(old_row)
                        if table.lookup(table.key_of(old_values)) is not None:
                            table.index_delete(old_values)
            apply_op(page, op, lsn)
            if table is not None:
                # Keep page bookkeeping live so standby SQL sequential
                # scans see the same page set the primary does.
                table.note_page(page_id.page_no, page.free_bytes)
        return len(batch)

    @staticmethod
    def _before_image(page: Page, record: RedoRecord) -> Optional[bytes]:
        if record.undo_row is not None:
            return record.undo_row
        try:
            return page.get(record.op.slot)
        except KeyError:
            return None

    def _table_for(self, page_id: PageId) -> Optional[Table]:
        try:
            return self.catalog.by_space(page_id.space_no)
        except QueryError:
            self.sync_catalog()
        try:
            return self.catalog.by_space(page_id.space_no)
        except QueryError:
            return None

    # ------------------------------------------------------------------
    # Read path (the DBEngine read subset, standby-flavoured)
    # ------------------------------------------------------------------
    def fetch_page(self, page_id: PageId):
        """Generator: the replica's own image of ``page_id``.

        Raises :class:`StorageError` when the image is missing, which on
        a started replica means a crash cleared ``pages`` under this read.
        """
        page = self.pages.get(page_id)
        if page is None:
            raise StorageError("standby has no image of %s" % (page_id,))
        yield from self.cpu.consume(1 * US)
        return page

    def peek_page(self, page_id: PageId):
        """Synchronous probe of the local image.

        Returns ``(page, extra_cpu)`` when the page is resident -
        ``extra_cpu`` is the CPU charge :meth:`fetch_page` would have
        made - else None.  Point-read paths use this to coalesce the page
        charge into their statement charge (one ``consume`` per statement
        instead of two); callers must charge ``extra_cpu`` themselves.
        """
        page = self.pages.get(page_id)
        if page is None:
            return None
        return page, 1 * US

    def read_row(self, table_name: str, key: Tuple[Any, ...]):
        """Generator: snapshot point read at the standby's applied LSN."""
        self.sync_catalog()
        table = self.catalog.table(table_name)
        locator = table.lookup(key)
        if locator is None:
            yield from self.cpu.consume(ENGINE_STMT_CPU)
            return None
        page_no, slot = locator
        page_id = table.page_id(page_no)
        # Probe before charging so a resident page's fetch cost folds
        # into the statement's single CPU charge (same total virtual
        # time, half the event-loop trips on the hot path).
        hit = self.peek_page(page_id)
        if hit is not None:
            page, extra = hit
            yield from self.cpu.consume(ENGINE_STMT_CPU + extra)
        else:
            yield from self.cpu.consume(ENGINE_STMT_CPU)
            page = yield from self.fetch_page(page_id)
        try:
            return table.schema.decode(page.get(slot))
        except KeyError:
            return None
