"""Slotted data pages and the page-level REDO operations.

veDB follows the log-is-database principle: the DBEngine never ships whole
pages to storage; it ships REDO records describing page mutations, and
PageStore replays them.  Correctness therefore hinges on one function -
:func:`apply_op` - being used identically by the engine (mutating its
buffer-pool copy) and by PageStore (replaying the log).  The test suite
checks that property directly.

Rows are stored encoded (see :mod:`repro.engine.codec`); a page tracks real
byte occupancy so fill factors and working-set sizes are honest.

A page image also remembers the columns scans have decoded from it
(:attr:`Page.decoded`, filled by :meth:`Schema.decode_page_into
<repro.engine.codec.Schema.decode_page_into>`).  The memo is stamped with
the ``page_lsn`` it was decoded at, and :func:`apply_op` - the only mutator -
always advances ``page_lsn``, so a changed image never reads a stale column:
its next scan starts a fresh memo.  Nothing on the write path touches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, ItemsView, List, Optional, Tuple, ValuesView

from ..common import PAGE_SIZE, PageId, ReproError

__all__ = ["Page", "PageOp", "apply_op", "PAGE_HEADER_BYTES", "SLOT_OVERHEAD"]

#: Fixed page header: checksum, page LSN, slot directory stub, pointers.
PAGE_HEADER_BYTES = 96
#: Per-slot directory entry overhead.
SLOT_OVERHEAD = 8


class PageFullError(ReproError):
    """The row does not fit in the page's free space."""


@dataclass
class PageOp:
    """One REDO-logged mutation of a single page.

    ``kind`` is one of ``insert``, ``update``, ``delete``, ``format``.
    ``row`` carries the encoded row bytes for insert/update; ``format``
    (re)initialises an empty page and is emitted on page allocation.
    """

    kind: str
    slot: int = 0
    row: Optional[bytes] = None
    #: Approximate serialized REDO size of this operation: a 40-byte op
    #: header (lsn, page id, kind, slot) plus the row.  Sized once, here -
    #: an op is never modified after construction.
    log_bytes: int = field(init=False, repr=False, compare=False)

    VALID_KINDS = ("insert", "update", "delete", "format")

    def __post_init__(self):
        if self.kind not in self.VALID_KINDS:
            raise ValueError("unknown page op kind %r" % self.kind)
        if self.row is None:
            if self.kind in ("insert", "update"):
                raise ValueError("%s op requires row bytes" % self.kind)
            self.log_bytes = 40
        else:
            self.log_bytes = 40 + len(self.row)


class Page:
    """A slotted page holding encoded rows.

    Slots are small integers assigned by the page; deleting a slot frees
    its bytes.  ``page_lsn`` records the LSN of the last applied mutation,
    which is what the EBP index and PageStore use for staleness checks.

    ``decoded`` is the image's decoded-column memo, ``(page_lsn, schema,
    {position: values})``, or None.  :meth:`clone` shares it by reference:
    the EBP's stored copy, the buffer-pool frame cloned from it and the copy
    cached back at eviction decode a column once between them, until one
    of them is mutated (its ``page_lsn`` then no longer matches the stamp).
    """

    def __init__(self, page_id: PageId, size: int = PAGE_SIZE):
        if size <= PAGE_HEADER_BYTES:
            raise ValueError("page size too small")
        self.page_id = page_id
        self.size = size
        self.page_lsn = 0
        self.decoded: Optional[Tuple[int, Any, Dict[int, List[Any]]]] = None
        #: slot -> row.  Kept in slot order (see :meth:`_insert`), so a
        #: scan iterates it as it is instead of sorting the slots.
        self._rows: Dict[int, bytes] = {}
        self._slot_ordered = True
        self._next_slot = 0
        self._used = PAGE_HEADER_BYTES

    # -- occupancy ----------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.size - self._used

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def fits(self, row: bytes) -> bool:
        return len(row) + SLOT_OVERHEAD <= self.size - self._used

    # -- row access -----------------------------------------------------------
    def get(self, slot: int) -> bytes:
        try:
            return self._rows[slot]
        except KeyError:
            raise KeyError("page %s has no slot %d" % (self.page_id, slot))

    def _in_slot_order(self) -> Dict[int, bytes]:
        if not self._slot_ordered:
            self._rows = dict(sorted(self._rows.items()))
            self._slot_ordered = True
        return self._rows

    def slots(self) -> ItemsView[int, bytes]:
        """``(slot, row)`` pairs in slot order.  A view: do not mutate the
        page while iterating it."""
        return self._in_slot_order().items()

    def rows(self) -> ValuesView[bytes]:
        """The live rows in slot order (a view, like :meth:`slots`)."""
        return self._in_slot_order().values()

    # -- mutations (used only through apply_op) -------------------------------
    def _insert(self, slot: int, row: bytes) -> None:
        if slot in self._rows:
            raise ReproError("slot %d already occupied" % slot)
        need = len(row) + SLOT_OVERHEAD
        if need > self.size - self._used:
            raise PageFullError(
                "row of %d bytes does not fit (%d free)" % (len(row), self.free_bytes)
            )
        self._rows[slot] = row
        self._used += need
        if slot >= self._next_slot:
            self._next_slot = slot + 1
        else:
            # A freed slot refilled (undo of a delete): the dict's
            # insertion order is no longer slot order until re-sorted.
            self._slot_ordered = False

    def _update(self, slot: int, row: bytes) -> None:
        old = self._rows.get(slot)
        if old is None:
            raise ReproError("update of empty slot %d" % slot)
        delta = len(row) - len(old)
        if delta > self.size - self._used:
            raise PageFullError("updated row does not fit")
        self._rows[slot] = row
        self._used += delta

    def _delete(self, slot: int) -> None:
        old = self._rows.pop(slot, None)
        if old is None:
            raise ReproError("delete of empty slot %d" % slot)
        self._used -= len(old) + SLOT_OVERHEAD

    def _format(self) -> None:
        self._rows.clear()
        self._slot_ordered = True
        self._next_slot = 0
        self._used = PAGE_HEADER_BYTES

    def allocate_slot(self) -> int:
        """Next slot an insert would use (engine-side helper)."""
        return self._next_slot

    # -- copying ---------------------------------------------------------------
    def clone(self) -> "Page":
        """Deep copy - used when shipping a page image across components.
        The decoded-column memo is shared, not copied (see the class)."""
        other = Page(self.page_id, self.size)
        other.page_lsn = self.page_lsn
        other.decoded = self.decoded
        other._rows = dict(self._rows)
        other._slot_ordered = self._slot_ordered
        other._next_slot = self._next_slot
        other._used = self._used
        return other

    def same_content(self, other: "Page") -> bool:
        return (
            self.page_id == other.page_id
            and self.page_lsn == other.page_lsn
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return "<Page %s lsn=%d rows=%d used=%d/%d>" % (
            self.page_id,
            self.page_lsn,
            self.row_count,
            self.used_bytes,
            self.size,
        )


def apply_op(page: Page, op: PageOp, lsn: int) -> None:
    """Apply a REDO operation to a page, advancing its page LSN.

    Idempotence: an op with ``lsn <= page.page_lsn`` has already been
    applied and is skipped - the standard ARIES page-LSN test, relied on
    when PageStore gossip re-delivers records.
    """
    if lsn <= page.page_lsn:
        return
    if op.kind == "insert":
        page._insert(op.slot, op.row)
    elif op.kind == "update":
        page._update(op.slot, op.row)
    elif op.kind == "delete":
        page._delete(op.slot)
    elif op.kind == "format":
        page._format()
    page.page_lsn = lsn
