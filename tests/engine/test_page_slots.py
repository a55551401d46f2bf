"""A page is a slot array: ``Page._rows`` is a list indexed by slot.

The reference below is the dict-backed page the slot array replaced
(slot -> row, kept in slot order by re-sorting after a refill).  Random
interleavings of every mutation ``apply_op`` knows - appends, inserts past
the next slot, refills of a freed slot, updates, deletes, ``format``,
refused ops and clone-then-diverge - must leave both pages
indistinguishable through the public API.  A tracemalloc bound holds the
memory the change is for.
"""

import tracemalloc
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.astore.server import _Entry
from repro.common import PageId, ReproError
from repro.engine.page import (
    PAGE_HEADER_BYTES,
    SLOT_OVERHEAD,
    Page,
    PageFullError,
    PageOp,
    apply_op,
)


class DictPage:
    """The slot -> row dict page, as it was before the slot array."""

    def __init__(self, page_id: PageId, size: int):
        self.page_id = page_id
        self.size = size
        self.page_lsn = 0
        self._rows: Dict[int, bytes] = {}
        self._slot_ordered = True
        self._next_slot = 0
        self._used = PAGE_HEADER_BYTES

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.size - self._used

    @property
    def row_count(self) -> int:
        return len(self._rows)

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

    def slots(self):
        return self._in_slot_order().items()

    def rows(self):
        return self._in_slot_order().values()

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
        return self._next_slot

    def clone(self) -> "DictPage":
        other = DictPage(self.page_id, self.size)
        other.page_lsn = self.page_lsn
        other._rows = dict(self._rows)
        other._slot_ordered = self._slot_ordered
        other._next_slot = self._next_slot
        other._used = self._used
        return other

    def same_content(self, other: "DictPage") -> bool:
        return (
            self.page_id == other.page_id
            and self.page_lsn == other.page_lsn
            and self._rows == other._rows
        )


def outcome(call):
    """``call()``'s value, or the type of what it raised."""
    try:
        return call()
    except (KeyError, ReproError) as exc:
        return type(exc)


def assert_same(page: Page, ref: DictPage) -> None:
    assert page.page_lsn == ref.page_lsn
    assert page.allocate_slot() == ref.allocate_slot()
    for slot in range(-2, ref.allocate_slot() + 2):
        assert outcome(lambda: page.get(slot)) == outcome(lambda: ref.get(slot))
    assert list(page.slots()) == list(ref.slots())
    assert list(page.rows()) == list(ref.rows())
    assert page.row_count == ref.row_count
    assert page.used_bytes == ref.used_bytes
    assert page.free_bytes == ref.free_bytes


KINDS = ("append", "gap", "refill", "update", "delete", "format", "clone",
         "occupied", "empty")
steps = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(0, 7),   # which (page, reference) pair
        st.integers(0, 63),  # which slot, among the candidates
        st.binary(max_size=48),
    ),
    max_size=60,
)


def step(pairs: List[Tuple[Page, DictPage]], kind, pick, choice, row, lsn):
    page, ref = pairs[pick % len(pairs)]
    live = [slot for slot, _row in ref.slots()]
    freed = [slot for slot in range(ref.allocate_slot()) if slot not in ref._rows]
    if kind == "clone":
        pairs.append((page.clone(), ref.clone()))
        return
    if kind == "append":
        op = PageOp("insert", slot=ref.allocate_slot(), row=row)
    elif kind == "gap":
        # An insert past the next slot: the slots it skips read as freed.
        op = PageOp("insert", slot=ref.allocate_slot() + 1 + choice % 3, row=row)
    elif kind == "refill" and freed:
        op = PageOp("insert", slot=freed[choice % len(freed)], row=row)
    elif kind == "update" and live:
        op = PageOp("update", slot=live[choice % len(live)], row=row)
    elif kind == "delete" and live:
        op = PageOp("delete", slot=live[choice % len(live)])
    elif kind == "format":
        op = PageOp("format")
    elif kind == "occupied" and live:
        op = PageOp("insert", slot=live[choice % len(live)], row=row)
    elif kind == "empty":
        # An update or delete of a freed or never-allocated slot.
        slot = (freed + [ref.allocate_slot() + choice % 3])[choice % (len(freed) + 1)]
        op = PageOp("update" if choice % 2 else "delete", slot=slot, row=row)
    else:
        return
    assert outcome(lambda: apply_op(page, op, lsn)) == outcome(
        lambda: apply_op(ref, op, lsn))


@settings(max_examples=300)
@given(steps)
def test_slot_array_matches_the_dict_page(script):
    page_id = PageId(3, 7)
    # A small page, so appends and growing updates also meet PageFullError.
    pairs = [(Page(page_id, size=640), DictPage(page_id, size=640))]
    for lsn, (kind, pick, choice, row) in enumerate(script, start=1):
        step(pairs, kind, pick, choice, row, lsn)
        for page, ref in pairs:
            assert_same(page, ref)
        for page, ref in pairs:
            for other_page, other_ref in pairs:
                assert page.same_content(other_page) == ref.same_content(other_ref)


def test_rows_is_the_slot_array_until_a_slot_is_freed():
    page = Page(PageId(0, 0))
    for slot in range(3):
        apply_op(page, PageOp("insert", slot=slot, row=b"r%d" % slot), lsn=slot + 1)
    assert page.rows() is page._rows
    apply_op(page, PageOp("delete", slot=1), lsn=4)
    assert page.rows() == [b"r0", b"r2"] and page.rows() is not page._rows
    apply_op(page, PageOp("insert", slot=1, row=b"again"), lsn=5)
    assert page.rows() is page._rows


def test_negative_slot_is_refused():
    for kind in ("insert", "update", "delete"):
        with pytest.raises(ValueError):
            PageOp(kind, slot=-1, row=b"x")
    page = Page(PageId(0, 0))
    apply_op(page, PageOp("insert", slot=0, row=b"last"), lsn=1)
    with pytest.raises(KeyError):
        page.get(-1)


def test_same_content_ignores_a_trailing_freed_slot():
    """A copy rebuilt from ``slots()`` has no trailing freed slot; it is
    still the same image."""
    page = Page(PageId(1, 2))
    for slot in range(3):
        apply_op(page, PageOp("insert", slot=slot, row=b"r%d" % slot), lsn=slot + 1)
    apply_op(page, PageOp("delete", slot=2), lsn=4)
    rebuilt = Page(PageId(1, 2))
    for slot, row in page.slots():
        apply_op(rebuilt, PageOp("insert", slot=slot, row=row), lsn=slot + 1)
    rebuilt.page_lsn = page.page_lsn
    assert page.allocate_slot() == 3 and rebuilt.allocate_slot() == 2
    assert page.same_content(rebuilt) and rebuilt.same_content(page)
    apply_op(rebuilt, PageOp("update", slot=1, row=b"other"), lsn=5)
    rebuilt.page_lsn = page.page_lsn
    assert not page.same_content(rebuilt)


def test_a_slot_costs_under_twelve_bytes_beyond_its_row():
    count = 150
    rows = [b"row %03d " % i + bytes(24) for i in range(count)]
    ops = [PageOp("insert", slot=i, row=row) for i, row in enumerate(rows)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        page = Page(PageId(0, 0))
        for lsn, op in enumerate(ops, start=1):
            apply_op(page, op, lsn)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert page.row_count == count
    # The dict page retained ~32 B a slot here, the slot array ~10 B.
    assert retained / count <= 12.0, "%.1f B per slot" % (retained / count)


def test_pages_and_astore_entries_have_no_instance_dict():
    assert not hasattr(Page(PageId(0, 0)), "__dict__")
    assert not hasattr(_Entry(0, 8, b"payload"), "__dict__")
