"""Tests for slotted pages, REDO page ops, and the row codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import KB, PageId, ReproError
from repro.engine.codec import (
    BIGINT,
    DECIMAL,
    FLOAT,
    INT,
    VARCHAR,
    Column,
    Schema,
)
from repro.common import QueryError
from repro.engine.page import (
    PAGE_HEADER_BYTES,
    Page,
    PageFullError,
    PageOp,
    apply_op,
)


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------


def sample_schema():
    return Schema(
        [
            Column("id", INT()),
            Column("big", BIGINT()),
            Column("price", DECIMAL(2)),
            Column("ratio", FLOAT()),
            Column("name", VARCHAR(40), nullable=True),
        ]
    )


def test_codec_roundtrip():
    schema = sample_schema()
    row = [7, 2**40, 19.99, 0.5, "widget"]
    assert schema.decode(schema.encode(row)) == row


def test_codec_null_handling():
    schema = sample_schema()
    row = [1, 2, 3.5, 1.0, None]
    assert schema.decode(schema.encode(row)) == row


def test_codec_null_in_non_nullable_rejected():
    schema = sample_schema()
    with pytest.raises(QueryError):
        schema.encode([None, 2, 3.0, 1.0, "x"])


def test_codec_varchar_too_long_rejected():
    schema = sample_schema()
    with pytest.raises(QueryError):
        schema.encode([1, 2, 3.0, 1.0, "y" * 100])


def test_codec_wrong_arity_rejected():
    schema = sample_schema()
    with pytest.raises(QueryError):
        schema.encode([1, 2])


def test_schema_duplicate_columns_rejected():
    with pytest.raises(QueryError):
        Schema([Column("a", INT()), Column("a", INT())])


def test_schema_position_and_names():
    schema = sample_schema()
    assert schema.position("price") == 2
    assert schema.names[0] == "id"
    with pytest.raises(QueryError):
        schema.position("nope")


def test_decimal_is_exact():
    schema = Schema([Column("amount", DECIMAL(2))])
    encoded = schema.encode([0.1 + 0.2])  # 0.30000000000000004
    assert schema.decode(encoded) == [0.3]


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-(2**31), max_value=2**31 - 1),
            st.integers(min_value=-(2**62), max_value=2**62 - 1),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            st.text(max_size=40),
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=50)
def test_codec_roundtrip_property(rows):
    schema = Schema(
        [
            Column("a", INT()),
            Column("b", BIGINT()),
            Column("c", FLOAT()),
            Column("d", VARCHAR(0)),
        ]
    )
    for row in rows:
        decoded = schema.decode(schema.encode(list(row)))
        assert decoded[0] == row[0]
        assert decoded[1] == row[1]
        assert decoded[2] == pytest.approx(row[2])
        assert decoded[3] == row[3]


# ---------------------------------------------------------------------------
# Pages
# ---------------------------------------------------------------------------


def make_page(size=4 * KB):
    return Page(PageId(1, 1), size=size)


def test_page_insert_and_get():
    page = make_page()
    apply_op(page, PageOp("insert", slot=0, row=b"hello"), lsn=10)
    assert page.get(0) == b"hello"
    assert page.page_lsn == 10
    assert page.row_count == 1


def test_page_used_bytes_accounting():
    page = make_page()
    base = page.used_bytes
    assert base == PAGE_HEADER_BYTES
    apply_op(page, PageOp("insert", slot=0, row=b"x" * 100), lsn=1)
    grew = page.used_bytes - base
    assert grew == 100 + 8  # row + slot overhead
    apply_op(page, PageOp("delete", slot=0), lsn=2)
    assert page.used_bytes == base


def test_page_update_changes_bytes():
    page = make_page()
    apply_op(page, PageOp("insert", slot=0, row=b"short"), lsn=1)
    used = page.used_bytes
    apply_op(page, PageOp("update", slot=0, row=b"much longer row"), lsn=2)
    assert page.used_bytes == used + len(b"much longer row") - len(b"short")
    assert page.get(0) == b"much longer row"


def test_page_full_rejected():
    page = make_page(size=256)
    with pytest.raises(PageFullError):
        apply_op(page, PageOp("insert", slot=0, row=b"z" * 300), lsn=1)


def test_page_ops_are_idempotent_by_lsn():
    page = make_page()
    op = PageOp("insert", slot=0, row=b"once")
    apply_op(page, op, lsn=5)
    apply_op(page, op, lsn=5)  # replay: skipped by page-LSN test
    assert page.row_count == 1


def test_stale_op_skipped():
    page = make_page()
    apply_op(page, PageOp("insert", slot=0, row=b"v2"), lsn=10)
    apply_op(page, PageOp("update", slot=0, row=b"v1"), lsn=5)  # older
    assert page.get(0) == b"v2"


def test_double_insert_same_slot_rejected():
    page = make_page()
    apply_op(page, PageOp("insert", slot=0, row=b"a"), lsn=1)
    with pytest.raises(ReproError):
        apply_op(page, PageOp("insert", slot=0, row=b"b"), lsn=2)


def test_update_empty_slot_rejected():
    page = make_page()
    with pytest.raises(ReproError):
        apply_op(page, PageOp("update", slot=3, row=b"x"), lsn=1)


def test_delete_empty_slot_rejected():
    page = make_page()
    with pytest.raises(ReproError):
        apply_op(page, PageOp("delete", slot=3), lsn=1)


def test_format_resets_page():
    page = make_page()
    apply_op(page, PageOp("insert", slot=0, row=b"a"), lsn=1)
    apply_op(page, PageOp("format"), lsn=2)
    assert page.row_count == 0
    assert page.used_bytes == PAGE_HEADER_BYTES
    assert page.page_lsn == 2


def test_clone_is_deep():
    page = make_page()
    apply_op(page, PageOp("insert", slot=0, row=b"orig"), lsn=1)
    clone = page.clone()
    apply_op(page, PageOp("update", slot=0, row=b"mutated"), lsn=2)
    assert clone.get(0) == b"orig"
    assert not clone.same_content(page)


def test_rows_come_in_slot_order_after_a_freed_slot_is_refilled():
    """Refilling a freed slot (the undo of a delete) puts the row back in
    its place in the slot array: scans see slot order - on the page and on
    its clones - and the next append takes the slot after the last."""
    page = make_page()
    for slot in range(4):
        apply_op(page, PageOp("insert", slot=slot, row=b"r%d" % slot), lsn=slot + 1)
    apply_op(page, PageOp("delete", slot=1), lsn=5)
    apply_op(page, PageOp("insert", slot=1, row=b"again"), lsn=6)
    stale_order = page.clone()
    expected = [(0, b"r0"), (1, b"again"), (2, b"r2"), (3, b"r3")]
    assert list(page.slots()) == expected
    assert list(page.rows()) == [row for _slot, row in expected]
    assert list(stale_order.slots()) == expected
    apply_op(page, PageOp("insert", slot=page.allocate_slot(), row=b"r4"), lsn=7)
    assert list(page.slots()) == expected + [(4, b"r4")]
    apply_op(page, PageOp("format"), lsn=8)
    apply_op(page, PageOp("insert", slot=0, row=b"new"), lsn=9)
    assert list(page.slots()) == [(0, b"new")]


def test_invalid_op_kind_rejected():
    with pytest.raises(ValueError):
        PageOp("truncate")


def test_insert_requires_row():
    with pytest.raises(ValueError):
        PageOp("insert", slot=0)


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "update", "delete"]),
            st.binary(min_size=1, max_size=50),
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=40)
def test_engine_and_replay_converge_property(ops):
    """The core log-is-database property: applying the same REDO stream to
    a fresh page reproduces the engine's page exactly."""
    engine_page = Page(PageId(2, 9), size=64 * KB)
    log = []
    lsn = 0
    slots_in_use = set()
    for kind, row in ops:
        lsn += 1
        if kind == "insert":
            op = PageOp("insert", slot=engine_page.allocate_slot(), row=row)
        elif kind == "update":
            if not slots_in_use:
                continue
            op = PageOp("update", slot=sorted(slots_in_use)[0], row=row)
        else:
            if not slots_in_use:
                continue
            op = PageOp("delete", slot=sorted(slots_in_use)[-1])
        apply_op(engine_page, op, lsn)
        log.append((lsn, op))
        if op.kind == "insert":
            slots_in_use.add(op.slot)
        elif op.kind == "delete":
            slots_in_use.discard(op.slot)

    replayed = Page(PageId(2, 9), size=64 * KB)
    for lsn, op in log:
        apply_op(replayed, op, lsn)
    assert replayed.same_content(engine_page)
    assert replayed.used_bytes == engine_page.used_bytes
