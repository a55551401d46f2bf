"""The generated codec kernels against the interpreted oracle.

``repro.engine.codec`` compiles straight-line encode/decode kernels per
schema and per null bitmap, and one column-major decode kernel per
projected column set; ``codec_oracle`` is the per-column interpreter they
replaced.  Every entry point must agree with it byte for byte and value for
value (types included: an ``int`` column decodes to ``int``, a
``DECIMAL(0)`` to ``float``), the projected kernels on exactly the columns
they were asked for.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import KB, PageId, QueryError
from repro.engine import codec
from repro.engine.codec import (
    BIGINT,
    DECIMAL,
    FLOAT,
    INT,
    VARCHAR,
    Column,
    Schema,
)
from repro.engine.page import Page, PageOp, apply_op

from . import codec_oracle as oracle


def typed(values):
    """Values with their types, so 1 and 1.0 (or 0 and False) differ."""
    return [(type(value), value) for value in values]


def every_projection(width):
    """All ascending position tuples over ``width`` columns."""
    return [
        positions
        for size in range(width + 1)
        for positions in itertools.combinations(range(width), size)
    ]


def sampled_projections(width):
    """Nothing, everything, each column alone, each prefix and suffix: the
    shapes that decide where a kernel pads, skips a varchar and stops."""
    everything = tuple(range(width))
    sample = {(), everything}
    for position in everything:
        sample |= {(position,), everything[:position], everything[position:]}
    return sorted(sample)


def assert_matches_oracle(schema, rows, projections=None):
    """Every codec entry point agrees with the oracle on ``rows``; the
    column-major kernel for each of ``projections`` (default: every subset
    of a narrow schema, a sample of a wide one) on the columns it names."""
    encoded = []
    for row in rows:
        data = schema.encode(row)
        assert data == oracle.encode(schema, row)
        assert typed(schema.decode(data)) == typed(oracle.decode(schema, data))
        encoded.append(data)
    expected_rows = [oracle.decode(schema, data) for data in encoded]
    expected_columns = [
        typed(row[position] for row in expected_rows)
        for position in range(len(schema))
    ]
    assert [typed(r) for r in schema.decode_rows(encoded)] == [
        typed(r) for r in expected_rows
    ]

    page = Page(PageId(1, 1), size=1024 * KB)
    for slot, data in enumerate(encoded):
        apply_op(page, PageOp("insert", slot=slot, row=data), lsn=slot + 1)

    if projections is None:
        width = len(schema)
        projections = (
            every_projection(width) if width <= 6 else sampled_projections(width)
        )
    for positions in projections:
        expected = [expected_columns[position] for position in positions]

        bulk = [["kept"] for _ in positions]  # extends, never replaces
        assert schema.decode_rows_into(iter(encoded), positions, bulk) == len(rows)
        assert [typed(a[1:]) for a in bulk] == expected

        one_by_one = [[] for _ in positions]
        for data in encoded:
            assert schema.decode_rows_into((data,), positions, one_by_one) == 1
        assert [typed(a) for a in one_by_one] == expected

        from_page = [[] for _ in positions]  # a page's rows, in slot order
        assert schema.decode_rows_into(page.rows(), positions, from_page) == len(rows)
        assert [typed(a) for a in from_page] == expected


# ---------------------------------------------------------------------------
# Random schemas and rows
# ---------------------------------------------------------------------------

column_types = st.one_of(
    st.just(INT()),
    st.just(BIGINT()),
    st.just(FLOAT()),
    st.integers(min_value=0, max_value=4).map(DECIMAL),
    st.sampled_from([0, 8, 40]).map(VARCHAR),
)


def value_strategy(ctype):
    if ctype.name == "int":
        return st.integers(min_value=-(2**31), max_value=2**31 - 1)
    if ctype.name == "bigint":
        return st.integers(min_value=-(2**63), max_value=2**63 - 1)
    if ctype.name == "float":
        return st.floats(allow_nan=False)
    if ctype.name == "decimal":
        # Scaled by at most 10**4 this stays inside a signed 64-bit int.
        return st.floats(min_value=-1e12, max_value=1e12)
    # UTF-8 spends up to four bytes per code point.
    return st.text(max_size=ctype.max_length // 4 if ctype.max_length else 30)


@st.composite
def schemas_with_rows(draw):
    shape = draw(
        st.lists(st.tuples(column_types, st.booleans()), min_size=1, max_size=8)
    )
    schema = Schema(
        [
            Column("c%d" % position, ctype, nullable)
            for position, (ctype, nullable) in enumerate(shape)
        ]
    )
    row = st.tuples(
        *[
            st.none() | value_strategy(ctype) if nullable else value_strategy(ctype)
            for ctype, nullable in shape
        ]
    ).map(list)
    subset = st.sets(st.sampled_from(range(len(shape)))).map(sorted).map(tuple)
    projections = draw(st.lists(subset, max_size=4))
    return (
        schema,
        draw(st.lists(row, min_size=1, max_size=12)),
        sampled_projections(len(shape)) + projections,
    )


@given(schemas_with_rows())
@settings(max_examples=150)
def test_kernels_match_oracle_on_random_schemas(schema_rows_projections):
    schema, rows, projections = schema_rows_projections
    assert_matches_oracle(schema, rows, projections)
    assert len(schema._projected) <= codec._KERNEL_CACHE_LIMIT


# ---------------------------------------------------------------------------
# Every null bitmap, boundary values
# ---------------------------------------------------------------------------

SIX = [
    ("i", INT(), -(2**31)),
    ("s", VARCHAR(12), "naïve ✓"),
    ("big", BIGINT(), 2**63 - 1),
    ("d", DECIMAL(2), -1234.56),
    ("f", FLOAT(), float("-inf")),
    ("t", VARCHAR(0), ""),
]


def test_every_null_bitmap_of_six_columns():
    for width in range(1, len(SIX) + 1):
        schema = Schema(
            [Column(name, ctype, nullable=True) for name, ctype, _ in SIX[:width]]
        )
        rows = [
            [None if null else value for null, (_, _, value) in zip(nulls, SIX)]
            for nulls in itertools.product([False, True], repeat=width)
        ]
        assert len(rows) == 2**width
        assert_matches_oracle(schema, rows)


def test_nullable_mix_only_marks_nullable_columns():
    schema = Schema(
        [
            Column(name, ctype, nullable=position % 2 == 1)
            for position, (name, ctype, _) in enumerate(SIX)
        ]
    )
    rows = [
        [None if null and position % 2 == 1 else value
         for position, (null, (_, _, value)) in enumerate(zip(nulls, SIX))]
        for nulls in itertools.product([False, True], repeat=len(SIX))
    ]
    assert_matches_oracle(schema, rows)


def test_boundary_values_roundtrip_exactly():
    schema = Schema([Column(name, ctype) for name, ctype, _ in SIX])
    rows = [
        [-(2**31), "", -(2**63), 0.0, -0.0, "é" * 1000],
        [2**31 - 1, "twelve bytes", 2**63 - 1, 0.1 + 0.2, 5e-324, "\U0001f600"],
        [0, "日本語", 0, 92233720368547.0, 1.7976931348623157e308, ""],
    ]
    assert_matches_oracle(schema, rows)
    assert schema.decode(schema.encode(rows[1]))[3] == 0.3


def test_decode_rows_of_nothing():
    schema = Schema([Column("a", INT(), nullable=True)])
    arrays = [[]]
    assert schema.decode_rows([]) == []
    assert schema.decode_rows_into([], (0,), arrays) == 0
    assert arrays == [[]]
    assert schema.decode_rows_into([], (), []) == 0


def test_empty_projection_counts_rows_and_reads_none():
    schema = Schema([Column("a", INT()), Column("s", VARCHAR(4), nullable=True)])
    # Not even valid rows: nothing of them is looked at.
    assert schema.decode_rows_into(iter([b"", b"junk", b""]), (), []) == 3


def test_unread_columns_are_never_materialised():
    schema = Schema(
        [Column("a", INT()), Column("s", VARCHAR(8)), Column("b", INT()),
         Column("t", VARCHAR(8)), Column("c", INT())]
    )
    broken = b"\xff\xfe"  # not UTF-8: decoding it would raise
    data = bytearray(schema.encode([1, "xx", 2, "yy", 3]))
    data[data.index(b"xx"):data.index(b"xx") + 2] = broken
    data[data.index(b"yy"):data.index(b"yy") + 2] = broken
    arrays = [[], []]
    assert schema.decode_rows_into([bytes(data)], (0, 2), arrays) == 1
    assert arrays == [[1], [2]]
    with pytest.raises(UnicodeDecodeError):
        schema.decode_rows_into([bytes(data)], (1,), [[]])
    # ... and the kernel stops at its last column: c's bytes may be missing.
    assert schema.decode_rows_into([bytes(data[:-4])], (0, 2), arrays) == 1


@pytest.mark.parametrize(
    "positions", [(1, 0), (0, 0), (2,), (-1,), (0, 1, 2)]
)
def test_projection_must_be_ascending_schema_positions(positions):
    schema = Schema([Column("a", INT()), Column("b", INT())])
    with pytest.raises(QueryError, match="not ascending schema positions"):
        schema.decode_rows_into([], positions, [[] for _ in positions])


# ---------------------------------------------------------------------------
# Errors keep their messages, and their order
# ---------------------------------------------------------------------------

ERROR_SCHEMA = Schema(
    [
        Column("id", INT()),
        Column("name", VARCHAR(4), nullable=True),
        Column("qty", INT()),
        Column("note", VARCHAR(3)),
    ]
)


@pytest.mark.parametrize(
    "row, message",
    [
        ([1, "ab"], "row has 2 values, schema has 4 columns"),
        ([1, "ab", 2, "xyz", 5], "row has 5 values, schema has 4 columns"),
        ([None, "ab", 2, "xyz"], "column id is not nullable"),
        ([1, None, None, "xyz"], "column qty is not nullable"),
        ([1, "abcde", 2, "xyz"], "value too long for name(4)"),
        ([1, "ééé", 2, "xyz"], "value too long for name(4)"),  # bytes, not chars
        ([1, None, 2, "wxyz"], "value too long for note(3)"),
        # The first offending column wins, as in the interpreter.
        ([1, "abcde", None, "xyz"], "value too long for name(4)"),
        ([1, "ab", None, "wxyz"], "column qty is not nullable"),
    ],
)
def test_query_errors_keep_their_messages(row, message):
    with pytest.raises(QueryError) as expected:
        oracle.encode(ERROR_SCHEMA, row)
    with pytest.raises(QueryError) as raised:
        ERROR_SCHEMA.encode(row)
    assert str(raised.value) == str(expected.value) == message


def test_unsupported_type_rejected_when_the_schema_is_built():
    with pytest.raises(QueryError, match="unsupported type 'blob'"):
        Schema([Column("b", codec.ColumnType("blob"))])


# ---------------------------------------------------------------------------
# Per-bitmap kernel cache
# ---------------------------------------------------------------------------


def test_null_kernels_are_compiled_once_per_bitmap(monkeypatch):
    built = []
    define = codec._define

    def recording_define(columns, name, *rest):
        built.append(name)
        return define(columns, name, *rest)

    monkeypatch.setattr(codec, "_define", recording_define)
    schema = Schema(
        [Column("a", INT(), nullable=True), Column("b", INT(), nullable=True)]
    )
    assert sorted(built) == ["decode_0", "decode_rows", "encode_0"]
    for _ in range(3):
        for row in ([1, 2], [None, 2], [1, None]):
            assert schema.decode_rows([schema.encode(row)]) == [row]
            assert schema.decode(schema.encode(row)) == row
    # Two non-zero bitmaps, one kernel each way for each.
    assert sorted(built[3:]) == ["decode_1", "decode_2", "encode_1", "encode_2"]

    # Column-major kernels: nothing until a projection is first used, then
    # one per projection and one per (projection, bitmap it has to skip).
    del built[:]
    for _ in range(3):
        for row in ([1, 2], [None, 2], [1, None]):
            data = [schema.encode(row)]
            first, second = [], []
            schema.decode_rows_into(data, (0,), [first])
            schema.decode_rows_into(data, (1,), [second])
            assert [first, second] == [[row[0]], [row[1]]]
    assert sorted(built) == [
        "decode_1_into_1",  # a alone never looks at b's bit
        "decode_1_into_2",
        "decode_2_into_2",
        "decode_into_1",
        "decode_into_2",
    ]


def test_kernel_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(codec, "_KERNEL_CACHE_LIMIT", 8)
    schema = Schema([Column("c%d" % i, INT(), nullable=True) for i in range(5)])
    rows = [
        [None if null else position for position, null in enumerate(nulls)]
        for nulls in itertools.product([False, True], repeat=5)
    ]
    assert_matches_oracle(schema, rows + rows[::-1])
    for function in (schema.encode, schema.decode):
        assert len(function.__globals__["null_kernels"]) <= 8
    # 32 projections of 5 columns went through a cache of 8, each with its
    # own cache of per-bitmap kernels.
    assert 0 < len(schema._projected) <= 8
    for kernel in schema._projected.values():
        assert len(kernel.__globals__["null_kernels"]) <= 8
