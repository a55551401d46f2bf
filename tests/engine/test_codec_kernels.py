"""The generated codec kernels against the interpreted oracle.

``repro.engine.codec`` compiles straight-line encode/decode kernels per
schema and per null bitmap; ``codec_oracle`` is the per-column interpreter
they replaced.  Every entry point must agree with it byte for byte and
value for value (types included: an ``int`` column decodes to ``int``, a
``DECIMAL(0)`` to ``float``).
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
from repro.query.columnar import decode_page_into

from . import codec_oracle as oracle


def typed(values):
    """Values with their types, so 1 and 1.0 (or 0 and False) differ."""
    return [(type(value), value) for value in values]


def assert_matches_oracle(schema, rows):
    """Every codec entry point agrees with the oracle on ``rows``."""
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

    one_by_one = [[] for _ in schema.columns]
    for data in encoded:
        schema.decode_into(data, one_by_one)
    assert [typed(a) for a in one_by_one] == expected_columns

    bulk = [["kept"] for _ in schema.columns]  # extends, never replaces
    assert schema.decode_rows_into(iter(encoded), bulk) == len(rows)
    assert [typed(a[1:]) for a in bulk] == expected_columns

    page = Page(PageId(1, 1), size=1024 * KB)
    for slot, data in enumerate(encoded):
        apply_op(page, PageOp("insert", slot=slot, row=data), lsn=slot + 1)
    from_page = [[] for _ in schema.columns]
    assert decode_page_into(schema, page, from_page) == len(rows)
    assert [typed(a) for a in from_page] == expected_columns


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
    return schema, draw(st.lists(row, min_size=1, max_size=12))


@given(schemas_with_rows())
@settings(max_examples=150)
def test_kernels_match_oracle_on_random_schemas(schema_and_rows):
    schema, rows = schema_and_rows
    assert_matches_oracle(schema, rows)


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
    assert schema.decode_rows_into([], arrays) == 0
    assert arrays == [[]]


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
