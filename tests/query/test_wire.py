"""The push-down wire model: what a fragment's result costs to ship.

``planner.wire_bytes`` prices a result from its table's schema and the
projected positions - the codec's null bitmap and fixed widths, a varchar's
length prefix plus its observed mean length - and both the planner's
eligibility test and the runtime's result sizing use it.
"""

import pytest

from repro.engine.codec import (
    BIGINT,
    DECIMAL,
    FLOAT,
    INT,
    NULL_BITMAP_BYTES,
    VARCHAR,
    Column,
    Schema,
)
from repro.engine.table import Table
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.query.ast import AggCall, BinOp, ColumnRef, Literal
from repro.query.plan import SeqScan
from repro.query.planner import (
    AGG_STATE_BYTES,
    DISTINCT_VALUE_BYTES,
    RESULT_HEADER_BYTES,
    column_widths,
    fragment_wire_bytes,
    wire_bytes,
)

MIXED = Schema(
    [
        Column("i", INT()),
        Column("b", BIGINT()),
        Column("f", FLOAT()),
        Column("d", DECIMAL(2)),
        Column("short", VARCHAR(10)),
        Column("long", VARCHAR(30)),
    ]
)


def empty_table(schema=MIXED):
    return Table("t", schema, [schema.names[0]], space_no=1)


def loaded_table(rows, schema):
    """A table filled through the engine, so its statistics (row count,
    per-page free space) are the ones the engine keeps."""
    dep = Deployment(DeploymentSpec.astore_log(seed=3))
    dep.start()
    engine = dep.engine
    engine.create_table("t", schema, [schema.names[0]])

    def load(env):
        txn = engine.begin()
        for row in rows:
            yield from engine.insert(txn, "t", list(row))
        yield from engine.commit(txn)

    dep.env.run_until_event(dep.env.process(load(dep.env)))
    return engine.catalog.table("t")


def per_row(table, positions):
    """What one more row adds to a result."""
    return wire_bytes(table, positions, 2) - wire_bytes(table, positions, 1)


def test_fixed_widths_are_the_codecs():
    table = empty_table()
    widths = {"i": 4, "b": 8, "f": 8, "d": 8}
    for name, width in widths.items():
        position = MIXED.position(name)
        assert per_row(table, [position]) == NULL_BITMAP_BYTES + width
        assert wire_bytes(table, [position], 10) == (
            RESULT_HEADER_BYTES + 10 * (NULL_BITMAP_BYTES + width)
        )
    # No column: a row is its bitmap (SELECT COUNT(*) ships row counts).
    assert per_row(table, []) == NULL_BITMAP_BYTES
    assert wire_bytes(table, [], 0) == RESULT_HEADER_BYTES


def test_varchar_without_statistics_is_half_its_declared_length():
    table = empty_table()
    widths = column_widths(table)
    assert widths[MIXED.position("short")] == 2 + 10 / 2
    assert widths[MIXED.position("long")] == 2 + 30 / 2


def test_varchar_mean_is_observed_from_page_fill():
    schema = Schema([Column("k", INT()), Column("s", VARCHAR(100))])
    rows = [(k, "x" * (k % 7)) for k in range(1500)]  # spills onto pages
    table = loaded_table(rows, schema)
    assert len(table.page_nos) > 1
    mean = sum(len(s) for _, s in rows) / len(rows)
    assert column_widths(table) == [4, pytest.approx(2 + mean)]
    # A full row costs what it occupies on its page, slot aside.
    encoded = sum(len(schema.encode(list(row))) for row in rows) / len(rows)
    assert wire_bytes(table, [0, 1]) == RESULT_HEADER_BYTES + round(encoded)


def test_observed_varchar_bytes_split_by_declared_length():
    schema = Schema(
        [Column("k", INT()), Column("a", VARCHAR(10)), Column("b", VARCHAR(30))]
    )
    rows = [(k, "a" * 2, "b" * 14) for k in range(50)]
    table = loaded_table(rows, schema)
    _, a, b = column_widths(table)
    assert (a - 2) + (b - 2) == pytest.approx(16)  # the observed bytes
    assert (b - 2) == pytest.approx(3 * (a - 2))  # 30 : 10


def scan(projection, **kwargs):
    return SeqScan(table_name="t", binding="t", projection=projection, **kwargs)


def test_hash_build_ships_only_computed_keys():
    table = empty_table()
    rows = 40
    plain = fragment_wire_bytes(table, scan(("i", "d")), rows)
    assert plain == wire_bytes(table, [0, 3], rows)
    # A key that is a column rides in its projected column...
    keyed = scan(("i", "d"), hash_keys=[ColumnRef("i"), ColumnRef("t.d")])
    assert fragment_wire_bytes(table, keyed, rows) == plain
    # ...a computed key ships its value, priced as the columns it reads.
    computed = scan(
        ("i", "d"), hash_keys=[BinOp("+", ColumnRef("i"), Literal(1))]
    )
    assert fragment_wire_bytes(table, computed, rows) == plain + rows * 4
    assert fragment_wire_bytes(table, computed, rows) == wire_bytes(
        table, [0, 3, 0], rows
    )


def test_partial_groups_ship_samples_states_and_distinct_values():
    table = empty_table()
    aggs = [AggCall("sum", ColumnRef("d")), AggCall("count", None, distinct=False)]
    grouped = scan(("i", "d"), partial_agg=([ColumnRef("i")], aggs))
    groups = 7
    sample = wire_bytes(table, [0, 3], groups) - RESULT_HEADER_BYTES
    assert fragment_wire_bytes(table, grouped, groups) == (
        RESULT_HEADER_BYTES + sample + groups * 2 * AGG_STATE_BYTES
    )
    assert fragment_wire_bytes(table, grouped, groups, distinct_values=5) == (
        fragment_wire_bytes(table, grouped, groups) + 5 * DISTINCT_VALUE_BYTES
    )

