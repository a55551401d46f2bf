"""Unit tests for the storage-side fragment executor (pure compute)."""

import pytest

from repro.common import KB, PageId, QueryError
from repro.engine.codec import DECIMAL, INT, VARCHAR, Column, Schema
from repro.engine.page import Page, PageOp, apply_op
from repro.query.ast import AggCall, BinOp, ColumnRef, Expr, Literal
from repro.query.executor import (
    PushdownFragment, RuntimeFilter, finalize_groups, fold_groups,
)
from repro.query.pushdown import execute_fragment_on_pages


SCHEMA = Schema(
    [Column("id", INT()), Column("grp", INT()), Column("amount", DECIMAL(2))]
)


def make_pages(rows, per_page=4):
    pages = []
    lsn = 0
    for start in range(0, len(rows), per_page):
        page = Page(PageId(1, start // per_page), size=4 * KB)
        for offset, row in enumerate(rows[start : start + per_page]):
            lsn += 1
            apply_op(
                page,
                PageOp("insert", slot=offset, row=SCHEMA.encode(list(row))),
                lsn,
            )
        pages.append(page)
    return pages


def fragment(filter_expr=None, partial_agg=None, projection=SCHEMA.names):
    frag = PushdownFragment(
        table_name="t",
        binding="t",
        projection=tuple(projection),
        filter=filter_expr,
        partial_agg=partial_agg,
        schema=SCHEMA,
    )
    return frag


ROWS = [(i, i % 3, float(i)) for i in range(20)]


def test_plain_scan_returns_all_rows():
    (kind, batch), scanned = execute_fragment_on_pages(fragment(), make_pages(ROWS))
    assert kind == "batch"
    assert scanned == 20
    assert batch.n == 20
    assert batch.column("t.id")[0] == 0


def test_filter_applies():
    filt = BinOp(">=", ColumnRef("amount", "t"), Literal(15.0))
    (kind, batch), scanned = execute_fragment_on_pages(
        fragment(filt), make_pages(ROWS)
    )
    assert scanned == 20  # the fragment scans everything...
    assert batch.n == 5  # ...but returns only matches


def test_partial_aggregation_groups():
    aggs = [AggCall("count", None), AggCall("sum", ColumnRef("amount", "t"))]
    groups = [ColumnRef("grp", "t")]
    (kind, (keys, samples, states)), _ = execute_fragment_on_pages(
        fragment(partial_agg=(groups, aggs)), make_pages(ROWS)
    )
    assert kind == "partials"
    assert keys == [(0,), (1,), (2,)]  # grp, first-seen order
    # Each group's sample is its first row, in the fragment's projection.
    assert samples.keys == ("t.id", "t.grp", "t.amount")
    assert samples.arrays == [[0, 1, 2], [0, 1, 2], [0.0, 1.0, 2.0]]
    final = finalize_groups(samples, states, aggs, True)
    totals = dict(zip(
        final.column("t.grp"), zip(final.column(aggs[0]), final.column(aggs[1]))
    ))
    for grp in range(3):
        expected = [r for r in ROWS if r[1] == grp]
        assert totals[grp][0] == len(expected)
        assert totals[grp][1] == pytest.approx(sum(r[2] for r in expected))


def test_partials_merge_across_tasks():
    """Merging per-server partials equals one global aggregation."""
    aggs = [
        AggCall("count", None),
        AggCall("sum", ColumnRef("amount", "t")),
        AggCall("min", ColumnRef("amount", "t")),
        AggCall("max", ColumnRef("amount", "t")),
        AggCall("avg", ColumnRef("amount", "t")),
    ]
    groups = []
    pages = make_pages(ROWS)
    # Split the pages across two "servers".
    (_, part_a), _ = execute_fragment_on_pages(
        fragment(partial_agg=(groups, aggs)), pages[:2]
    )
    (_, part_b), _ = execute_fragment_on_pages(
        fragment(partial_agg=(groups, aggs)), pages[2:]
    )
    assert part_a[0] == part_b[0] == [()]
    # What the dispatcher's _Merge and the engine's fold do with them.
    samples = part_a[1]
    samples.extend(part_b[1])
    keys, samples, states = fold_groups(
        part_a[0] + part_b[0], samples, part_a[2] + part_b[2], aggs
    )
    assert (keys, samples.column("t.id")) == ([()], [0])  # first-seen sample
    final = finalize_groups(samples, states, aggs, False)
    values = {agg: final.column(agg)[0] for agg in aggs}
    amounts = [r[2] for r in ROWS]
    assert values[aggs[0]] == 20
    assert values[aggs[1]] == pytest.approx(sum(amounts))
    assert values[aggs[2]] == min(amounts)
    assert values[aggs[3]] == max(amounts)
    assert values[aggs[4]] == pytest.approx(sum(amounts) / len(amounts))


def test_partial_aggregation_applies_runtime_filters():
    """Every output comes after the runtime filters: partial groups too."""
    aggs = [AggCall("count", None)]
    frag = fragment(partial_agg=([ColumnRef("grp", "t")], aggs))
    frag.runtime_filters = (
        RuntimeFilter([ColumnRef("id", "t")], {(1,), (2,), (4,)}, 0, "b"),
    )
    (kind, (keys, samples, states)), scanned = execute_fragment_on_pages(
        frag, make_pages(ROWS)
    )
    assert (kind, scanned, keys) == ("partials", 20, [(1,), (2,)])
    assert samples.column("t.id") == [1, 2]
    assert finalize_groups(samples, states, aggs, True).column(aggs[0]) == [2, 1]


def test_empty_pages():
    (kind, batch), scanned = execute_fragment_on_pages(fragment(), [])
    assert kind == "batch"
    assert (batch.n, batch.arrays) == (0, [[], [], []])
    assert scanned == 0


def test_hash_build_fragment_returns_keys_and_batch():
    filt = BinOp(">=", ColumnRef("amount", "t"), Literal(10.0))
    frag = fragment(filt)
    frag.hash_keys = [ColumnRef("grp", "t")]
    (kind, payload), scanned = execute_fragment_on_pages(frag, make_pages(ROWS))
    assert kind == "hash"
    key_tuples, batch = payload
    assert scanned == 20
    assert batch.n == 10
    assert len(key_tuples) == batch.n
    assert key_tuples == [(r[1],) for r in ROWS if r[2] >= 10.0]


# ---------------------------------------------------------------------------
# Projection, and expressions the kernels cannot lower
# ---------------------------------------------------------------------------


def test_fragment_decodes_and_returns_only_its_projection():
    filt = BinOp(">=", ColumnRef("amount", "t"), Literal(15.0))
    (kind, batch), scanned = execute_fragment_on_pages(
        fragment(filt, projection=("id", "amount")), make_pages(ROWS)
    )
    assert (kind, scanned) == ("batch", 20)
    assert batch.keys == ("t.id", "t.amount")
    assert batch.arrays == [
        list(range(15, 20)), [float(i) for i in range(15, 20)]
    ]
    # No column at all still counts the rows.
    (kind, batch), scanned = execute_fragment_on_pages(
        fragment(projection=()), make_pages(ROWS)
    )
    assert (kind, scanned, batch.keys, batch.n) == ("batch", 20, (), 20)


def test_fragment_cannot_read_outside_its_projection():
    filt = BinOp(">=", ColumnRef("amount", "t"), Literal(15.0))
    with pytest.raises(QueryError, match="column 't.amount' not in row"):
        execute_fragment_on_pages(
            fragment(filt, projection=("id", "grp")), make_pages(ROWS)
        )


class Opaque(Expr):
    """An expression node the lowering has never heard of."""

    def __init__(self, inner):
        self.inner = inner

    def eval(self, row):
        raise AssertionError("a fragment interprets no expression")

    def columns(self):
        return self.inner.columns()


@pytest.mark.parametrize("shape", ["batch", "hash", "partials"])
def test_unknown_expr_subclass_is_a_query_error(shape):
    """There is one way to run a fragment - the generated kernels - and an
    expression they cannot lower fails the fragment, rows or no rows."""
    amount, grp = ColumnRef("amount", "t"), ColumnRef("grp", "t")
    aggs = [AggCall("count", None), AggCall("sum", amount)]

    def run(wrap, pages):
        frag = fragment(
            wrap(BinOp(">=", amount, Literal(10.0))),
            partial_agg=([grp], aggs) if shape == "partials" else None,
            projection=("grp", "amount"),
        )
        if shape == "hash":
            frag.hash_keys = [wrap(grp)]
        (kind, _payload), scanned = execute_fragment_on_pages(frag, pages)
        return kind, scanned

    assert run(lambda expr: expr, make_pages(ROWS)) == (shape, 20)
    for pages in (make_pages(ROWS), []):
        with pytest.raises(QueryError, match="cannot evaluate Opaque"):
            run(Opaque, pages)
