"""A page image decodes each column once: ``Schema.decode_page_into`` and the
decoded-column memo on ``Page``.

The memo is stamped with the image's ``page_lsn`` and its schema; every
mutation goes through ``apply_op``, which advances ``page_lsn``, and
``Page.clone`` shares the memo by reference.  Whatever interleaving of
mutations, clones and scans, a scan must return what decoding the image's
rows right then returns - and what the interpreted codec oracle says.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import KB, MB, PageId
from repro.engine.codec import BIGINT, INT, VARCHAR, Column, Schema
from repro.engine.dbengine import EngineConfig
from repro.engine.page import Page, PageFullError, PageOp, apply_op
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.query.plan import explain
from repro.workloads.tpcch import CH_QUERIES, TpcchDatabase, ch_query_sql

from ..query.row_oracle import RowOracle, assert_rows_close, execute
from ..query.test_columnar import CH_CONFIG
from . import codec_oracle as oracle
from .test_codec_kernels import column_types, typed, value_strategy


def decoded_now(schema, page, positions):
    """What a scan of ``page`` at ``positions`` must return: the rows
    decoded right now, with no memo involved."""
    arrays = [[] for _ in positions]
    assert schema.decode_rows_into(list(page.rows()), positions, arrays) == (
        page.row_count
    )
    return arrays


def scan(schema, page, positions):
    """``decode_page_into`` into fresh arrays, checked against a memo-free
    decode and the oracle; returns the cells it decoded from bytes."""
    memo = page.decoded
    valid = (memo is not None and memo[0] == page.page_lsn
             and memo[1] is schema)
    had = set(memo[2]) if valid else set()
    arrays = [["kept"] for _ in positions]  # extended, never replaced
    rows, cells = schema.decode_page_into(page, positions, arrays)
    assert rows == page.row_count
    assert [a[1:] for a in arrays] == decoded_now(schema, page, positions)
    expected = [oracle.decode(schema, data) for data in page.rows()]
    assert [typed(a[1:]) for a in arrays] == [
        typed(row[p] for row in expected) for p in positions
    ]
    assert cells == rows * len([p for p in positions if p not in had])
    assert page.decoded[0] == page.page_lsn and page.decoded[1] is schema
    # The caller owns its lists: scribbling on them reaches no memo.
    for array in arrays:
        array.append("scribble")
    return cells


# ---------------------------------------------------------------------------
# (a) Random schemas, random interleavings of mutation, clone and scan
# ---------------------------------------------------------------------------


@st.composite
def histories(draw):
    shape = draw(
        st.lists(st.tuples(column_types, st.booleans()), min_size=1, max_size=6)
    )
    schema = Schema([
        Column("c%d" % position, ctype, nullable)
        for position, (ctype, nullable) in enumerate(shape)
    ])
    row = st.tuples(*[
        st.none() | value_strategy(ctype) if nullable else value_strategy(ctype)
        for ctype, nullable in shape
    ]).map(list)
    image = st.integers(min_value=0, max_value=3)
    slot = st.integers(min_value=0, max_value=40)
    projection = st.sets(st.sampled_from(range(len(shape)))).map(sorted).map(tuple)
    insert = st.tuples(st.just("insert"), image, row)
    # Scans come in bursts, so a memo fills projection by projection.
    scan_step = st.tuples(
        st.just("scan"), image, st.lists(projection, min_size=1, max_size=3)
    )
    step = st.one_of(
        insert, insert,
        st.tuples(st.just("update"), image, slot, row),
        st.tuples(st.just("delete"), image, slot),
        st.tuples(st.just("clone"), image),
        scan_step, scan_step, scan_step,
    )
    steps = draw(st.lists(insert, min_size=1, max_size=12))
    steps += draw(st.lists(step, min_size=4, max_size=40))
    # A format (page reallocation) empties an image, so it comes seldom.
    steps.insert(
        draw(st.integers(min_value=0, max_value=len(steps) * 4)),
        ("format", draw(image)),
    )
    return schema, steps


def mutate(schema, page, kind, args):
    """Apply one op at ``page_lsn + 1``: diverged clones of one image reuse
    LSNs on purpose (different bytes, the same LSN on each)."""
    lsn = page.page_lsn + 1
    slots = [slot for slot, _ in page.slots()]
    if kind == "insert":
        data = schema.encode(args[0])
        if page.fits(data):
            apply_op(page, PageOp("insert", slot=page.allocate_slot(), row=data), lsn)
    elif kind == "update" and slots:
        target = slots[args[0] % len(slots)]
        try:
            apply_op(page, PageOp("update", slot=target, row=schema.encode(args[1])), lsn)
        except PageFullError:
            pass
    elif kind == "delete" and slots:
        apply_op(page, PageOp("delete", slot=slots[args[0] % len(slots)]), lsn)
    elif kind == "format":
        apply_op(page, PageOp("format"), lsn)


@given(histories())
@settings(max_examples=100)
def test_every_scan_equals_a_fresh_decode_of_the_image(history):
    schema, steps = history
    images = [Page(PageId(1, 1), size=64 * KB)]
    for kind, index, *args in steps:
        page = images[index % len(images)]
        if kind == "clone":
            if len(images) < 4:
                images.append(page.clone())
        elif kind == "scan":
            for positions in args[0]:
                scan(schema, page, positions)
        else:
            mutate(schema, page, kind, args)
    # Every image, every column, at the end.
    for page in images:
        scan(schema, page, tuple(range(len(schema))))


def test_a_memo_fills_column_by_column_and_is_reused():
    schema = Schema([Column("a", INT()), Column("s", VARCHAR(8), nullable=True),
                     Column("b", BIGINT())])
    page = Page(PageId(1, 1))
    for slot, row in enumerate([[1, "x", 10], [2, None, 20], [3, "zz", 30]]):
        apply_op(page, PageOp("insert", slot=slot, row=schema.encode(row)), slot + 1)
    assert page.decoded is None
    assert scan(schema, page, (0,)) == 3
    assert scan(schema, page, (0, 2)) == 3  # only b is new
    assert scan(schema, page, (0, 2)) == 0
    assert scan(schema, page, ()) == 0
    assert scan(schema, page, (0, 1, 2)) == 3
    assert sorted(page.decoded[2]) == [0, 1, 2]
    # Another schema object reads the same bytes its own way: a fresh memo.
    same_bytes = Schema([Column("a", INT()), Column("s", VARCHAR(8), nullable=True),
                         Column("b1", INT()), Column("b2", INT())])
    assert scan(same_bytes, page, (0, 2, 3)) == 9
    assert page.decoded[1] is same_bytes
    assert scan(schema, page, (2,)) == 3


# ---------------------------------------------------------------------------
# (b) Clone isolation, both directions
# ---------------------------------------------------------------------------

SCHEMA = Schema([Column("k", INT()), Column("v", VARCHAR(16))])


def image(rows, lsn=0):
    page = Page(PageId(1, 7))
    for slot, row in enumerate(rows):
        lsn += 1
        apply_op(page, PageOp("insert", slot=slot, row=SCHEMA.encode(row)), lsn)
    return page


def values(page):
    arrays = [[], []]
    SCHEMA.decode_page_into(page, (0, 1), arrays)
    return [tuple(pair) for pair in zip(*arrays)]


def test_mutating_a_clone_leaves_the_original_alone():
    original = image([[1, "a"], [2, "b"]])
    assert values(original) == [(1, "a"), (2, "b")]
    copy = original.clone()
    assert copy.decoded is original.decoded  # shared while equal
    assert scan(SCHEMA, copy, (0, 1)) == 0
    lsn = copy.page_lsn + 1
    apply_op(copy, PageOp("update", slot=0, row=SCHEMA.encode([1, "changed"])), lsn)
    assert values(copy) == [(1, "changed"), (2, "b")]
    assert values(original) == [(1, "a"), (2, "b")]
    apply_op(copy, PageOp("delete", slot=1), lsn + 1)
    assert values(copy) == [(1, "changed")]
    assert values(original) == [(1, "a"), (2, "b")]


def test_mutating_the_original_leaves_the_clone_alone():
    original = image([[1, "a"], [2, "b"]])
    copy = original.clone()
    assert values(copy) == [(1, "a"), (2, "b")]  # the memo both share
    # The original diverges, and a second clone diverges differently at the
    # very same LSN: neither may read the other's columns.
    other = original.clone()
    lsn = original.page_lsn + 1
    apply_op(original, PageOp("update", slot=1, row=SCHEMA.encode([2, "new"])), lsn)
    apply_op(other, PageOp("insert", slot=2, row=SCHEMA.encode([3, "c"])), lsn)
    assert values(original) == [(1, "a"), (2, "new")]
    assert values(other) == [(1, "a"), (2, "b"), (3, "c")]
    assert values(copy) == [(1, "a"), (2, "b")]
    apply_op(original, PageOp("format"), lsn + 1)
    assert values(original) == []
    assert values(copy) == [(1, "a"), (2, "b")]
    assert values(other) == [(1, "a"), (2, "b"), (3, "c")]


# ---------------------------------------------------------------------------
# (c) End to end: a scan after update + eviction reads the new value
# ---------------------------------------------------------------------------


def run(dep, generator):
    proc = dep.env.process(generator)
    dep.env.run_until_event(proc)
    return proc.value


def test_a_scan_after_an_update_and_an_eviction_reads_the_update():
    dep = Deployment(DeploymentSpec.astore_pq(
        seed=3, engine=EngineConfig(buffer_pool_bytes=4 * 16 * KB),
        ebp_capacity_bytes=16 * MB,
    ))
    dep.start()
    engine = dep.engine
    wide = Schema([Column("k", INT()), Column("v", VARCHAR(16)),
                   Column("pad", VARCHAR(400))])
    engine.create_table("t", wide, ["k"])
    engine.create_table("filler", wide, ["k"])

    def load(env):
        txn = engine.begin()
        for table in ("t", "filler"):
            for k in range(200):
                yield from engine.insert(txn, table, [k, "old%d" % k, "x" * 380])
        yield from engine.commit(txn)

    run(dep, load(dep.env))
    local = dep.new_session(enable_pushdown=False)
    pushed = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    table = engine.catalog.table("t")
    page_id = table.page_id(table.lookup((7,))[0])
    read = "SELECT k, v FROM t WHERE k = 7 OR k = 8 ORDER BY k"
    count = "SELECT count(*) FROM t WHERE v = 'old7' OR v = 'new7'"

    def evict():
        # Scanning the filler pushes every page of t out of the 4-page pool;
        # the EBP writer then caches it.
        execute(dep, local, "SELECT count(*) FROM filler WHERE pad = 'y'")
        run(dep, settle(dep.env))
        assert page_id not in engine.buffer_pool
        assert dep.ebp.index[page_id].lsn == engine.page_versions[page_id]

    def settle(env):
        yield env.timeout(0.05)

    def answers(want7):
        for session in (local, pushed, local, pushed):
            assert execute(dep, session, read).rows == [(7, want7), (8, "old8")]
            assert execute(dep, session, count).rows == [(1,)]
            evict()

    assert "PUSHDOWN" not in explain(local.plan(read))
    assert "PUSHDOWN" in explain(pushed.plan(read))
    answers("old7")  # memos on the frames, then on the EBP's copies
    execute(dep, local, "UPDATE t SET v = 'new7' WHERE k = 7")
    before = dep.registry.value("query.scan.cells_uncached")
    answers("new7")
    assert dep.registry.value("query.scan.cells_uncached") > before
    # The EBP copy of the updated image was decoded at its own LSN.
    stamp, schema, _ = run(dep, dep.ebp.get_page(page_id, 0)).decoded
    assert (stamp, schema) == (engine.page_versions[page_id], wide)


# ---------------------------------------------------------------------------
# (d) The CH queries twice: the second pass reads its columns from memos
# ---------------------------------------------------------------------------


def test_ch_queries_decode_each_page_once():
    dep = Deployment(DeploymentSpec.astore_pq(
        seed=11, engine=EngineConfig(buffer_pool_bytes=4 * 16 * KB),
        ebp_capacity_bytes=64 * MB,
    ))
    dep.start()
    database = TpcchDatabase(dep.engine, CH_CONFIG, dep.seeds.stream("ch-load"))

    def load(env):
        yield from database.load()
        yield env.timeout(0.3)

    run(dep, load(dep.env))
    sqls = [ch_query_sql(number) for number in sorted(CH_QUERIES)]
    want = [execute(dep, RowOracle(dep.engine, True), sql) for sql in sqls]
    session = dep.new_session(enable_pushdown=True, force_hash_joins=True)
    registry = dep.registry
    for _pass in range(2):
        before = {name: registry.value("query.scan." + name)
                  for name in ("cells_decoded", "cells_uncached")}
        for sql, expected in zip(sqls, want):
            got = execute(dep, session, sql)
            assert got.columns == expected.columns, sql
            assert_rows_close(got.rows, expected.rows, sql)
        decoded, uncached = (registry.value("query.scan." + name) - before[name]
                             for name in ("cells_decoded", "cells_uncached"))
        assert 0 < uncached <= decoded
    assert uncached < 0.25 * decoded, (uncached, decoded)
