"""Generated kernels vs interpreted ``Expr.eval``, column-major decode, and
property tests over random queries against the row oracle."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common import KB, QueryError
from repro.engine.codec import (
    BIGINT,
    DECIMAL,
    FLOAT,
    INT,
    VARCHAR,
    Column,
    Schema,
)
from repro.query.ast import (
    AggCall,
    Between,
    BinOp,
    ColumnRef,
    Expr,
    InList,
    Like,
    Literal,
    Param,
    UnaryOp,
)
from repro.query import kernels
from repro.query.columnar import ColumnBatch

from .row_oracle import assert_parity, eval_with_aggs


# ---------------------------------------------------------------------------
# Compiled-vs-interpreted matrix (NULL semantics, LIKE, BETWEEN, IN)
# ---------------------------------------------------------------------------

ROWS = [
    {"t.a": 1, "t.b": 10, "t.s": "alpha"},
    {"t.a": 5, "t.b": None, "t.s": "beta"},
    {"t.a": None, "t.b": 3, "t.s": None},
    {"t.a": -2, "t.b": 0, "t.s": "a"},
    {"t.a": 5, "t.b": 5, "t.s": "gamma"},
]

A = ColumnRef("a", "t")
B = ColumnRef("b", "t")
S = ColumnRef("s", "t")

EXPRS = [
    BinOp("=", A, Literal(5)),
    BinOp("!=", A, Literal(5)),
    BinOp("<", A, B),
    BinOp("<=", A, Literal(1)),
    BinOp(">", B, Literal(2)),
    BinOp(">=", A, B),
    BinOp("+", A, B),
    BinOp("-", A, Literal(1)),
    BinOp("*", A, B),
    BinOp("and", BinOp(">", A, Literal(0)), BinOp("<", B, Literal(9))),
    BinOp("or", BinOp("=", A, Literal(-2)), BinOp("=", B, Literal(5))),
    UnaryOp("not", BinOp(">", A, Literal(0))),
    UnaryOp("-", A),
    Between(A, Literal(0), Literal(5)),
    Between(B, Literal(3), Literal(10)),
    InList(A, (1, 5, 7)),
    InList(S, ("alpha", "a")),
    Like(S, "a%"),
    Like(S, "%a"),
    Like(S, "%et%"),
    Like(S, "alpha"),
    # NULL in either operand position, as a literal too.
    BinOp("=", Literal(None), A),
    BinOp("!=", B, Literal(None)),
    BinOp("+", Literal(None), A),
    BinOp("*", B, Literal(None)),
    # Arithmetic (possibly NULL) nested under comparisons and predicates.
    BinOp("<", BinOp("+", A, B), Literal(7)),
    BinOp(">", Literal(3), BinOp("*", A, B)),
    BinOp("<=", BinOp("+", A, B), BinOp("-", B, A)),
    BinOp("=", BinOp("+", A, Literal(1)), BinOp("-", Literal(6), Literal(0))),
    Between(BinOp("+", A, B), Literal(0), Literal(20)),
    Between(A, B, Literal(10)),
    Between(Literal(4), A, B),
    InList(BinOp("+", A, Literal(1)), (2, 6)),
    Like(BinOp("+", S, S), "a%"),
    UnaryOp("-", BinOp("+", A, B)),
    # Truthiness coercion of non-boolean operands.
    BinOp("and", A, B),
    BinOp("or", BinOp("+", A, B), S),
    UnaryOp("not", A),
    UnaryOp("not", BinOp("+", A, B)),
    BinOp("and", BinOp("<", A, Literal(0)), BinOp("<", A, S)),
    # Operands the row's types make fail: the same exception, not a value.
    BinOp("<", A, S),
    BinOp("+", S, B),
    BinOp("/", A, B),
    BinOp("or", BinOp(">", A, Literal(4)), BinOp("<", BinOp("+", A, S), B)),
]


def batch_of(rows, exact=False):
    """A batch of ``rows``; ``exact`` declares a column nullable only if it
    holds a NULL (as a schema would), else every column may."""
    keys = tuple(rows[0].keys())
    arrays = [[row[k] for row in rows] for k in keys]
    nullable = [None in array for array in arrays] if exact else None
    return ColumnBatch(keys, arrays, len(rows), nullable)


def assert_same_outcome(expr, row, compute):
    """``compute()`` gives ``expr.eval(row)``'s value *and type*, or raises
    the same exception type."""
    try:
        want = expr.eval(row)
    except Exception as error:  # noqa: BLE001 - whatever eval raises
        with pytest.raises(type(error)):
            compute()
        return
    got = compute()
    assert got == want and type(got) is type(want), (row, got, want)


@pytest.mark.parametrize("expr", EXPRS, ids=repr)
def test_compiled_row_expr_matches_eval(expr):
    # As Project and Sort evaluate it: one kernel computing several
    # expressions (it among columns it may share variables with) for every
    # row of a batch - and as the oracle's ``eval_with_aggs`` does row by
    # row.
    items = [A, expr, S]
    fine = []
    for row in ROWS:
        assert_same_outcome(expr, row, lambda: eval_with_aggs(expr, row, {}))
        try:
            expr.eval(row)
        except Exception as error:  # noqa: BLE001 - whatever eval raises
            with pytest.raises(type(error)):
                kernels.key_tuples(batch_of(fine + [row]), items)
        else:
            fine.append(row)
    for exact in (False, True):
        values = kernels.key_tuples(batch_of(fine, exact), items) if fine else []
        assert len(values) == len(fine)
        for row, (a, value, s) in zip(fine, values):
            assert (a, s) == (row["t.a"], row["t.s"])
            assert_same_outcome(expr, row, lambda: value)


@pytest.mark.parametrize("expr", EXPRS, ids=repr)
def test_compiled_batch_expr_matches_eval(expr):
    # The generated kernels.  One row per batch (a row that raises must
    # not hide the others), under both nullability declarations.
    for row in ROWS:
        for exact in (False, True):
            batch = batch_of([row], exact)
            assert_same_outcome(
                expr, row, lambda: kernels.key_tuples(batch, [expr])[0][0]
            )
            try:
                want = [0] if expr.eval(row) else []
            except Exception:  # noqa: BLE001 - covered above
                continue
            assert kernels.select(batch, expr) == want, row


def test_param_and_aggcall_compile_to_lazy_raisers():
    empty = ColumnBatch(tuple(ROWS[0]), [[], [], []])
    for expr in (Param(0), AggCall("count", None)):
        # A kernel raises only when a row is evaluated.
        guarded = BinOp("or", BinOp("=", A, Literal(1)), expr)
        assert kernels.select(empty, expr) == []
        assert kernels.select(batch_of(ROWS[:1]), guarded) == [0]
        with pytest.raises(QueryError):
            kernels.select(batch_of(ROWS), guarded)


def test_unresolved_batch_column_raises_on_the_first_row():
    two = ColumnBatch(("t.a", "u.a"), [[1, 0], [2, 3]])
    for batch, ref in ((batch_of(ROWS), ColumnRef("missing")),
                       (two, ColumnRef("a"))):  # ambiguous: t.a or u.a
        with pytest.raises(QueryError) as interpreted:
            ref.eval({k: array[0] for k, array in zip(batch.keys, batch.arrays)})
        message = str(interpreted.value)
        assert message == "column %r not in row" % ref.key
        for expr in (ref, BinOp("<", ref, Literal(3)), Between(ref, A, B),
                     InList(ref, (1,)), Like(ref, "a%"), UnaryOp("-", ref)):
            with pytest.raises(QueryError) as compiled:
                kernels.select(batch, expr)
            assert str(compiled.value) == message
            with pytest.raises(QueryError):
                kernels.key_tuples(batch, [A, expr])
            # Nothing is evaluated over zero rows, so nothing is raised.
            nothing = batch.take([])
            assert kernels.select(nothing, expr) == []
            assert kernels.key_tuples(nothing, [expr]) == []
        # A short-circuit that skips the reference skips the error.
        first = ColumnRef("a", "t")
        skipped = BinOp("or", BinOp("=", first, Literal(1)), ref)
        assert kernels.select(batch.take([0]), skipped) == [0]
    # An unbound parameter left of it raises first, as eval would.
    expr = BinOp("and", Param(0), ColumnRef("missing"))
    with pytest.raises(QueryError, match="unbound parameter"):
        kernels.select(batch_of(ROWS), expr)


def test_an_aggregate_call_reads_the_column_an_aggregate_produced():
    total = AggCall("sum", A)
    batch = ColumnBatch(("t.g", total), [[1, 2, 3], [10.0, None, 30.0]])
    assert kernels.select(batch, Between(total, Literal(5), Literal(15))) == [0]
    assert kernels.key_tuples(
        batch, [BinOp("*", total, Literal(2)), InList(total, (30.0,))]
    ) == [(20.0, False), (None, False), (60.0, True)]
    with pytest.raises(QueryError, match="outside Aggregate"):
        kernels.select(batch, BinOp(">", AggCall("sum", B), Literal(0)))


def test_compile_expr_rejects_unknown_nodes():
    class Exotic(Expr):
        def eval(self, row):
            return True

    # Before any row is read: the lowering knows every node the parser
    # builds, so there is no interpreted fallback to route this to.
    empty = ColumnBatch(tuple(ROWS[0]), [[], [], []])
    for expr in (Exotic(), BinOp("and", BinOp("=", A, Literal(1)), Exotic())):
        with pytest.raises(QueryError, match="cannot evaluate Exotic"):
            kernels.select(empty, expr)


def test_compiled_predicate_coerces_truthiness():
    rows = [{"t.a": 1, "t.b": 1, "t.s": None},
            {"t.a": 1, "t.b": -1, "t.s": None},
            {"t.a": None, "t.b": 4, "t.s": None}]  # NULL arithmetic
    assert kernels.select(batch_of(rows), BinOp("+", A, B)) == [0]


# ---------------------------------------------------------------------------
# Column-major decode equivalence
# ---------------------------------------------------------------------------


def test_decode_into_matches_decode_for_all_types():
    schema = Schema(
        [
            Column("i", INT(), nullable=True),
            Column("big", BIGINT(), nullable=True),
            Column("f", FLOAT(), nullable=True),
            Column("d", DECIMAL(2), nullable=True),
            Column("s", VARCHAR(20), nullable=True),
        ]
    )
    rows = [
        [1, 2**40, 1.5, 12.34, "hello"],
        [-7, -(2**33), -0.25, -99.99, ""],
        [None, None, None, None, None],
        [0, 0, 0.0, 0.0, "unicodeé"],
    ]
    arrays = [[] for _ in schema.names]
    everything = tuple(range(len(schema)))
    for row in rows:
        data = schema.encode(list(row))
        assert schema.decode(data) == row
        assert schema.decode_rows_into([data], everything, arrays) == 1
    for position, _name in enumerate(schema.names):
        assert arrays[position] == [row[position] for row in rows]


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


_num = st.sampled_from([A, B]) | st.integers(-10, 10).map(Literal)
_cmp = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])

_base_predicate = st.one_of(
    st.tuples(_cmp, _num, _num).map(lambda t: BinOp(t[0], t[1], t[2])),
    st.tuples(_num, st.integers(-10, 0), st.integers(1, 10)).map(
        lambda t: Between(t[0], Literal(t[1]), Literal(t[2]))
    ),
    st.tuples(_num, st.lists(st.integers(-10, 10), min_size=1, max_size=4)).map(
        lambda t: InList(t[0], tuple(t[1]))
    ),
    st.tuples(
        st.just(S), st.sampled_from(["a%", "%a", "%lp%", "beta", "%"])
    ).map(lambda t: Like(t[0], t[1])),
)

_predicate = st.recursive(
    _base_predicate,
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["and", "or"]), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        children.map(lambda c: UnaryOp("not", c)),
    ),
    max_leaves=6,
)

_value = st.one_of(st.none(), st.integers(-10, 10))
_text = st.one_of(st.none(), st.sampled_from(["alpha", "beta", "a", "help", ""]))
_row = st.fixed_dictionaries({"t.a": _value, "t.b": _value, "t.s": _text})


@settings(max_examples=200, deadline=None)
@given(expr=_predicate, rows=st.lists(_row, min_size=1, max_size=6))
def test_property_compiled_predicates_match_eval(expr, rows):
    want = [i for i, row in enumerate(rows) if expr.eval(row)]
    assert kernels.select(batch_of(rows), expr) == want
    assert kernels.select(batch_of(rows, exact=True), expr) == want


# Query-level: random filters/projections/group-bys through the full SQL
# engine against the row oracle (engine-side exactly, and under push-down).

_dep_cache = {}


def _query_dep():
    if "dep" not in _dep_cache:
        from repro.common import MB
        from repro.engine.dbengine import EngineConfig
        from repro.harness.deployment import Deployment, DeploymentSpec

        dep = Deployment(
            DeploymentSpec.astore_pq(
                seed=3,
                engine=EngineConfig(buffer_pool_bytes=4 * 16 * KB),
                ebp_capacity_bytes=16 * MB,
            )
        )
        dep.start()
        engine = dep.engine
        engine.create_table(
            "facts",
            Schema(
                [
                    Column("f_id", INT()),
                    Column("grp", INT()),
                    Column("label", VARCHAR(16)),
                    Column("amount", DECIMAL(2)),
                    Column("pad", VARCHAR(600)),
                ]
            ),
            ["f_id"],
        )

        def load(env):
            txn = engine.begin()
            for i in range(400):
                yield from engine.insert(
                    txn,
                    "facts",
                    [i, i % 7, "L%d" % (i % 5), float(i % 90) + 0.25, "p" * 500],
                )
            yield from engine.commit(txn)
            yield env.timeout(0.3)

        dep.env.run_until_event(dep.env.process(load(dep.env)))
        _dep_cache["dep"] = dep
    return _dep_cache["dep"]


_sql_filter = st.one_of(
    st.just(""),
    st.sampled_from(
        [
            "WHERE amount >= 45.25",
            "WHERE grp = 3",
            "WHERE grp IN (1, 2, 5)",
            "WHERE f_id BETWEEN 50 AND 250",
            "WHERE label LIKE 'L1%'",
            "WHERE NOT grp = 0 AND amount < 80.0",
            "WHERE grp = 2 OR grp = 6",
        ]
    ),
)

_sql_projection = st.lists(
    st.sampled_from(["f_id", "grp", "label", "amount"]),
    min_size=1,
    max_size=4,
    unique=True,
)

_sql_aggs = st.lists(
    st.sampled_from(
        [
            "count(*) AS n",
            "sum(amount) AS s",
            "avg(amount) AS av",
            "min(f_id) AS mn",
            "max(f_id) AS mx",
            "count(DISTINCT grp) AS dg",
        ]
    ),
    min_size=1,
    max_size=3,
    unique=True,
)

_sql_query = st.one_of(
    st.tuples(_sql_projection, _sql_filter).map(
        lambda t: "SELECT %s FROM facts %s" % (", ".join(t[0]), t[1])
    ),
    st.tuples(_sql_aggs, _sql_filter, st.booleans()).map(
        lambda t: "SELECT %s FROM facts %s %s"
        % (
            ("grp, " if t[2] else "") + ", ".join(t[0]),
            t[1],
            "GROUP BY grp" if t[2] else "",
        )
    ),
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sql=_sql_query)
def test_property_random_queries_match_across_modes(sql):
    assert_parity(_query_dep(), sql)
