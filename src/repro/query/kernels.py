"""Generated operator kernels: one Python function per pipeline breaker.

A plan has five kinds of loop that touch every row: a *selection*
(filter -> selection vector), a *hash build* (filter -> key tuple ->
dict), a *probe* (key -> lookup -> residual -> left/right selection
vectors), a *group-by* (filter -> key -> accumulate) and a *tuple
extraction* (expressions -> one tuple per row: join and index-probe keys,
a Project's values, a Sort's keys).  This module lowers the
``repro.query.ast`` algebra to Python **source** once per operator call
and runs each of those loops as one generated function: a column reference
is a loop variable fed by ``zip`` over the column arrays, ``binop_apply``'s
NULL rules are inlined (and dropped where the schema says a column cannot
be NULL), and aggregates update a flat per-group state list specialised
per (function, DISTINCT, nullable argument).  The engine's operators and
the storage-side fragment executor both call these kernels, so they stay
one implementation.

The lowering follows ``Expr.eval`` exactly - operand order, which
operands a short-circuit skips, ``TypeError`` from mismatched operand
types, ``QueryError`` from an unbound ``Param``, a stray ``AggCall`` or a
column the batch lacks (or holds twice under one bare name) only when a
row is actually evaluated - so a kernel returns the value *and type* the
interpreter would, and a zero-row input stays silent.  Over an
Aggregate's output an ``AggCall`` is the column of that key.  An ``Expr``
subclass the lowering has never heard of is a ``QueryError`` before any
row is evaluated.

Kernels are cached by their generated source.  Literals, bound
parameters, IN lists and LIKE patterns are passed to the kernel as
arguments, never interpolated, so a repeated statement - or a prepared
statement bound to new parameters - generates the same source and
compiles nothing.  As in ``repro.engine.codec`` the code object's file
name carries this module's path: profilers that bucket by path charge a
kernel's time to the query layer.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple
from zlib import crc32

from ..common import QueryError
from .ast import (
    _CMP_OPS,
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
from .columnar import ColumnBatch, resolve_column

__all__ = [
    "AGG_SLOTS",
    "group_by",
    "hash_build",
    "key_tuples",
    "nullable",
    "probe",
    "select",
    "weighted_fold",
]

#: Kernels kept, by generated source.  A workload compiles a few per
#: distinct statement; the cap bounds what ad-hoc statements can pin.
_KERNEL_CACHE_LIMIT = 256
_kernels: Dict[str, Callable] = {}

#: Slots per aggregate in a group's flat state list: count, total, minimum,
#: maximum, distinct (a value set, None unless DISTINCT).  Slot 0 of the
#: list is the group's first row index.
AGG_SLOTS = 5


def _fail(message: str) -> Any:
    raise QueryError(message)


def _compile(kind: str, params: str, body: List[str], registry) -> Callable:
    """The kernel ``def kind(n, cols, k<params>): body``, compiled on first
    sight of its source."""
    source = "def %s(n, cols, k%s):\n    %s\n" % (
        kind, params, "\n    ".join(body)
    )
    kernel = _kernels.get(source)
    if kernel is None:
        if len(_kernels) >= _KERNEL_CACHE_LIMIT:
            _kernels.clear()
        namespace: Dict[str, Any] = {"_fail": _fail}
        # pstats keys on (file, line, name): the checksum keeps one kernel
        # from overwriting another of its kind there.
        filename = "<%s %s kernel %08x>" % (__file__, kind, crc32(source.encode()))
        exec(compile(source, filename, "exec"), namespace)
        kernel = _kernels[source] = namespace[kind]
        if registry is not None:
            registry.incr("query.kernels.compiled")
    return kernel


# ---------------------------------------------------------------------------
# Expr -> source
# ---------------------------------------------------------------------------


class _Term(NamedTuple):
    """One lowered expression."""

    src: str
    #: May evaluate to None.
    nullable: bool
    #: A bare variable: free to repeat, cannot raise.
    leaf: bool = False
    #: Always a bool: a boolean context needs no ``bool()`` around it.
    boolean: bool = False


class _Columns:
    """Binds column references to a batch.  Array ``c<p>`` is column ``p``
    of the batch (``read`` lists those a kernel unpacks from ``cols``, in
    first-use order); ``v<p>`` is the loop variable running over it."""

    def __init__(self, batch: ColumnBatch):
        self.batch = batch
        self.read: List[int] = []
        self.looped: List[int] = []

    def __call__(self, ref: ColumnRef) -> Optional[Tuple[str, bool]]:
        """:meth:`at` the column ``ref`` names, if it names one."""
        position = resolve_column(self.batch.keys, ref)
        return None if position is None else self.at(position)

    def at(self, position: int) -> Tuple[str, bool]:
        """``(loop variable, nullable)`` of column ``position``."""
        return self.variable(position), self.batch.nullable[position]

    def array(self, position: int) -> str:
        if position not in self.read:
            self.read.append(position)
        return "c%d" % position

    def variable(self, position: int) -> str:
        self.array(position)
        if position not in self.looped:
            self.looped.append(position)
        return "v%d" % position

    def arrays(self) -> List[List[Any]]:
        return [self.batch.arrays[p] for p in self.read]

    def bare(self, exprs: Sequence[Expr]) -> Optional[str]:
        """``zip(c<p>, ...)`` yielding the key tuples of ``exprs`` when each
        is a bare reference to a column (and there is one at all)."""
        positions = [
            resolve_column(self.batch.keys, expr)
            if isinstance(expr, ColumnRef) else None
            for expr in exprs
        ]
        if not positions or None in positions:
            return None
        return "zip(%s)" % ", ".join(self.array(p) for p in positions)

    def loop(self, *leading: Tuple[str, str]) -> str:
        """``for <variables> in <arrays>``, after any ``leading`` (name,
        iterable) streams; an empty loop still runs ``n`` times."""
        streams = list(leading) + [("v%d" % p, "c%d" % p) for p in self.looped]
        if not streams:
            streams = [("_", "range(n)")]
        names, sources = zip(*streams)
        if len(streams) == 1:
            return "for %s in %s" % (names[0], sources[0])
        return "for %s in zip(%s)" % (", ".join(names), ", ".join(sources))


class _Lowering:
    """Lowers expressions over ``batch`` to source: a column reference is
    the variable ``resolve`` hands out (``columns``' unless a kernel
    overrides it), or a raise when it hands out none; constants collect in
    ``consts`` and appear as ``k<i>``."""

    def __init__(self, batch: ColumnBatch):
        self.columns = _Columns(batch)
        self.resolve: Callable[
            [ColumnRef], Optional[Tuple[str, bool]]
        ] = self.columns
        self.consts: List[Any] = []
        self._temps = 0

    def const(self, value: Any) -> str:
        self.consts.append(value)
        return "k%d" % (len(self.consts) - 1)

    def _bound(self, term: _Term) -> Tuple[str, str]:
        """``(first use, later uses)`` of a term that is read twice."""
        if term.leaf:
            return term.src, term.src
        self._temps += 1
        name = "t%d" % self._temps
        return "(%s := %s)" % (name, term.src), name

    def tuple_of(self, exprs: Sequence[Expr]) -> str:
        return "(%s)" % "".join("%s, " % self.term(expr).src for expr in exprs)

    def truth(self, expr: Expr) -> str:
        term = self.term(expr)
        return term.src if term.boolean else "bool(%s)" % term.src

    def _raises(self, message: str) -> _Term:
        """What ``Expr.eval`` would raise, once a row is evaluated."""
        return _Term("_fail(%s)" % self.const(message), True)

    def term(self, expr: Expr) -> _Term:
        if isinstance(expr, ColumnRef):
            bound = self.resolve(expr)
            if bound is None:
                return self._raises("column %r not in row" % expr.key)
            return _Term(*bound, leaf=True)
        if isinstance(expr, Literal):
            return _Term(self.const(expr.value), expr.value is None, leaf=True)
        if isinstance(expr, BinOp):
            if expr.op in ("and", "or"):
                left = self.truth(expr.left)
                src = "(%s %s %s)" % (left, expr.op, self.truth(expr.right))
                return _Term(src, False, boolean=True)
            return self._binop(expr)
        if isinstance(expr, UnaryOp):
            if expr.op == "not":
                return _Term("(not %s)" % self.term(expr.operand).src, False,
                             boolean=True)
            if expr.op == "-":
                return _Term("(-%s)" % self.term(expr.operand).src, False)
            raise QueryError("unknown unary op %r" % expr.op)
        if isinstance(expr, Between):
            operand = self.term(expr.operand)
            first, value = self._bound(operand)
            low = self.term(expr.low).src
            chain = "%s <= %s <= %s" % (low, value, self.term(expr.high).src)
            return self._unless_null(operand, first, chain)
        if isinstance(expr, InList):
            src = "(%s in %s)" % (self.term(expr.operand).src,
                                  self.const(expr.options))
            return _Term(src, False, boolean=True)
        if isinstance(expr, Like):
            operand = self.term(expr.operand)
            first, value = self._bound(operand)
            pattern = expr.pattern
            if pattern.startswith("%") and pattern.endswith("%"):
                test = "%s in %s" % (self.const(pattern[1:-1]), value)
            elif pattern.endswith("%"):
                test = "%s.startswith(%s)" % (value, self.const(pattern[:-1]))
            elif pattern.startswith("%"):
                test = "%s.endswith(%s)" % (value, self.const(pattern[1:]))
            else:
                test = "%s == %s" % (value, self.const(pattern))
            return self._unless_null(operand, first, test)
        if isinstance(expr, Param):
            return self._raises(
                "unbound parameter ?%d (execute via a prepared statement)"
                % (expr.index + 1)
            )
        if isinstance(expr, AggCall):
            columns = self.columns
            keys = columns.batch.keys
            if expr in keys:  # an Aggregate below computed it
                return _Term(*columns.at(keys.index(expr)), leaf=True)
            return self._raises("aggregate evaluated outside Aggregate operator")
        raise QueryError("cannot evaluate %s" % type(expr).__name__)

    @staticmethod
    def _unless_null(operand: _Term, first: str, test: str) -> _Term:
        """BETWEEN / LIKE: False on a NULL operand, else ``test``."""
        if operand.leaf and not operand.nullable:
            return _Term("(%s)" % test, False, boolean=True)
        return _Term("(%s is not None and %s)" % (first, test), False,
                     boolean=True)

    def _binop(self, expr: BinOp) -> _Term:
        """``binop_apply``: both operands are evaluated, left first; a
        NULL operand makes a comparison False and arithmetic NULL."""
        operands = [self.term(expr.left), self.term(expr.right)]
        compare = expr.op in _CMP_OPS
        template = "%%s %s %%s" % ("==" if expr.op == "=" else expr.op)
        if not (operands[0].nullable or operands[1].nullable):
            src = "(%s)" % (template % (operands[0].src, operands[1].src))
            return _Term(src, False, boolean=compare)
        # Every operand that is not a bare variable is bound (and so
        # evaluated) in the NULL test, joined without short-circuit.
        tests, values = [], []
        for operand in operands:
            first, value = self._bound(operand)
            values.append(value)
            if operand.nullable or not operand.leaf:
                tests.append("(%s is None)" % first)
        joiner = " or " if all(o.leaf for o in operands) else " | "
        src = "(%s if %s else %s)" % (
            "False" if compare else "None",
            joiner.join(tests),
            template % tuple(values),
        )
        return _Term(src, not compare, boolean=compare)

    def bind(self, kind: str, params: str, body: List[str], registry
             ) -> Callable[..., Any]:
        """Compile (or find) the kernel ``def kind(n, cols, k<params>)`` of
        ``body`` - ``n`` the row count, ``cols`` the arrays it reads, ``k``
        its constants - as ``call(batch, *extra)`` over any batch shaped
        like the one lowered against, ``extra`` filling ``params``."""
        read = tuple(self.columns.read)
        consts = self.consts
        head = []
        if read:
            head.append("[%s] = cols" % ", ".join("c%d" % p for p in read))
        if consts:
            head.append(
                "[%s] = k" % ", ".join("k%d" % i for i in range(len(consts)))
            )
        kernel = _compile(kind, params, head + body, registry)

        def call(batch: ColumnBatch, *extra):
            arrays = batch.arrays
            return kernel(batch.n, [arrays[p] for p in read], consts, *extra)

        return call

    def run(self, kind: str, params: str, body: List[str], registry, *extra):
        """:meth:`bind` and call at once, over the batch lowered against."""
        return self.bind(kind, params, body, registry)(self.columns.batch, *extra)


def nullable(batch: ColumnBatch, exprs: Sequence[Expr]) -> List[bool]:
    """Whether each expression can evaluate to NULL over ``batch``."""
    lowering = _Lowering(batch)
    return [lowering.term(expr).nullable for expr in exprs]


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def select(batch: ColumnBatch, predicate: Expr, registry=None) -> List[int]:
    """The selection vector of ``predicate`` over ``batch``."""
    lowering = _Lowering(batch)
    test = lowering.term(predicate).src
    loop = lowering.columns.loop(("i", "range(n)"))
    return lowering.run(
        "select", "", ["return [i %s if %s]" % (loop, test)], registry
    )


# ---------------------------------------------------------------------------
# Hash join: key extraction, build, probe
# ---------------------------------------------------------------------------


def key_tuples(batch: ColumnBatch, exprs: Sequence[Expr], registry=None) -> List[Tuple]:
    """One tuple of ``exprs`` per row: the key tuples a pushed hash build
    ships or an index join probes with, a Project's value tuples, a Sort's
    key tuples."""
    lowering = _Lowering(batch)
    columns = lowering.columns
    keys = columns.bare(exprs)
    if keys is not None:
        line = "return list(%s)" % keys
    else:
        line = "return [%s %s]" % (lowering.tuple_of(exprs), columns.loop())
    return lowering.run("key_tuples", "", [line], registry)


def hash_build(
    batch: ColumnBatch,
    exprs: Sequence[Expr],
    probe_nullable: Sequence[bool],
    unique: bool = False,
    predicate: Optional[Expr] = None,
    key_rows: Optional[Sequence[Tuple]] = None,
    registry=None,
) -> Tuple[Dict[Tuple, Any], int, bool]:
    """Hash the build side over the rows passing ``predicate``.

    Returns ``(built, rows passed, unique)``: ``built`` maps each key
    tuple to the list of its row indices (ascending) or, when ``unique``,
    to its one row index.  ``unique`` is the caller's expectation that
    no key repeats; it is checked, and a build that finds a repeat falls
    back to lists and says so.

    NULL = NULL is not true: a key with NULL in a component that can be
    NULL on the probe side too (``probe_nullable``, per component) is
    left out, so no probe finds it; where either side cannot be NULL
    nothing needs checking.  ``key_rows`` are ready-made key tuples, one
    per (already filtered) row - a pushed build ships them; without them
    bare-column keys come off ``zip`` and anything else is evaluated in
    the loop.
    """
    lowering = _Lowering(batch)
    columns = lowering.columns
    null_checked = [
        component
        for component, both in enumerate(zip(probe_nullable, nullable(batch, exprs)))
        if all(both)
    ]
    unique = unique and not null_checked  # a skipped key hides a repeat
    loop: List[str] = []
    keys = "rows" if key_rows is not None else None
    if keys is None and predicate is None:
        keys = columns.bare(exprs)
    if keys is not None:
        head = "for j, key in enumerate(%s):" % keys
    else:
        if predicate is not None:
            loop.append("if not %s: continue" % lowering.term(predicate).src)
            loop.append("m += 1")
        loop.append("key = %s" % lowering.tuple_of(exprs))
        head = columns.loop(("j", "range(n)")) + ":"
    loop.extend("if key[%d] is None: continue" % c for c in null_checked)
    if unique:
        loop.append("built[key] = j")
    else:
        loop.extend([
            "bucket = built.get(key)",
            "if bucket is None: built[key] = [j]",
            "else: bucket.append(j)",
        ])
    body = ["built = {}", "m = 0", head]
    body.extend("    " + line for line in loop)
    body.append("return built, m")
    built, passed = lowering.run("hash_build", ", rows", body, registry, key_rows)
    if predicate is None:
        passed = batch.n
    if unique and len(built) != passed:
        return hash_build(
            batch, exprs, probe_nullable, False, predicate, key_rows, registry
        )
    return built, passed, unique


def probe(
    left: ColumnBatch,
    exprs: Sequence[Expr],
    built: Dict[Tuple, Any],
    unique: bool,
    right: ColumnBatch,
    residual: Optional[Expr] = None,
    registry=None,
) -> Tuple[Sequence[int], List[int], int]:
    """Probe ``built`` (:func:`hash_build`'s, ``unique`` as it returned)
    with each left row's key.

    Returns the left and right selection vectors of the joined rows (left
    order, then build order) and the number of key matches; the left one
    is ``range(n)`` when every left row joined exactly once.  ``residual``
    is evaluated per match, inside the loop, over the joined row - where a
    right column shadows a left column of the same key, as
    ``dict(left).update(right)`` does.
    """
    lowering = _Lowering(left)
    columns = lowering.columns
    keys = columns.bare(exprs)
    if keys is not None:
        leading, key = [("key", keys)], "key"
    else:
        leading, key = [], lowering.tuple_of(exprs)
    keep = "left.append(i); right.append(j)"
    right_read: List[int] = []
    if residual is not None:
        joined = left.keys + tuple(k for k in right.keys if k not in left.keys)

        def resolve(ref: ColumnRef) -> Optional[Tuple[str, bool]]:
            position = resolve_column(joined, ref)
            if position is None:
                return None
            if joined[position] not in right.keys:
                return columns.variable(position), left.nullable[position]
            position = right.keys.index(joined[position])
            if position not in right_read:
                right_read.append(position)
            return "w%d" % position, right.nullable[position]

        lowering.resolve = resolve
        keep = "if %s: %s" % (lowering.term(residual).src, keep)
    body: List[str] = []
    if right_read:
        body.append("[%s] = rcols" % ", ".join("d%d" % p for p in right_read))
    if unique and keys is not None and residual is None:
        # One dict probe per row and nothing else to evaluate.
        body.extend([
            "right = list(map(built.get, %s))" % keys,
            "if None not in right: return range(n), right, n",
            "left = [i for i, j in enumerate(right) if j is not None]",
            "return left, [j for j in right if j is not None], len(left)",
        ])
    else:
        body.extend([
            "get = built.get",
            "left = []; right = []; matched = 0",
            columns.loop(("i", "range(n)"), *leading) + ":",
            "    %s = get(%s)" % ("j" if unique else "matches", key),
            "    if %s is None: continue" % ("j" if unique else "matches"),
        ])
        inner = ["w%d = d%d[j]" % (p, p) for p in right_read] + [keep]
        if unique:
            body.append("    matched += 1")
        else:
            body.append("    matched += len(matches)")
            body.append("    for j in matches:")
            inner = ["    " + line for line in inner]
        body.extend("    " + line for line in inner)
        body.append("return left, right, matched")
    return lowering.run(
        "probe", ", built, rcols", body, registry,
        built, [right.arrays[p] for p in right_read],
    )


# ---------------------------------------------------------------------------
# Group-by
# ---------------------------------------------------------------------------


def group_by(
    batch: ColumnBatch,
    group_exprs: Sequence[Expr],
    aggs: Sequence[AggCall],
    predicate: Optional[Expr] = None,
    registry=None,
) -> Tuple[Dict[Tuple, List[Any]], int]:
    """Group the rows passing ``predicate`` and accumulate ``aggs``.

    Returns ``(states, rows passed)``.  ``states`` maps each group key
    (first-seen order) to a flat list: the group's first row index, then
    :data:`AGG_SLOTS` slots per aggregate.  Rows accumulate in batch order
    exactly as the oracle's ``update_agg_states`` would, so float totals
    are bit-identical.
    Without group expressions the state lives in local variables and the
    single ``()`` group exists only if a row passed.
    """
    lowering = _Lowering(batch)
    grouped = bool(group_exprs)
    slot = ("s[%d]" if grouped else "a%d").__mod__
    fresh = ["i"]
    for agg in aggs:
        fresh.extend(["0", "0.0", "None", "None", "set()" if agg.distinct else "None"])
    loop: List[str] = []
    if predicate is not None:
        loop.append("if not %s: continue" % lowering.term(predicate).src)
        loop.append("m += 1")
    if grouped:
        loop.extend([
            "key = %s" % lowering.tuple_of(group_exprs),
            "s = get(key)",
            "if s is None: s = groups[key] = [%s]" % ", ".join(fresh),
        ])
    else:
        loop.append("if a0 < 0: a0 = i")
    for number, agg in enumerate(aggs):
        base = 1 + AGG_SLOTS * number
        count = "%s += 1" % slot(base)
        if agg.argument is None:  # COUNT(*)
            loop.append(count)
            continue
        argument = lowering.term(agg.argument)
        value = argument.src
        if not argument.leaf:
            value = "x"
            loop.append("x = %s" % argument.src)
        if agg.distinct:
            update = ["%s.add(%s)" % (slot(base + 4), value)]
        elif agg.func in ("sum", "avg"):
            update = [count, "%s += %s" % (slot(base + 1), value)]
        elif agg.func in ("min", "max"):  # the earlier of two equal values
            best = slot(base + (2 if agg.func == "min" else 3))
            update = [count, "if %s is None or %s %s %s: %s = %s" % (
                best, value, "<" if agg.func == "min" else ">", best, best, value)]
        else:
            update = [count]
        if argument.nullable:
            loop.append("if %s is not None:" % value)
            update = ["    " + line for line in update]
        loop.extend(update)
    body = ["m = 0"]
    if grouped:
        body.extend(["groups = {}", "get = groups.get"])
    else:
        fresh[0] = "-1"
        body.append("; ".join("a%d = %s" % pair for pair in enumerate(fresh)))
    body.append(lowering.columns.loop(("i", "range(n)")) + ":")
    body.extend("    " + line for line in loop)
    if not grouped:
        state = ", ".join("a%d" % i for i in range(len(fresh)))
        body.append("groups = {(): [%s]} if a0 >= 0 else {}" % state)
    body.append("return groups, m")
    groups, passed = lowering.run("group_by", "", body, registry)
    return groups, (batch.n if predicate is None else passed)


# ---------------------------------------------------------------------------
# Weighted fold (incremental view maintenance)
# ---------------------------------------------------------------------------


def weighted_fold(
    template: ColumnBatch,
    predicate: Optional[Expr],
    key_exprs: Sequence[Expr],
    aggs: Optional[Sequence[AggCall]],
    registry=None,
) -> Callable[..., int]:
    """Compile the fold of *signed* rows - ``+1`` an insert, ``-1`` the
    retraction of one - into keyed state: :func:`group_by`'s retractable
    sibling, lowered once per view and called per delta batch.

    ``template`` is an (empty) batch of the shape every call passes.  Each
    row passing ``predicate`` is keyed by the tuple of ``key_exprs``, rows
    in order, and the returned function returns how many passed:

    - ``aggs`` given - ``fold(batch, weights, groups, fresh)``: the key's
      entry ``[weight, states]`` in ``groups`` (made with ``fresh()`` on
      first sight, at the end of the dict) takes the row's weight, then
      ``states[i].update(value, weight)`` per aggregate - ``COUNT(*)``
      passes ``None``, any other aggregate skips a NULL argument, as the
      group-by kernel does - and an entry whose weight is back to zero is
      deleted.
    - ``aggs`` None - ``fold(batch, weights, add)``: ``add(key, weight)``,
      a Z-set's.
    """
    lowering = _Lowering(template)
    loop: List[str] = []
    if predicate is not None:
        loop.append("if not %s: continue" % lowering.term(predicate).src)
    loop.append("m += 1")
    key = lowering.tuple_of(key_exprs)
    if aggs is None:
        kind, params = "fold_zset", ", weights, add"
        loop.append("add(%s, w)" % key)
    else:
        kind, params = "fold_groups", ", weights, groups, fresh"
        loop.extend([
            "key = %s" % key,
            "entry = get(key)",
            "if entry is None: entry = groups[key] = [0, fresh()]",
            "entry[0] += w",
            "states = entry[1]",
        ])
        for number, agg in enumerate(aggs):
            if agg.argument is None:  # COUNT(*)
                loop.append("states[%d].update(None, w)" % number)
                continue
            argument = lowering.term(agg.argument)
            value = argument.src
            if not argument.leaf:
                value = "x"
                loop.append("x = %s" % argument.src)
            update = "states[%d].update(%s, w)" % (number, value)
            if argument.nullable:
                update = "if %s is not None: %s" % (value, update)
            loop.append(update)
        loop.append("if not entry[0]: del groups[key]")
    body = ["m = 0"]
    if aggs is not None:
        body.append("get = groups.get")
    body.append(lowering.columns.loop(("w", "weights")) + ":")
    body.extend("    " + line for line in loop)
    body.append("return m")
    return lowering.bind(kind, params, body, registry)
