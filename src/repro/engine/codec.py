"""Row codec: schema-compiled binary encoding of rows.

Rows are stored in pages as real bytes.  The layout is compact and
little-endian with no padding: an 8-byte null bitmap (bit *i* set means
column *i* is NULL and has no bytes), then the non-NULL columns in schema
order - ``int`` 4 bytes, ``bigint``/``float`` 8, ``decimal`` as an 8-byte
scaled integer (``DECIMAL(p, s)`` holds value * 10**s, which is both
faithful to OLTP engines and keeps arithmetic exact for the TPC-C
consistency checks), ``varchar`` as a 2-byte length and UTF-8 bytes.

Nothing interprets that layout per column at run time.  Each
:class:`Schema` generates Python source for its encode and decode kernels
once, at construction: straight-line code with one ``struct.Struct`` per run
of fixed-width columns (the length prefix of the varchar that ends the run
folded into it, and on encode the bitmap too), decimal scaling inlined as a
literal, and no branch on a type name.  NULLs are handled by specialisation
rather than by branching: the entry kernels handle the all-present bitmap
themselves and hand any other bitmap to a kernel generated for exactly that
bitmap, built on first use and cached (see :class:`_KernelCache`).
``decode`` accepts what ``encode`` produces, so a bitmap only ever marks
nullable columns, and a schema without one never reads it.

Scans decode column-major, and only what the plan reads: per projected
column set (and, on first sight of a NULL that shifts one of its columns,
per bitmap) a schema generates a kernel that appends those columns' values
straight to the caller's arrays.  A fixed-width column outside the
projection is pad bytes in a struct format, an unread varchar costs its
length prefix, and nothing behind the last projected column is touched.
"All columns" is the full position tuple - there is no separate
full-width decode (see :meth:`Schema.decode_rows_into`).

The byte format is pinned by the interpreted per-column reference codec in
``tests/engine/codec_oracle.py``, which every kernel is property-tested
against.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from ..common import QueryError

__all__ = ["Column", "Schema", "INT", "BIGINT", "DECIMAL", "VARCHAR", "FLOAT"]


@dataclass(frozen=True)
class ColumnType:
    """A column type tag with optional parameters."""

    name: str
    scale: int = 0  # for decimals
    max_length: int = 0  # for varchars


def INT() -> ColumnType:
    return ColumnType("int")


def BIGINT() -> ColumnType:
    return ColumnType("bigint")


def FLOAT() -> ColumnType:
    return ColumnType("float")


def DECIMAL(scale: int = 2) -> ColumnType:
    return ColumnType("decimal", scale=scale)


def VARCHAR(max_length: int = 255) -> ColumnType:
    return ColumnType("varchar", max_length=max_length)


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    ctype: ColumnType
    nullable: bool = False


#: ``struct`` code of each type's fixed-width part (for a varchar, its
#: length prefix).
_STRUCT_CODES = {
    "int": "i",
    "bigint": "q",
    "float": "d",
    "decimal": "q",
    "varchar": "H",
}

#: Kernels kept per schema and direction.  A workload uses a handful of
#: NULL patterns per table; the cap only bounds what rows with arbitrary
#: patterns over many nullable columns can make a schema hold on to.
_KERNEL_CACHE_LIMIT = 256


class _KernelCache(dict):
    """Specialisation key (a null bitmap, or a tuple of projected column
    positions) -> the kernel generated for it, compiled on first use by
    ``build(columns, key, cache)``."""

    def __init__(self, build: Callable, columns: Sequence[Column]):
        super().__init__()
        self._build = build
        self._columns = columns

    def __missing__(self, key: Any) -> Callable:
        if len(self) >= _KERNEL_CACHE_LIMIT:
            self.clear()
        kernel = self[key] = self._build(self._columns, key, self)
        return kernel


def _indent(lines: Iterable[str]) -> List[str]:
    return ["    " + line for line in lines]


def _define(
    columns: Sequence[Column],
    name: str,
    params: str,
    body: List[str],
    namespace: Dict[str, Any],
) -> Callable:
    """Compile ``def name(params): body`` with ``namespace`` as its globals.

    The code object's file name carries this module's path and the column
    names: profilers that bucket by path (``bench/run.py --trace 1``) then
    charge a kernel's time to the codec whichever layer called it, and
    ``pstats``, which keys on (file, line, name), keeps the kernels of
    different schemas apart instead of letting one overwrite the other.
    """
    source = "def %s(%s):\n%s\n" % (name, params, "\n".join(_indent(body)))
    filename = "<%s kernel for (%s)>" % (
        __file__,
        ", ".join(column.name for column in columns),
    )
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def _encode_kernel(
    columns: Sequence[Column], null_bits: int, null_kernels: _KernelCache
) -> Callable[[Sequence[Any]], bytes]:
    """``encode(values)`` for rows whose NULL columns are exactly
    ``null_bits``.

    The all-present kernel (``null_bits == 0``) is the entry point: it also
    checks the arity and routes a row holding any ``None`` to
    ``null_kernels``.  Checks come in column order, so the first error a
    row has is the one raised.
    """
    namespace: Dict[str, Any] = {
        "QueryError": QueryError,
        "null_kernels": null_kernels,
    }
    name = "encode_%x" % null_bits
    values = ["v%d" % index for index in range(len(columns))]
    body: List[str] = []
    if not null_bits:
        arity = "row has %%d values, schema has %d columns" % len(columns)
        body += [
            "if len(values) != %d:" % len(columns),
            "    raise QueryError(%r %% len(values))" % arity,
        ]
    body.append("%s, = values" % ", ".join(values))
    if not null_bits:
        any_none = " or ".join("%s is None" % value for value in values)
        bitmap = " | ".join(
            "(%s is None) << %d" % (value, index)
            for index, value in enumerate(values)
        )
        body += [
            "if %s:" % any_none,
            "    return null_kernels[%s](values)" % bitmap,
        ]
    parts: List[str] = []
    fmt, args = "<Q", [str(null_bits)]

    def flush() -> None:
        nonlocal fmt, args
        if args:
            pack = "pack%d" % len(parts)
            namespace[pack] = struct.Struct(fmt).pack
            parts.append("%s(%s)" % (pack, ", ".join(args)))
        fmt, args = "<", []

    for index, (column, value) in enumerate(zip(columns, values)):
        if null_bits >> index & 1:
            if not column.nullable:
                message = "column %s is not nullable" % column.name
                body.append("raise QueryError(%r)" % message)
                return _define(columns, name, "values", body, namespace)
            continue
        ctype = column.ctype
        fmt += _STRUCT_CODES[ctype.name]
        if ctype.name == "decimal":
            args.append("int(round(%s * %d))" % (value, 10**ctype.scale))
        elif ctype.name == "varchar":
            raw = "r%d" % index
            body.append("%s = %s.encode()" % (raw, value))
            if ctype.max_length:
                message = "value too long for %s(%d)" % (
                    column.name,
                    ctype.max_length,
                )
                body += [
                    "if len(%s) > %d:" % (raw, ctype.max_length),
                    "    raise QueryError(%r)" % message,
                ]
            args.append("len(%s)" % raw)
            flush()
            parts.append(raw)
        else:
            args.append(value)
    flush()
    body.append("return b''.join((%s,))" % ", ".join(parts))
    return _define(columns, name, "values", body, namespace)


def _decode_statements(
    columns: Sequence[Column],
    positions: Sequence[int],
    null_bits: int,
    namespace: Dict[str, Any],
) -> Tuple[List[str], List[str]]:
    """Statements decoding the columns at ``positions`` from the row bytes
    in ``data``, and the expression for each of those values (aligned with
    ``positions``), for rows whose NULL columns are exactly ``null_bits``.

    Only what is asked for is decoded: a fixed-width column nobody reads is
    pad bytes in its run's struct, an unread varchar costs its length prefix
    and no slice, and nothing after the last position is touched.  Struct
    unpackers are added to ``namespace``."""
    statements: List[str] = []
    values: Dict[int, str] = {}
    fmt = "<"
    targets: List[str] = []
    # The pending struct run starts at ``base + const``; ``base`` is the
    # variable holding the end of the last varchar ("" before the first).
    base, const = "", 8

    def offset() -> str:
        if not base:
            return str(const)
        return "%s + %d" % (base, const) if const else base

    def flush() -> None:
        nonlocal fmt, targets, const
        unpacker = struct.Struct(fmt)
        if targets:
            unpack = "unpack%d" % len(namespace)
            namespace[unpack] = unpacker.unpack_from
            statements.append(
                "%s, = %s(data, %s)" % (", ".join(targets), unpack, offset())
            )
        const += unpacker.size
        fmt, targets = "<", []

    wanted = set(positions)
    for index, column in enumerate(columns[: max(wanted, default=-1) + 1]):
        values[index] = "v%d" % index
        if null_bits >> index & 1:
            values[index] = "None"
            continue
        ctype = column.ctype
        code = _STRUCT_CODES[ctype.name]
        if ctype.name == "varchar":
            fmt += code
            targets.append("n%d" % index)
            flush()
            start, end = offset(), "e%d" % index
            statements.append("%s = %s + n%d" % (end, start, index))
            if index in wanted:
                statements.append(
                    "v%d = data[%s:%s].decode()" % (index, start, end)
                )
            base, const = end, 0
        elif index not in wanted:
            fmt += "%dx" % struct.calcsize(code)
        elif ctype.name == "decimal":
            fmt += code
            targets.append("q%d" % index)
            values[index] = "q%d / %d" % (index, 10**ctype.scale)
        else:
            fmt += code
            targets.append("v%d" % index)
    flush()
    return statements, [values[position] for position in positions]


def _bitmap_dispatch(
    columns: Sequence[Column],
    upto: int,
    on_nulls: List[str],
    namespace: Dict[str, Any],
) -> List[str]:
    """Statements that read the row's null bitmap and run ``on_nulls`` when
    one of the first ``upto`` columns is NULL (a NULL beyond them moves
    nothing a kernel reading only those columns touches); none when no
    column among them is nullable."""
    nullable = sum(
        1 << index for index, column in enumerate(columns) if column.nullable
    )
    mask = nullable & ((1 << upto) - 1)
    if not mask:
        return []
    namespace["unpack_bitmap"] = struct.Struct("<Q").unpack_from
    read = "bits, = unpack_bitmap(data, 0)"
    if mask != nullable:
        read = "bits = unpack_bitmap(data, 0)[0] & %d" % mask
    return [read, "if bits:"] + _indent(on_nulls)


def _decode_kernel(
    columns: Sequence[Column], null_bits: int, null_kernels: _KernelCache
) -> Callable[[bytes], List[Any]]:
    """``decode(data)`` for rows whose NULL columns are exactly ``null_bits``;
    the all-present kernel hands every other bitmap to ``null_kernels``."""
    namespace: Dict[str, Any] = {"null_kernels": null_kernels}
    body: List[str] = []
    if not null_bits:
        body += _bitmap_dispatch(
            columns,
            len(columns),
            ["return null_kernels[bits](data)"],
            namespace,
        )
    statements, values = _decode_statements(
        columns, range(len(columns)), null_bits, namespace
    )
    body += statements + ["return [%s]" % ", ".join(values)]
    return _define(columns, "decode_%x" % null_bits, "data", body, namespace)


def _decode_rows_kernel(
    columns: Sequence[Column], null_kernels: _KernelCache
) -> Callable[[Iterable[bytes]], List[List[Any]]]:
    """``decode_rows(rows)``: the all-present decode statements inlined in a
    loop, so a page of rows costs one Python call rather than one per row."""
    namespace: Dict[str, Any] = {"null_kernels": null_kernels}
    dispatch = _bitmap_dispatch(
        columns,
        len(columns),
        ["append(null_kernels[bits](data))", "continue"],
        namespace,
    )
    statements, values = _decode_statements(
        columns, range(len(columns)), 0, namespace
    )
    body = ["out = []", "append = out.append", "for data in rows:"]
    body += _indent(
        dispatch + statements + ["append([%s])" % ", ".join(values)]
    )
    body.append("return out")
    return _define(columns, "decode_rows", "rows", body, namespace)


def _decode_into_kernel(
    columns: Sequence[Column],
    null_bits: int,
    null_kernels: _KernelCache,
    positions: Tuple[int, ...],
) -> Callable:
    """The column-major kernel for the projection ``positions``.

    The all-present kernel (``null_bits == 0``) is the entry point,
    ``decode_into(rows, arrays)``: it loops over a page of rows, appends
    each projected value straight to its column's array (``arrays`` is
    aligned with ``positions``) and returns the row count.  A row with a
    NULL at or before the last projected column goes to the kernel
    generated for (this projection, that bitmap),
    ``decode_into(data, *appends)``, which decodes that one row.
    """
    namespace: Dict[str, Any] = {"null_kernels": null_kernels}
    projected = sum(1 << position for position in positions)
    appends = ", ".join("append%d" % position for position in positions)
    statements, values = _decode_statements(
        columns, positions, null_bits, namespace
    )
    statements += [
        "append%d(%s)" % pair for pair in zip(positions, values)
    ]
    if null_bits:
        name = "decode_%x_into_%x" % (null_bits, projected)
        return _define(columns, name, "data, " + appends, statements, namespace)
    name = "decode_into_%x" % projected
    if not positions:
        body = ["return sum(1 for data in rows)"]
        return _define(columns, name, "rows, arrays", body, namespace)
    first = "a%d" % positions[0]
    body = ["%s, = arrays" % ", ".join("a%d" % p for p in positions)]
    body += ["append%d = a%d.append" % (p, p) for p in positions]
    body += ["before = len(%s)" % first, "for data in rows:"]
    body += _indent(
        _bitmap_dispatch(
            columns,
            positions[-1] + 1,
            ["null_kernels[bits](data, %s)" % appends, "continue"],
            namespace,
        )
        + statements
    )
    body.append("return len(%s) - before" % first)
    return _define(columns, name, "rows, arrays", body, namespace)


def _projected_kernel(
    columns: Sequence[Column], positions: Tuple[int, ...], _cache: _KernelCache
) -> Callable[[Iterable[bytes], Sequence[List[Any]]], int]:
    """The ``decode_into`` entry kernel for ``positions``, with its own
    cache of per-bitmap kernels."""
    if list(positions) != sorted(set(positions) & set(range(len(columns)))):
        raise QueryError(
            "projection %r is not ascending schema positions" % (positions,)
        )
    build = partial(_decode_into_kernel, positions=positions)
    return build(columns, 0, _KernelCache(build, columns))


class Schema:
    """An ordered list of columns with encode/decode and key helpers.

    ``encode``, ``decode`` and ``decode_rows`` are kernels generated for
    this schema (see the module docstring) and bound as instance
    attributes, so a call pays no dispatch beyond the attribute lookup.
    :meth:`decode_rows_into` is the column-major decode, generated per
    projected column set on first use.
    """

    #: Encode one row (a sequence aligned with the schema) to bytes.
    #: Raises :class:`QueryError` for a wrong arity, ``None`` in a
    #: non-nullable column, or a varchar over its ``max_length``.
    encode: Callable[[Sequence[Any]], bytes]
    #: Decode bytes produced by :attr:`encode` back to a value list.
    decode: Callable[[bytes], List[Any]]
    #: Decode many encoded rows to a list of value lists, in input order.
    decode_rows: Callable[[Iterable[bytes]], List[List[Any]]]

    def __init__(self, columns: Sequence[Column]):
        if not columns:
            raise QueryError("schema needs at least one column")
        names = tuple(c.name for c in columns)
        if len(set(names)) != len(names):
            raise QueryError("duplicate column names")
        for column in columns:
            if column.ctype.name not in _STRUCT_CODES:
                raise QueryError("unsupported type %r" % column.ctype.name)
        self.columns: Tuple[Column, ...] = tuple(columns)
        #: Column names in schema order.
        self.names: Tuple[str, ...] = names
        self._index: Dict[str, int] = {name: i for i, name in enumerate(names)}

        decoders = _KernelCache(_decode_kernel, self.columns)
        self.encode = _KernelCache(_encode_kernel, self.columns)[0]
        self.decode = decoders[0]
        self.decode_rows = _decode_rows_kernel(self.columns, decoders)
        self._projected = _KernelCache(_projected_kernel, self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def position(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise QueryError("unknown column %r" % name)

    def has_column(self, name: str) -> bool:
        return name in self._index

    def decode_rows_into(
        self,
        rows: Iterable[bytes],
        positions: Tuple[int, ...],
        arrays: Sequence[List[Any]],
    ) -> int:
        """Decode the columns at ``positions`` (ascending schema positions)
        of many encoded rows column-major: append each row's value to that
        column's array (``arrays`` is aligned with ``positions``), in input
        order.  Returns the row count, also for the empty projection.

        This is what builds structure-of-arrays column batches.  A row
        costs only what the projection reads of it; all columns is
        ``tuple(range(len(schema)))``.
        """
        return self._projected[positions](rows, arrays)

    def row_dict(self, values: Sequence[Any]) -> Dict[str, Any]:
        return dict(zip(self.names, values))
