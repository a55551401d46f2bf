"""The interpreted row codec: the reference the generated kernels of
``repro.engine.codec`` are tested against.

This is the per-column interpreter the engine used before it compiled a
kernel per schema.  It defines the on-page byte format (8-byte null bitmap,
then each non-NULL column in schema order) one ``struct`` call at a time, so
it is slow and obviously right; it must not be "optimised".
"""

import struct

from repro.common import QueryError


def encode(schema, values):
    """Encode one row (a sequence aligned with the schema) to bytes."""
    if len(values) != len(schema.columns):
        raise QueryError(
            "row has %d values, schema has %d columns"
            % (len(values), len(schema.columns))
        )
    null_bits = 0
    parts = []
    for index, (column, value) in enumerate(zip(schema.columns, values)):
        if value is None:
            if not column.nullable:
                raise QueryError("column %s is not nullable" % column.name)
            null_bits |= 1 << index
            continue
        ctype = column.ctype
        if ctype.name == "int":
            parts.append(struct.pack("<i", value))
        elif ctype.name == "bigint":
            parts.append(struct.pack("<q", value))
        elif ctype.name == "float":
            parts.append(struct.pack("<d", value))
        elif ctype.name == "decimal":
            scaled = int(round(value * (10 ** ctype.scale)))
            parts.append(struct.pack("<q", scaled))
        elif ctype.name == "varchar":
            raw = value.encode("utf-8")
            if ctype.max_length and len(raw) > ctype.max_length:
                raise QueryError(
                    "value too long for %s(%d)" % (column.name, ctype.max_length)
                )
            parts.append(struct.pack("<H", len(raw)) + raw)
        else:
            raise QueryError("unsupported type %r" % ctype.name)
    header = struct.pack("<Q", null_bits)
    return header + b"".join(parts)


def decode(schema, data):
    """Decode bytes produced by :func:`encode` back to a value list."""
    (null_bits,) = struct.unpack_from("<Q", data, 0)
    offset = 8
    values = []
    for index, column in enumerate(schema.columns):
        if null_bits & (1 << index):
            values.append(None)
            continue
        ctype = column.ctype
        if ctype.name == "int":
            (value,) = struct.unpack_from("<i", data, offset)
            offset += 4
        elif ctype.name == "bigint":
            (value,) = struct.unpack_from("<q", data, offset)
            offset += 8
        elif ctype.name == "float":
            (value,) = struct.unpack_from("<d", data, offset)
            offset += 8
        elif ctype.name == "decimal":
            (scaled,) = struct.unpack_from("<q", data, offset)
            value = scaled / (10 ** ctype.scale)
            offset += 8
        elif ctype.name == "varchar":
            (length,) = struct.unpack_from("<H", data, offset)
            offset += 2
            value = data[offset : offset + length].decode("utf-8")
            offset += length
        else:
            raise QueryError("unsupported type %r" % ctype.name)
        values.append(value)
    return values
