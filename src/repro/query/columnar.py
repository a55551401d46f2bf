"""Structure-of-arrays column batches: what every plan operator returns.

A dict per row costs a dict allocation per decoded row, dict probes per
column reference, and a recursive ``Expr.eval`` walk per evaluation.  A
:class:`ColumnBatch` instead holds one parallel Python list per column,
filled by ``Schema.decode_page_into`` - from a page image's
decoded-column memo, decoding from page bytes only what no scan of that
image has decoded yet - and the operators between scan and result run as
generated loops over the arrays (``repro.query.kernels``) where a column
reference is a loop variable.  A batch owns its lists: nothing a kernel
does to them reaches the memo.

Design points:

- **Projection at the source.** A scan's batch is keyed by the planner's
  ``SeqScan.projection`` (schema order): a column nothing downstream
  reads is never decoded, so there is nothing to prune afterwards.
- **Selection vectors.** Filters produce a list of surviving row
  indices; ``gather`` materializes the survivors. When every row
  survives, the batch is returned unchanged (zero-copy).
- **Keys.** A source column is keyed by the executor's qualified
  ``"binding.column"`` name, an Aggregate's result column by its
  ``AggCall`` and a select item by its output name; keys need not be
  unique - the first one wins, as the first select item bearing a name
  does in ORDER BY.

Reference resolution (:func:`resolve_column`) mirrors
``ColumnRef.eval``'s fallback chain — exact key, bare name, unique
``.name`` suffix — so a kernel binds the same column the interpreted row
evaluator (``tests/query/row_oracle.py``) reads.
"""

from __future__ import annotations

from typing import Any, Hashable, List, Optional, Sequence, Tuple

from .ast import ColumnRef

__all__ = ["ColumnBatch", "resolve_column"]


class ColumnBatch:
    """Parallel per-column value lists with an explicit row count.

    The row count is explicit (rather than ``len(arrays[0])``) because a
    batch may legitimately carry zero columns but nonzero rows — e.g. the
    scan under ``SELECT COUNT(*) FROM t``, which reads no column.

    ``nullable[i]`` says whether column ``i`` may hold NULL.  Scans take
    it from the schema (which the codec enforces on every encode); the
    kernels drop the NULL handling of a column that cannot.  Unknown means
    it may.
    """

    __slots__ = ("keys", "arrays", "n", "nullable")

    def __init__(
        self,
        keys: Sequence[Hashable],
        arrays: Sequence[List[Any]],
        n: Optional[int] = None,
        nullable: Optional[Sequence[bool]] = None,
    ):
        self.keys: Tuple[Hashable, ...] = tuple(keys)
        self.arrays: List[List[Any]] = list(arrays)
        if n is None:
            n = len(self.arrays[0]) if self.arrays else 0
        self.n = n
        self.nullable: Tuple[bool, ...] = (
            (True,) * len(self.keys) if nullable is None else tuple(nullable)
        )

    def __len__(self) -> int:
        return self.n

    @classmethod
    def for_scan(cls, binding: str, schema, projection: Sequence[str]) -> "ColumnBatch":
        """The empty batch a scan of ``projection`` (names, schema order)
        under ``binding`` fills: qualified keys, the schema's nullability."""
        return cls(
            ["%s.%s" % (binding, name) for name in projection],
            [[] for _ in projection],
            0,
            [schema.columns[schema.position(name)].nullable for name in projection],
        )

    def column(self, key: Hashable) -> List[Any]:
        return self.arrays[self.keys.index(key)]

    def gather(self, selection: Sequence[int]) -> "ColumnBatch":
        """Apply a selection vector (ascending row indices, each at most
        once). Full selections return ``self``."""
        if len(selection) == self.n:
            return self
        return self.take(selection)

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """The rows at ``indices``, in that order (a sort permutation, a
        LIMIT's range, a join's repeats)."""
        arrays = [list(map(arr.__getitem__, indices)) for arr in self.arrays]
        return ColumnBatch(self.keys, arrays, len(indices), self.nullable)

    def extend(self, other: "ColumnBatch") -> None:
        """Append ``other``'s rows in place (keys must match)."""
        if other.keys != self.keys:
            raise ValueError("cannot extend batch: key mismatch")
        for arr, src in zip(self.arrays, other.arrays):
            arr.extend(src)
        self.n += other.n


def resolve_column(keys: Sequence[Hashable], ref: ColumnRef) -> Optional[int]:
    """Resolve ``ref`` against a batch's key tuple, mirroring
    ``ColumnRef.eval``: exact qualified key, then bare name, then a
    unique ``.name`` suffix match. ``None`` when unresolvable or
    ambiguous (a kernel then raises ``ColumnRef.eval``'s error, on the
    first row it evaluates)."""
    key = ref.key
    if key in keys:
        return keys.index(key)
    name = ref.name
    if name in keys:
        return keys.index(name)
    suffix = "." + name
    matches = [
        i for i, k in enumerate(keys) if isinstance(k, str) and k.endswith(suffix)
    ]
    if len(matches) == 1:
        return matches[0]
    return None
