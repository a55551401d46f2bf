"""Structure-of-arrays column batches for the analytic execution path.

The row executor pays Python interpreter overhead per row: a dict
allocation per decoded row, dict probes per column reference, and a
recursive ``Expr.eval`` walk per predicate evaluation. This module is
the "columnar mandate" alternative: a :class:`ColumnBatch` holds one
parallel Python list per column the plan reads, decoded straight from
page bytes by ``Schema.decode_rows_into``, and expressions compile (via
``repro.query.predicate``) to closures over the arrays where a column
reference is a single ``list.__getitem__``.

Design points:

- **Projection at the source.** A scan's batch is keyed by the planner's
  ``SeqScan.projection`` (schema order): a column nothing downstream
  reads is never decoded, so there is nothing to prune afterwards.
- **Selection vectors.** Filters produce a list of surviving row
  indices; ``gather`` materializes the survivors. When every row
  survives, the batch is returned unchanged (zero-copy).
- **Late materialization.** ``to_rows`` / ``row_dict`` build the row
  dicts the row engine would have produced, restricted to the batch's
  columns (same qualified ``binding.name`` keys, same order), so every
  ``QueryResult`` finalizes byte-identical and any operator can hand off
  to the row path at a batch boundary.

Column keys use the executor's qualified ``"binding.column"`` naming.
Reference resolution (:func:`resolve_column`) mirrors
``ColumnRef.eval``'s fallback chain — exact key, bare name, unique
``.name`` suffix — so a compiled batch expression binds the same column
the interpreted row evaluator would have read.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .ast import ColumnRef, Expr
from .predicate import NotCompilable, compile_expr

__all__ = [
    "ColumnBatch",
    "batch_accessor",
    "compile_batch_expr",
    "compile_batch_predicate",
    "resolve_column",
]


class ColumnBatch:
    """Parallel per-column value lists with an explicit row count.

    The row count is explicit (rather than ``len(arrays[0])``) because a
    batch may legitimately carry zero columns but nonzero rows — e.g. the
    scan under ``SELECT COUNT(*) FROM t``, which reads no column.
    """

    __slots__ = ("keys", "arrays", "n")

    def __init__(self, keys: Sequence[str], arrays: Sequence[List[Any]], n: Optional[int] = None):
        self.keys: Tuple[str, ...] = tuple(keys)
        self.arrays: List[List[Any]] = list(arrays)
        if n is None:
            n = len(self.arrays[0]) if self.arrays else 0
        self.n = n

    def __len__(self) -> int:
        return self.n

    @classmethod
    def empty(cls, keys: Sequence[str]) -> "ColumnBatch":
        return cls(keys, [[] for _ in keys], 0)

    def column(self, key: str) -> List[Any]:
        return self.arrays[self.keys.index(key)]

    def gather(self, selection: Sequence[int]) -> "ColumnBatch":
        """Apply a selection vector. Full selections return ``self``."""
        if len(selection) == self.n:
            return self
        arrays = [[arr[i] for i in selection] for arr in self.arrays]
        return ColumnBatch(self.keys, arrays, len(selection))

    def extend(self, other: "ColumnBatch") -> None:
        """Append ``other``'s rows in place (keys must match)."""
        if other.keys != self.keys:
            raise ValueError("cannot extend batch: key mismatch")
        for arr, src in zip(self.arrays, other.arrays):
            arr.extend(src)
        self.n += other.n

    def row_dict(self, i: int) -> Dict[str, Any]:
        return {k: arr[i] for k, arr in zip(self.keys, self.arrays)}

    def to_rows(self) -> List[Dict[str, Any]]:
        """Materialize dict-per-row form — the exact dicts (keys and
        insertion order) the row executor builds."""
        keys = self.keys
        if not keys:
            return [{} for _ in range(self.n)]
        return [dict(zip(keys, values)) for values in zip(*self.arrays)]

    def to_payload(self) -> Tuple[Tuple[str, ...], List[List[Any]], int]:
        """Plain-tuple form for wire transport (push-down results)."""
        return (self.keys, self.arrays, self.n)

    @classmethod
    def from_payload(
        cls, payload: Tuple[Sequence[str], Sequence[List[Any]], int]
    ) -> "ColumnBatch":
        keys, arrays, n = payload
        return cls(keys, arrays, n)


def resolve_column(keys: Sequence[str], ref: ColumnRef) -> Optional[int]:
    """Resolve ``ref`` against a batch's key tuple, mirroring
    ``ColumnRef.eval``: exact qualified key, then bare name, then a
    unique ``.name`` suffix match. ``None`` when unresolvable (callers
    fall back to row mode, where evaluation raises the same QueryError
    the row path would)."""
    key = ref.key
    if key in keys:
        return keys.index(key)
    name = ref.name
    if name in keys:
        return keys.index(name)
    suffix = "." + name
    matches = [i for i, k in enumerate(keys) if k.endswith(suffix)]
    if len(matches) == 1:
        return matches[0]
    return None


def batch_accessor(batch: ColumnBatch) -> Callable[[ColumnRef], Callable[[int], Any]]:
    """Accessor factory for :func:`repro.query.predicate.compile_expr`
    where the evaluation context is a row index into ``batch``. Column
    references bind to their array once, at compile time."""

    def accessor(ref: ColumnRef) -> Callable[[int], Any]:
        position = resolve_column(batch.keys, ref)
        if position is None:
            raise NotCompilable("column %r not in batch" % ref.key)
        return batch.arrays[position].__getitem__

    return accessor


def compile_batch_expr(expr: Expr, batch: ColumnBatch) -> Callable[[int], Any]:
    """Compile ``expr`` to ``fn(row_index) -> value`` over ``batch``.
    Raises :class:`NotCompilable` when a reference cannot bind."""
    return compile_expr(expr, batch_accessor(batch))


def compile_batch_predicate(expr: Expr, batch: ColumnBatch) -> Callable[[int], bool]:
    fn = compile_batch_expr(expr, batch)
    return lambda i: bool(fn(i))
