"""Key -> shard routing for the sharded multi-primary deployment.

The keyspace is hash-partitioned per table on one primary-key column
(default: the first).  Integers map by modulo - consecutive warehouse
ids spread round-robin, which is exactly the TPC-C affinity we want -
and strings by CRC32 (never Python's randomized ``hash``: routing must
be byte-identical across runs for the determinism gates).

Tables can opt out of partitioning entirely (``replicated=True``): a
small read-mostly table (TPC-C ``item``) is broadcast to every shard on
write and read locally, so single-shard transactions never cross shards
just to price an order line.

Beyond key routing, the map classifies *statements*: given a parsed
SELECT/INSERT/UPDATE/DELETE it computes the set of shards the statement
can touch, by extracting equality / IN / small-BETWEEN constraints on
the shard column from the WHERE clause.  Anything unconstrained is a
scatter statement (all shards).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)
from zlib import crc32

from ..query import ast
from ..query.cache import bind_statement

__all__ = ["ShardKeySpec", "ShardMap"]

#: BETWEEN ranges wider than this on the shard column fall back to
#: scatter rather than enumerating candidate values.
_MAX_RANGE_ENUM = 64


@dataclass(frozen=True)
class ShardKeySpec:
    """How one table's primary keys map to shard values.

    ``column_pos`` indexes into the primary-key tuple; ``extractor``
    overrides it for composite encodings (TPC-C's ``h_id`` packs the
    warehouse into the low digits).  ``replicated`` tables have no home
    shard: writes broadcast, reads stay local.
    """

    column_pos: int = 0
    replicated: bool = False
    extractor: Optional[Callable[[Tuple[Any, ...]], Any]] = None


class ShardMap:
    """Routing table: ``(table, key) -> shard`` plus statement analysis."""

    def __init__(self, shards: int):
        if shards < 1:
            raise ValueError("shard count must be >= 1")
        self.shards = shards
        self._specs: Dict[str, ShardKeySpec] = {}
        self._all = frozenset(range(shards))

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def set_table(self, table: str, spec: ShardKeySpec) -> None:
        self._specs[table] = spec

    def set_replicated(self, table: str) -> None:
        self._specs[table] = ShardKeySpec(replicated=True)

    def spec_of(self, table: str) -> ShardKeySpec:
        return self._specs.get(table) or ShardKeySpec()

    # ------------------------------------------------------------------
    # Key routing
    # ------------------------------------------------------------------
    @staticmethod
    def hash_value(value: Any) -> int:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            return crc32(value.encode("utf-8"))
        return crc32(repr(value).encode("utf-8"))

    def shard_of(self, table: str, key: Sequence[Any]) -> Optional[int]:
        """Home shard for ``key``, or None for replicated tables."""
        spec = self.spec_of(table)
        if spec.replicated:
            return None
        if spec.extractor is not None:
            value = spec.extractor(tuple(key))
        else:
            value = key[spec.column_pos]
        return self.hash_value(value) % self.shards

    def read_shard_of(self, table: str, key: Sequence[Any],
                      home: int = 0) -> int:
        """Concrete shard to read from; replicated tables read locally."""
        if self.shards == 1:
            return 0
        shard = self.shard_of(table, key)
        return home if shard is None else shard

    def write_shards(self, table: str, key: Sequence[Any]) -> List[int]:
        """Every shard a write to ``key`` must reach (broadcast aware)."""
        shard = self.shard_of(table, key)
        if shard is None:
            return list(range(self.shards))
        return [shard]

    # ------------------------------------------------------------------
    # Statement classification
    # ------------------------------------------------------------------
    def _shard_column(self, table: str, catalog) -> Optional[str]:
        """Name of the shard column, or None if WHERE analysis can't
        narrow this table (replicated or extractor-based specs)."""
        spec = self.spec_of(table)
        if spec.replicated or spec.extractor is not None:
            return None
        key_columns = catalog.table(table).key_columns
        if spec.column_pos >= len(key_columns):
            return None
        return key_columns[spec.column_pos]

    def _candidate_values(self, expr: Optional[ast.Expr],
                          column: str) -> Optional[List[Any]]:
        """Values the shard column may take under ``expr``, or None for
        unconstrained.  Walks AND conjunctions; OR unions both sides."""
        if expr is None:
            return None
        if isinstance(expr, ast.BinOp):
            if expr.op == "and":
                left = self._candidate_values(expr.left, column)
                right = self._candidate_values(expr.right, column)
                if left is None:
                    return right
                if right is None:
                    return left
                both = [v for v in left if v in right]
                return both or left  # contradictions route like left
            if expr.op == "or":
                left = self._candidate_values(expr.left, column)
                right = self._candidate_values(expr.right, column)
                if left is None or right is None:
                    return None
                return left + [v for v in right if v not in left]
            if expr.op == "=":
                sides = (expr.left, expr.right)
                for one, other in (sides, sides[::-1]):
                    if (isinstance(one, ast.ColumnRef)
                            and one.name == column
                            and isinstance(other, ast.Literal)):
                        return [other.value]
                return None
            return None
        if isinstance(expr, ast.InList):
            operand = expr.operand
            if isinstance(operand, ast.ColumnRef) and operand.name == column:
                return list(expr.options)
            return None
        if isinstance(expr, ast.Between):
            operand = expr.operand
            if (isinstance(operand, ast.ColumnRef)
                    and operand.name == column
                    and isinstance(expr.low, ast.Literal)
                    and isinstance(expr.high, ast.Literal)
                    and isinstance(expr.low.value, int)
                    and isinstance(expr.high.value, int)):
                low, high = expr.low.value, expr.high.value
                if 0 <= high - low <= _MAX_RANGE_ENUM:
                    return list(range(low, high + 1))
            return None
        return None

    def _shards_for_values(self, values: Optional[List[Any]]
                           ) -> FrozenSet[int]:
        if values is None:
            return self._all
        return frozenset(
            self.hash_value(v) % self.shards for v in values
        ) or self._all

    def shards_for_select(self, stmt: ast.Select, catalog,
                          params: Sequence[Any] = ()) -> FrozenSet[int]:
        """Shard set a SELECT must visit.

        Replicated tables read from any one shard (shard 0 by
        convention); joins against partitioned tables scatter unless the
        driving table's shard column is pinned.  ``params`` are a
        prepared statement's, bound into ``stmt`` only when there is a
        shard to choose.
        """
        if self.shards == 1:
            return self._all
        if params:
            stmt = bind_statement(stmt, params)
        spec = self.spec_of(stmt.table.name)
        if spec.replicated and not stmt.joins:
            return frozenset((0,))
        column = self._shard_column(stmt.table.name, catalog)
        if column is None:
            return self._all
        return self._shards_for_values(
            self._candidate_values(stmt.where, column)
        )

    def shards_for_dml(self, stmt, catalog) -> FrozenSet[int]:
        """Shard set a DML statement writes to."""
        if self.shards == 1:
            return self._all
        if isinstance(stmt, ast.Insert):
            table = catalog.table(stmt.table)
            shards = set()
            for row in stmt.rows:
                values = self._insert_values(table, stmt.columns, row)
                key = table.key_of(values)
                shards.update(self.write_shards(stmt.table, key))
            return frozenset(shards) or self._all
        spec = self.spec_of(stmt.table)
        if spec.replicated:
            return self._all  # broadcast writes
        column = self._shard_column(stmt.table, catalog)
        if column is None:
            return self._all
        return self._shards_for_values(
            self._candidate_values(stmt.where, column)
        )

    @staticmethod
    def _insert_values(table, columns: Optional[List[str]],
                       row: List[Any]) -> List[Any]:
        if columns is None:
            return list(row)
        values: List[Any] = [None] * len(table.schema.columns)
        for column, value in zip(columns, row):
            values[table.schema.position(column)] = value
        return values
