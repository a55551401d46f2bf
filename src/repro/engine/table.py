"""Tables, secondary indexes, and the catalog.

A table is a heap of slotted pages in its own tablespace (``space_no``)
plus a primary-key B+-tree and any number of secondary B+-trees mapping key
tuples to row locators ``(page_no, slot)``.  Indexes are engine-memory
structures rebuilt from heap pages at recovery time; the heap pages are the
durable truth (via REDO).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..common import PageId, QueryError
from .btree import BPlusTree
from .codec import Schema

__all__ = ["Table", "Catalog", "RowLocator"]

#: A row's physical address inside its tablespace.
RowLocator = Tuple[int, int]  # (page_no, slot)


def _tuple_getter(positions: Sequence[int]) -> Callable[[Sequence[Any]], Tuple]:
    """``values -> tuple(values[p] for p in positions)``, compiled once.

    ``itemgetter`` returns a bare value for a single position, hence the
    one-column wrapper.
    """
    if len(positions) == 1:
        (position,) = positions
        return lambda values: (values[position],)
    return itemgetter(*positions)


class _PageIds(dict):
    """``page_no -> PageId`` of one tablespace, one instance per page.

    ``Table.page_id`` is this dict's ``__getitem__``: every caller gets
    the same :class:`PageId` object for a page, so the dict probes keyed
    by it (``page_versions``, LRU lists, EBP index) hit by identity.
    """

    __slots__ = ("space_no",)

    def __init__(self, space_no: int):
        super().__init__()
        self.space_no = space_no

    def __missing__(self, page_no: int) -> PageId:
        page_id = self[page_no] = PageId(self.space_no, page_no)
        return page_id


@dataclass
class _SecondaryIndex:
    name: str
    columns: Tuple[str, ...]
    #: ``values -> secondary key``: the index columns, then the PK (which
    #: keeps secondary keys unique).
    key_of: Callable[[Sequence[Any]], Tuple]
    tree: BPlusTree = field(default_factory=lambda: BPlusTree(order=64))


class Table:
    """Schema + heap-page bookkeeping + indexes for one table."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        key_columns: Sequence[str],
        space_no: int,
        priority: int = 0,
    ):
        if not key_columns:
            raise QueryError("table %s needs a primary key" % name)
        for column in key_columns:
            schema.position(column)  # validates existence
        self.name = name
        self.schema = schema
        self.key_columns = tuple(key_columns)
        self.space_no = space_no
        #: EBP priority of this table's pages (paper Section V-C).
        self.priority = priority
        self._key_positions = [schema.position(c) for c in key_columns]
        #: ``key_of(values)``: the row's primary-key tuple.
        self.key_of = _tuple_getter(self._key_positions)
        #: ``page_id(page_no)``: the interned :class:`PageId` of a heap page.
        self.page_id = _PageIds(space_no).__getitem__
        self.pk_index = BPlusTree(order=64)
        self.secondary: Dict[str, _SecondaryIndex] = {}
        #: Allocated heap pages, in allocation order.
        self.page_nos: List[int] = []
        self._next_page_no = 0
        #: Engine-maintained free-space hints per page.
        self.free_hints: Dict[int, int] = {}
        self.row_count = 0

    # ------------------------------------------------------------------
    # Secondary indexes
    # ------------------------------------------------------------------
    def add_secondary_index(self, name: str, columns: Sequence[str]) -> None:
        if name in self.secondary:
            raise QueryError("index %s already exists" % name)
        positions = [self.schema.position(c) for c in columns]  # validates
        self.secondary[name] = _SecondaryIndex(
            name, tuple(columns),
            _tuple_getter(positions + self._key_positions),
        )

    # ------------------------------------------------------------------
    # Index maintenance (called by the engine alongside page ops)
    # ------------------------------------------------------------------
    def index_insert(self, values: Sequence[Any], locator: RowLocator) -> None:
        key = self.key_of(values)
        if key in self.pk_index:
            raise QueryError("duplicate key %r in %s" % (key, self.name))
        self.pk_index.insert(key, locator)
        for index in self.secondary.values():
            index.tree.insert(index.key_of(values), locator)
        self.row_count += 1

    def index_delete(self, values: Sequence[Any]) -> None:
        key = self.key_of(values)
        if not self.pk_index.delete(key):
            raise QueryError("missing key %r in %s" % (key, self.name))
        for index in self.secondary.values():
            index.tree.delete(index.key_of(values))
        self.row_count -= 1

    def index_update(
        self,
        old_values: Sequence[Any],
        new_values: Sequence[Any],
        locator: RowLocator,
    ) -> None:
        if self.key_of(old_values) != self.key_of(new_values):
            raise QueryError("primary key update not supported")
        for index in self.secondary.values():
            old_key = index.key_of(old_values)
            new_key = index.key_of(new_values)
            if old_key != new_key:
                index.tree.delete(old_key)
                index.tree.insert(new_key, locator)

    def reindex_row(
        self,
        old_values: Sequence[Any],
        new_values: Sequence[Any],
        new_locator: RowLocator,
    ) -> None:
        """Point every index entry for this row at a new locator
        (row migration when an update outgrows its page)."""
        self.pk_index.insert(self.key_of(new_values), new_locator)
        for index in self.secondary.values():
            index.tree.delete(index.key_of(old_values))
            index.tree.insert(index.key_of(new_values), new_locator)

    def lookup(self, key: Tuple[Any, ...]) -> Optional[RowLocator]:
        return self.pk_index.get(key)

    def lookup_secondary(self, index_name: str, prefix: Tuple[Any, ...]):
        """Iterate locators whose secondary key starts with ``prefix``."""
        index = self.secondary.get(index_name)
        if index is None:
            raise QueryError("no index %s on %s" % (index_name, self.name))
        # Scan from the prefix and stop at the first non-matching key
        # (a synthetic upper bound would need mixed-type comparisons).
        for key, locator in index.tree.range(prefix, None):
            if key[: len(prefix)] != prefix:
                break
            yield key, locator

    # ------------------------------------------------------------------
    # Heap page allocation
    # ------------------------------------------------------------------
    def allocate_page(self) -> int:
        page_no = self._next_page_no
        self._next_page_no += 1
        self.page_nos.append(page_no)
        return page_no

    def note_page(self, page_no: int, free_bytes: int) -> None:
        self.free_hints[page_no] = free_bytes
        if page_no >= self._next_page_no:
            self._next_page_no = page_no + 1
            self.page_nos.append(page_no)

    def choose_page_for_insert(self, row_bytes: int, slot_overhead: int = 8
                               ) -> Optional[int]:
        """A page believed to fit the row, or None to allocate fresh.

        Checks the most recently allocated page first (append-friendly),
        then any page whose hint shows room.
        """
        need = row_bytes + slot_overhead
        if self.page_nos:
            last = self.page_nos[-1]
            if self.free_hints.get(last, 0) >= need:
                return last
        for page_no in reversed(self.page_nos[-8:]):
            if self.free_hints.get(page_no, 0) >= need:
                return page_no
        return None

    def clear_indexes(self) -> None:
        """Drop index contents (recovery rebuilds them from pages)."""
        self.pk_index = BPlusTree(order=64)
        for index in self.secondary.values():
            index.tree = BPlusTree(order=64)
        self.row_count = 0


class Catalog:
    """All tables of a database, keyed by name and by tablespace."""

    def __init__(self):
        self._tables: Dict[str, Table] = {}
        self._by_space: Dict[int, Table] = {}
        self._next_space = 1

    def create_table(
        self,
        name: str,
        schema: Schema,
        key_columns: Sequence[str],
        priority: int = 0,
    ) -> Table:
        if name in self._tables:
            raise QueryError("table %s already exists" % name)
        table = Table(name, schema, key_columns, self._next_space, priority)
        self._next_space += 1
        self._tables[name] = table
        self._by_space[table.space_no] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise QueryError("no table named %s" % name)

    def by_space(self, space_no: int) -> Table:
        try:
            return self._by_space[space_no]
        except KeyError:
            raise QueryError("no tablespace %d" % space_no)

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __len__(self) -> int:
        return len(self._tables)
