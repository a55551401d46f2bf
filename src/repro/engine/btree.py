"""An order-configurable B+-tree used for table indexes.

The engine keeps one primary-key index per table and any number of
secondary indexes; each maps a key tuple to a row locator
``(page_id, slot)``.  Indexes are rebuilt from heap pages at recovery time
(so they never need their own REDO), but their runtime behaviour - probe
cost, range scans in key order - shapes every query's page access pattern.

The implementation is a textbook B+-tree with linked leaves: supports
insert, delete, point lookup, and half-open range scans, with keys as
tuples compared lexicographically.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Tuple

__all__ = ["BPlusTree"]


class _Node:
    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.keys: List[Any] = []
        self.children: List["_Node"] = []  # internal nodes
        self.values: List[Any] = []  # leaves
        self.next_leaf: Optional["_Node"] = None


class BPlusTree:
    """B+-tree keyed by tuples (or any totally ordered values)."""

    def __init__(self, order: int = 64):
        if order < 4:
            raise ValueError("order must be >= 4")
        self.order = order
        self._root = _Node(is_leaf=True)
        self._size = 0
        self.height = 1

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _find_leaf(self, key: Any) -> _Node:
        node = self._root
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        return node

    def get(self, key: Any, default: Any = None) -> Any:
        # The point probe under every statement: descent inlined.
        node = self._root
        while not node.is_leaf:
            node = node.children[bisect.bisect_right(node.keys, key)]
        keys = node.keys
        index = bisect.bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            return node.values[index]
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> None:
        """Insert or overwrite ``key``."""
        path: List[Tuple[_Node, int]] = []
        node = self._root
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            path.append((node, index))
            node = node.children[index]
        index = bisect.bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            node.values[index] = value
            return
        node.keys.insert(index, key)
        node.values.insert(index, value)
        self._size += 1
        # Split bottom-up while nodes overflow.
        while len(node.keys) > self.order:
            sibling, separator = self._split(node)
            if not path:
                new_root = _Node(is_leaf=False)
                new_root.keys = [separator]
                new_root.children = [node, sibling]
                self._root = new_root
                self.height += 1
                return
            parent, child_index = path.pop()
            parent.keys.insert(child_index, separator)
            parent.children.insert(child_index + 1, sibling)
            node = parent

    def _split(self, node: _Node) -> Tuple[_Node, Any]:
        mid = len(node.keys) // 2
        sibling = _Node(is_leaf=node.is_leaf)
        if node.is_leaf:
            sibling.keys = node.keys[mid:]
            sibling.values = node.values[mid:]
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            sibling.next_leaf = node.next_leaf
            node.next_leaf = sibling
            separator = sibling.keys[0]
        else:
            separator = node.keys[mid]
            sibling.keys = node.keys[mid + 1 :]
            sibling.children = node.children[mid + 1 :]
            node.keys = node.keys[:mid]
            node.children = node.children[: mid + 1]
        return sibling, separator

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns False if absent.

        Underflowed nodes are left lazy (no rebalancing) except that an
        empty root collapses; lazy deletion keeps the structure simple and
        is a common engineering choice (e.g. LMDB) - lookups and scans
        remain correct, and reinserts reuse the space.
        """
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return False
        leaf.keys.pop(index)
        leaf.values.pop(index)
        self._size -= 1
        while not self._root.is_leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self.height -= 1
        return True

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def items(self) -> Iterator[Tuple[Any, Any]]:
        """All (key, value) pairs in key order."""
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        while node is not None:
            for key, value in zip(node.keys, node.values):
                yield key, value
            node = node.next_leaf

    def range(
        self, low: Any = None, high: Any = None, include_high: bool = False
    ) -> Iterator[Tuple[Any, Any]]:
        """(key, value) pairs with low <= key < high (or <= with flag)."""
        if low is None:
            node = self._root
            while not node.is_leaf:
                node = node.children[0]
            index = 0
        else:
            node = self._find_leaf(low)
            index = bisect.bisect_left(node.keys, low)
        while node is not None:
            while index < len(node.keys):
                key = node.keys[index]
                if high is not None:
                    if include_high and key > high:
                        return
                    if not include_high and key >= high:
                        return
                yield key, node.values[index]
                index += 1
            node = node.next_leaf
            index = 0

    def min_key(self) -> Any:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0] if node.keys else None

    def max_key(self) -> Any:
        node = self._root
        while not node.is_leaf:
            node = node.children[-1]
        return node.keys[-1] if node.keys else None
