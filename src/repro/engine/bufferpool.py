"""The DBEngine's in-memory buffer pool.

InnoDB-style page cache with the paper's contention-reduction trick: pages
hash onto multiple independent LRU lists, so concurrent threads rarely
contend on the same list lock (Section V-D describes the same structure for
the EBP).

Eviction is clean-drop: under the log-is-database principle the engine
never writes pages back to storage - every change is already in the REDO
stream - so evicting a page is free except for the optional hand-off to the
extended buffer pool (``on_evict``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from ..common import PAGE_SIZE, PageId
from .page import Page

__all__ = ["BufferPool"]


class BufferPool:
    """Fixed-capacity page cache with hash-striped LRU lists."""

    def __init__(
        self,
        capacity_bytes: int,
        page_size: int = PAGE_SIZE,
        lru_lists: int = 8,
        on_evict: Optional[Callable[[Page], None]] = None,
        can_evict: Optional[Callable[[Page], bool]] = None,
    ):
        if capacity_bytes < page_size:
            raise ValueError("buffer pool smaller than one page")
        if lru_lists < 1:
            raise ValueError("need at least one LRU list")
        self.capacity_pages = capacity_bytes // page_size
        self.page_size = page_size
        self.on_evict = on_evict
        #: WAL guard: a page whose latest change is not yet durable must not
        #: leave the pool (it could not be reconstructed after a crash).
        #: When no page is evictable the pool temporarily exceeds capacity;
        #: the guard is asked once per page it makes the scan skip, which is
        #: where the engine demands that page's LSN from the log buffer, so
        #: a later ``put`` finds it evictable and shrinks the pool back.
        self.can_evict = can_evict
        self._lists: List[OrderedDict] = [OrderedDict() for _ in range(lru_lists)]
        self._where: Dict[PageId, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, page_id: PageId) -> bool:
        return page_id in self._where

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def get(self, page_id: PageId) -> Optional[Page]:
        """Return the cached page (promoting it to MRU) or None."""
        lists = self._lists
        lru = lists[hash(page_id) % len(lists)]
        page = lru.get(page_id)
        if page is None:
            self.misses += 1
            return None
        lru.move_to_end(page_id)
        self.hits += 1
        return page

    def peek(self, page_id: PageId) -> Optional[Page]:
        """Non-promoting lookup (used by background maintenance)."""
        lists = self._lists
        return lists[hash(page_id) % len(lists)].get(page_id)

    def put(self, page: Page) -> List[Page]:
        """Cache a page; returns any pages evicted to make room."""
        page_id = page.page_id
        stripe = hash(page_id) % len(self._lists)
        lru = self._lists[stripe]
        if page_id in lru:
            lru[page_id] = page
            lru.move_to_end(page_id)
            return []
        evicted: List[Page] = []
        while len(self._where) >= self.capacity_pages:
            victim = self._evict_one(prefer_not=page_id)
            if victim is None:
                break
            evicted.append(victim)
        lru[page_id] = page
        self._where[page_id] = stripe
        return evicted

    def _evict_one(self, prefer_not: Optional[PageId] = None) -> Optional[Page]:
        """Evict the least recently used *evictable* page of the fullest list."""
        candidates = [lst for lst in self._lists if lst]
        if not candidates:
            return None
        fullest = max(candidates, key=len)
        victim_id = None
        scanned = 0
        for page_id in fullest:
            scanned += 1
            if page_id == prefer_not:
                continue
            page = fullest[page_id]
            if self.can_evict is None or self.can_evict(page):
                victim_id = page_id
                break
            if scanned >= 32:  # bounded scan, like InnoDB's LRU search depth
                break
        if victim_id is None:
            return None
        victim = fullest.pop(victim_id)
        del self._where[victim_id]
        self.evictions += 1
        if self.on_evict is not None:
            self.on_evict(victim)
        return victim

    def drop(self, page_id: PageId) -> None:
        """Remove a page without the eviction hook (e.g. table drop)."""
        stripe = self._where.pop(page_id, None)
        if stripe is not None:
            del self._lists[stripe][page_id]

    def clear(self) -> None:
        """Empty the pool (crash simulation: DRAM contents are lost)."""
        for lst in self._lists:
            lst.clear()
        self._where.clear()

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def used_pages(self) -> int:
        return len(self._where)
