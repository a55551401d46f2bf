"""The veDB DBEngine: pages, indexes, buffer pools, WAL, transactions.

- :mod:`repro.engine.page` - slotted pages and REDO page operations
- :mod:`repro.engine.codec` - schema-driven row encoding
- :mod:`repro.engine.btree` - B+-tree indexes
- :mod:`repro.engine.table` - tables, secondary indexes, catalog
- :mod:`repro.engine.bufferpool` - striped-LRU DRAM page cache
- :mod:`repro.engine.ebp` - the AStore-backed Extended Buffer Pool
- :mod:`repro.engine.wal` - REDO records, LSNs, group commit
- :mod:`repro.engine.txn` - row locks and transaction state
- :mod:`repro.engine.dbengine` - the engine itself
- :mod:`repro.engine.logbackends` - LogStore vs AStore log adapters
- :mod:`repro.engine.redo_applier` - the one REDO consumer (replicas, views)
"""

from .bufferpool import BufferPool
from .btree import BPlusTree
from .codec import BIGINT, DECIMAL, FLOAT, INT, VARCHAR, Column, Schema
from .dbengine import DBEngine, EngineConfig, LogBackend
from .ebp import EbpEntry, ExtendedBufferPool
from .logbackends import AStoreLogBackend, SsdLogBackend
from .page import Page, PageOp, apply_op
from .standby import StandbyReplica
from .table import Catalog, Table
from .txn import LockManager, Transaction
from .wal import LogBuffer, LsnAllocator, RedoRecord

__all__ = [
    "BufferPool",
    "BPlusTree",
    "INT",
    "BIGINT",
    "FLOAT",
    "DECIMAL",
    "VARCHAR",
    "Column",
    "Schema",
    "DBEngine",
    "EngineConfig",
    "LogBackend",
    "ExtendedBufferPool",
    "EbpEntry",
    "AStoreLogBackend",
    "SsdLogBackend",
    "Page",
    "PageOp",
    "apply_op",
    "StandbyReplica",
    "Catalog",
    "Table",
    "LockManager",
    "Transaction",
    "LogBuffer",
    "LsnAllocator",
    "RedoRecord",
]
