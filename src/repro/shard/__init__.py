"""Sharded multi-primary support: routing, vector tokens, and 2PC.

- :mod:`repro.shard.shardmap` - hash key->shard routing + statement
  shard-set classification
- :mod:`repro.shard.token` - per-shard commit-LSN vector tokens for
  session read-your-writes
- :mod:`repro.shard.coordinator` - cross-shard transactions as
  two-phase commit with presumed abort and in-doubt recovery
- :mod:`repro.shard.router` - scatter-gather SELECT result merging
- :mod:`repro.shard.robustness` - global deadlock detection + the
  commit fence that makes scatter reads atomic w.r.t. 2PC commits
"""

from .coordinator import (
    FAILPOINTS,
    Coordinator,
    CoordinatorSession,
    DistributedTxn,
    InDoubtTransaction,
)
from .robustness import CommitFence, FenceTimeout, GlobalDeadlockDetector
from .router import merge
from .shardmap import ShardKeySpec, ShardMap
from .token import ShardVectorToken

__all__ = [
    "CommitFence",
    "Coordinator",
    "CoordinatorSession",
    "DistributedTxn",
    "FenceTimeout",
    "GlobalDeadlockDetector",
    "InDoubtTransaction",
    "FAILPOINTS",
    "ShardKeySpec",
    "ShardMap",
    "ShardVectorToken",
    "merge",
]
