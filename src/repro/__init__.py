"""repro: a reproduction of "Accelerating Cloud-Native Databases with
Distributed PMem Stores" (ICDE 2023).

The package implements the full veDB + AStore system described in the
paper - DBEngine, LogStore, PageStore, the AStore distributed PMem store,
the Extended Buffer Pool, and the query push-down framework - on top of a
deterministic discrete-event simulation substrate that stands in for the
Optane PMem / RDMA / NVMe hardware the paper's testbed used.

Quick start::

    from repro import DeploymentSpec

    dep = DeploymentSpec.astore_ebp().build()   # or: DeploymentSpec().with_astore().with_ebp(64 * MB).build()
    dep.start()
    # ... create tables on dep.engine, run workloads, open SQL sessions.

See README.md and the examples/ directory.
"""

from .common import (
    GB,
    KB,
    MB,
    MS,
    PAGE_SIZE,
    US,
    OverloadError,
    PageId,
    QueryError,
    ReproError,
    StorageError,
    TransactionAborted,
)
from .harness.deployment import Deployment, DeploymentSpec

__version__ = "1.0.0"

__all__ = [
    "Deployment",
    "DeploymentSpec",
    "PageId",
    "ReproError",
    "StorageError",
    "QueryError",
    "TransactionAborted",
    "OverloadError",
    "KB",
    "MB",
    "GB",
    "US",
    "MS",
    "PAGE_SIZE",
    "__version__",
]
