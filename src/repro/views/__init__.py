"""repro.views: DBSP-style incremental materialized views on the REDO feed.

The package maintains materialized aggregate views incrementally from
``DBEngine.subscribe_redo()`` delta batches instead of rescanning the
base table per query:

- :mod:`repro.views.zset` -- the Z-set delta algebra (row -> integer
  weight multisets with annihilation at weight zero).
- :mod:`repro.views.aggstate` -- weight-aware aggregate states
  (COUNT/SUM/AVG/MIN/MAX) with executor finalize parity.
- :mod:`repro.views.definition` -- SQL-parsed, validated view
  definitions (linear operators only: filter/project/group-by
  aggregates; joins and DISTINCT aggregates are out of scope).
- :mod:`repro.views.maintainer` -- the ``ViewMaintainer`` daemon that
  drains one REDO feed cursor per view, decodes records into +-1
  deltas, folds them (one compiled loop per view over the columns it
  reads) into view state stamped with an applied-LSN watermark, and
  serves eligible SELECTs in O(result).
- :mod:`repro.views.scenario` -- the deterministic ``python -m repro
  views`` freshness/equivalence scenario.
"""

from .aggstate import AggState, new_states
from .definition import ViewDefinition
from .maintainer import MaintainedView, ViewMaintainer
from .zset import ZSet

__all__ = [
    "AggState",
    "MaintainedView",
    "ViewDefinition",
    "ViewMaintainer",
    "ZSet",
    "new_states",
]
