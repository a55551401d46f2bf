"""Weight-aware aggregate states for incremental views.

Each state folds ``(value, weight)`` deltas (weight -1 retracts a prior
+1) and finalizes to *exactly* the value the executor's group-by kernel
and ``finalize_groups`` produce for the same multiset of rows:

- ``COUNT`` counts contributing rows (``COUNT(*)`` counts every row,
  ``COUNT(expr)`` skips NULLs);
- ``SUM`` starts from ``0.0`` (so an all-integer SUM is a float, as in
  the executor) and is ``None`` over zero contributing rows;
- ``AVG`` is one ``total / count`` division;
- ``MIN``/``MAX`` keep a value -> multiplicity map so retracting the
  current extreme re-exposes the runner-up.

The view's compiled fold (``repro.query.kernels.weighted_fold``) calls
``update`` per delta - ``COUNT(*)`` with ``None``, any other aggregate
only with a non-NULL argument, as the group-by kernel accumulates - and
serving calls ``finalize``.  DISTINCT aggregates have no state: view
definitions refuse them.

Caveat (documented in DESIGN.md): SUM/AVG over float-valued columns is
retraction-exact only when every intermediate total is exactly
representable; the repo's audited paths aggregate integer columns,
where float arithmetic below 2**53 is exact.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from ..common import QueryError
from ..query.ast import AggCall

__all__ = [
    "AggState",
    "CountState",
    "SumState",
    "AvgState",
    "MinMaxState",
    "state_for",
    "new_states",
]


class AggState:
    """Base: fold weighted values, finalize."""

    __slots__ = ()

    def update(self, value: Any, weight: int) -> None:
        raise NotImplementedError

    def finalize(self) -> Any:
        raise NotImplementedError


class CountState(AggState):
    """COUNT(*) / COUNT(expr): a signed row count."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def update(self, value: Any, weight: int) -> None:
        self.count += weight

    def finalize(self) -> int:
        return self.count


class SumState(AggState):
    """SUM(expr): signed total plus contributing-row count.

    ``total`` starts at ``0.0`` to mirror the group-by kernel's total
    slot -- an integer-column SUM finalizes to a float either way, keeping
    served answers byte-identical to executor rescans.
    """

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def update(self, value: Any, weight: int) -> None:
        self.count += weight
        self.total += value * weight

    def finalize(self) -> Any:
        return self.total if self.count else None


class AvgState(SumState):
    """AVG(expr): SUM state finalized with one division."""

    __slots__ = ()

    def finalize(self) -> Any:
        return (self.total / self.count) if self.count else None


class MinMaxState(AggState):
    """MIN/MAX(expr): value -> multiplicity, extreme over live values."""

    __slots__ = ("pick", "values")

    def __init__(self, pick) -> None:
        self.pick = pick  # builtin min or max
        self.values: Dict[Any, int] = {}

    def update(self, value: Any, weight: int) -> None:
        total = self.values.get(value, 0) + weight
        if total:
            self.values[value] = total
        else:
            del self.values[value]

    def finalize(self) -> Any:
        live = [value for value, weight in self.values.items() if weight > 0]
        return self.pick(live) if live else None


def state_for(agg: AggCall) -> AggState:
    if agg.distinct:
        raise QueryError("DISTINCT aggregates are not maintainable")
    if agg.func == "count":
        return CountState()
    if agg.func == "sum":
        return SumState()
    if agg.func == "avg":
        return AvgState()
    if agg.func == "min":
        return MinMaxState(min)
    if agg.func == "max":
        return MinMaxState(max)
    raise QueryError("unknown aggregate %r" % agg.func)


def new_states(aggs: Sequence[AggCall]) -> List[AggState]:
    return [state_for(agg) for agg in aggs]
