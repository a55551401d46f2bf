"""Weight-aware, mergeable aggregate states for incremental views.

Each state folds ``(value, weight)`` deltas (weight -1 retracts a prior
+1) and finalizes to *exactly* the value the executor's group-by kernel
and ``finalize_groups`` produce for the same multiset of rows:

- ``COUNT`` counts contributing rows (``COUNT(*)`` counts every row,
  ``COUNT(expr)`` skips NULLs);
- ``SUM`` starts from ``0.0`` (so an all-integer SUM is a float, as in
  the executor) and is ``None`` over zero contributing rows;
- ``AVG`` is one ``total / count`` division;
- ``MIN``/``MAX`` keep a value -> multiplicity map so retracting the
  current extreme re-exposes the runner-up;
- ``DISTINCT`` keeps the same map and finalizes to the live-value count
  (DISTINCT is non-linear under deletion *of never-seen values* only, so
  the map handles it; view definitions still refuse it).

States also ``merge`` pairwise (two folds of disjoint row sets combine
into the fold of their union).  Serving calls ``finalize`` on each; the
scatter-gather merge does not use these states - it folds the executor's
own partial groups (``repro.shard.router``).

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
    "DistinctState",
    "state_for",
    "new_states",
    "update_states",
    "merge_states",
]


class AggState:
    """Base: fold weighted values, merge with a peer, finalize."""

    __slots__ = ()

    def update(self, value: Any, weight: int) -> None:
        raise NotImplementedError

    def merge(self, other: "AggState") -> None:
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

    def merge(self, other: "CountState") -> None:
        self.count += other.count

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

    def merge(self, other: "SumState") -> None:
        self.count += other.count
        self.total += other.total

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

    def merge(self, other: "MinMaxState") -> None:
        for value, weight in other.values.items():
            self.update(value, weight)

    def finalize(self) -> Any:
        live = [value for value, weight in self.values.items() if weight > 0]
        return self.pick(live) if live else None


class DistinctState(MinMaxState):
    """DISTINCT aggregates: the number of live distinct values.

    The executor finalizes every DISTINCT aggregate to
    ``len(state.distinct)`` regardless of function, so one state serves
    COUNT/SUM/AVG/MIN/MAX(DISTINCT ...) alike.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(None)

    def finalize(self) -> int:
        return sum(1 for weight in self.values.values() if weight > 0)


def state_for(agg: AggCall) -> AggState:
    if agg.distinct:
        return DistinctState()
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


def update_states(
    states: List[AggState],
    aggs: Sequence[AggCall],
    row: Dict[str, Any],
    weight: int = 1,
) -> None:
    """Fold one weighted row into every aggregate's state.

    NULL handling matches the group-by kernel: ``COUNT(*)`` counts the
    row unconditionally; any other aggregate skips NULL arguments.
    """
    for state, agg in zip(states, aggs):
        if agg.argument is None:  # COUNT(*)
            state.update(None, weight)
            continue
        value = agg.argument.eval(row)
        if value is None:
            continue
        state.update(value, weight)


def merge_states(into: List[AggState], other: List[AggState]) -> None:
    for state, extra in zip(into, other):
        state.merge(extra)
