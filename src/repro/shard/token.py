"""Per-shard commit tokens for session consistency.

With one primary, read-your-writes is a single wait-for-LSN scalar: the
session remembers the highest commit LSN it produced and every replica
read waits until the replica has applied at least that much.  With N
primaries there are N independent LSN streams, so the token becomes a
*vector*: one watermark per shard.  Reads against shard ``k``'s replica
chain only wait on component ``k`` - a session that wrote on shard 0
never stalls its shard-1 reads.

Single-shard deployments use a one-entry vector, so the proxy, fleet and
standby code paths are uniform; the scalar ``last_commit_lsn`` surface
survives only as a thin accessor over component 0.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

__all__ = ["ShardVectorToken"]


class ShardVectorToken:
    """A monotone per-shard vector of commit LSNs."""

    __slots__ = ("lsns",)

    def __init__(self, shards: int = 1,
                 lsns: Optional[Sequence[int]] = None):
        if lsns is not None:
            self.lsns: List[int] = list(lsns)
        else:
            if shards < 1:
                raise ValueError("token needs at least one shard")
            self.lsns = [0] * shards

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        return len(self.lsns)

    def get(self, shard: int) -> int:
        return self.lsns[shard]

    def max_lsn(self) -> int:
        return max(self.lsns)

    def as_dict(self) -> Dict[int, int]:
        """Non-zero components only (compact wire/report form)."""
        return {i: lsn for i, lsn in enumerate(self.lsns) if lsn}

    # ------------------------------------------------------------------
    # Updates (all monotone: components never move backwards)
    # ------------------------------------------------------------------
    def note(self, shard: int, lsn: int) -> None:
        if lsn > self.lsns[shard]:
            self.lsns[shard] = lsn

    def note_map(self, lsns: Mapping[int, int]) -> None:
        for shard, lsn in lsns.items():
            self.note(shard, lsn)

    def merge(self, other: "ShardVectorToken") -> "ShardVectorToken":
        """Component-wise max with ``other`` (in place); returns self."""
        if other.shards != self.shards:
            raise ValueError(
                "cannot merge %d-shard token into %d-shard token"
                % (other.shards, self.shards)
            )
        for shard, lsn in enumerate(other.lsns):
            if lsn > self.lsns[shard]:
                self.lsns[shard] = lsn
        return self

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def covered_by(self, applied: Sequence[int]) -> bool:
        """True if every component is applied: ``applied[k] >= lsns[k]``."""
        if len(applied) < len(self.lsns):
            raise ValueError("applied vector shorter than token")
        return all(
            have >= want for want, have in zip(self.lsns, applied)
        )

    def copy(self) -> "ShardVectorToken":
        return ShardVectorToken(lsns=self.lsns)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ShardVectorToken) and other.lsns == self.lsns
        )

    def __repr__(self) -> str:
        return "ShardVectorToken(%r)" % (self.lsns,)
