"""The internal advertisement workload (paper Section VII-A, Fig. 9).

A core data-processing library for advertising with a strict latency SLO
(~10 ms P99).  The traffic is a read-mostly mix of point lookups over
campaign state with frequent small counter updates - every update commit
sits on the log-write path, so log latency (and its spikes) dominates the
observed query latency distribution.  The paper replays identical traffic
against a stock veDB and a veDB+AStore deployment; so does this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common import TransactionAborted
from ..engine.codec import BIGINT, DECIMAL, INT, VARCHAR, Column, Schema
from ..engine.dbengine import DBEngine
from ..sim.metrics import LatencyRecorder
from ..sim.rand import Rng, ZipfGenerator

__all__ = ["AdsConfig", "AdsDatabase", "AdsClient"]


@dataclass
class AdsConfig:
    campaigns: int = 400
    #: Fraction of operations that update counters (the rest are reads).
    update_fraction: float = 0.35
    zipf_theta: float = 0.9


class AdsDatabase:
    """Campaign state table."""

    def __init__(self, engine: DBEngine, config: AdsConfig):
        self.engine = engine
        self.config = config
        engine.create_table(
            "campaign",
            Schema(
                [
                    Column("cp_id", INT()),
                    Column("cp_name", VARCHAR(40)),
                    Column("cp_budget", DECIMAL(2)),
                    Column("cp_spend", DECIMAL(2)),
                    Column("cp_impressions", BIGINT()),
                    Column("cp_clicks", BIGINT()),
                    Column("cp_state", VARCHAR(10)),
                ]
            ),
            ["cp_id"],
        )

    def load(self):
        txn = self.engine.begin()
        for cp_id in range(1, self.config.campaigns + 1):
            yield from self.engine.insert(
                txn,
                "campaign",
                [cp_id, "campaign-%d" % cp_id, 10000.0, 0.0, 0, 0, "active"],
            )
            if cp_id % 200 == 0:
                yield from self.engine.commit(txn)
                txn = self.engine.begin()
        yield from self.engine.commit(txn)


class AdsClient:
    """One ad-serving worker replaying the production-like mix."""

    def __init__(self, database: AdsDatabase, rng: Rng):
        self.db = database
        self.engine = database.engine
        self.rng = rng
        self.zipf = ZipfGenerator(database.config.campaigns,
                                  database.config.zipf_theta, rng)
        self.latencies = LatencyRecorder()
        self.committed = 0
        self.aborted = 0

    def _campaign(self) -> int:
        return 1 + self.zipf.next()

    def run_one(self):
        """Generator: one SLO-measured operation (read or counter update)."""
        start = self.engine.env.now
        cp_id = self._campaign()
        if self.rng.random() < self.db.config.update_fraction:
            txn = self.engine.begin()
            try:
                row = yield from self.engine.read_row(
                    txn, "campaign", (cp_id,), for_update=True
                )
                yield from self.engine.update(
                    txn,
                    "campaign",
                    (cp_id,),
                    {
                        "cp_impressions": row[4] + 1,
                        "cp_clicks": row[5] + (1 if self.rng.random() < 0.1 else 0),
                        "cp_spend": round(row[3] + 0.05, 2),
                    },
                )
                yield from self.engine.commit(txn)
            except TransactionAborted:
                yield from self.engine.rollback(txn)
                self.aborted += 1
                return None
        else:
            yield from self.engine.read_row(None, "campaign", (cp_id,))
        latency = self.engine.env.now - start
        self.latencies.record(latency)
        self.committed += 1
        return latency

    def run_for(self, duration: float):
        """Generator: replay traffic until the deadline."""
        deadline = self.engine.env.now + duration
        while self.engine.env.now < deadline:
            yield from self.run_one()
