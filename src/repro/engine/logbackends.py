"""Log backends: adapters from the engine's group commit to a log store.

Two deployments from the paper:

- :class:`SsdLogBackend` - the original veDB path: BlobGroup-based LogStore
  over SSD + TCP (~0.6 ms per append, spiky).
- :class:`AStoreLogBackend` - the accelerated path: a SegmentRing of
  pre-created PMem segments written with one-sided RDMA (~tens of us).

Both retain flushed record batches for crash recovery; for AStore the
retained copy *is* the PMem content (SegmentRing.recover reads it back),
while the SSD backend models the equivalent LogStore scan.
"""

from __future__ import annotations

from typing import List

from ..astore.segment_ring import SegmentRing
from ..storage.logstore import LogStore
from .dbengine import LogBackend
from .wal import RedoRecord, encode_records_size

__all__ = ["SsdLogBackend", "AStoreLogBackend"]


class SsdLogBackend(LogBackend):
    """Group commit into the baseline SSD/TCP LogStore."""

    def __init__(self, logstore: LogStore):
        self.logstore = logstore
        self._retained: List[RedoRecord] = []

    def flush(self, records: List[RedoRecord], nbytes: int):
        yield from self.logstore.append(nbytes)
        self._retained.extend(records)

    def recover(self):
        """Generator: scan the persisted log (one bulk read per replica
        blob; modelled as a single large device read)."""
        total = encode_records_size(self._retained)
        if total and self.logstore.servers:
            server = self.logstore.servers[0]
            yield from self.logstore.network.send(64)
            yield from server.device.read(total)
            yield from self.logstore.network.send(total)
        return list(self._retained)


class AStoreLogBackend(LogBackend):
    """Group commit into an AStore SegmentRing."""

    def __init__(self, ring: SegmentRing):
        self.ring = ring

    def flush(self, records: List[RedoRecord], nbytes: int):
        # One SegmentRing append per batch: large writes are NOT split
        # (SegmentRing design point #1).
        last_lsn = records[-1].lsn
        # The writer hands over a batch list it never touches again, so
        # that list itself is the segment entry's payload.
        yield from self.ring.append(last_lsn, max(nbytes, 1), records)

    def recover(self):
        """Generator: binary-search the ring headers, read the live tail.

        SegmentRing recovery returns (lsn, batch) pairs; flatten and also
        include every batch from earlier non-recycled segments by scanning
        them too (they are still addressable until recycled).
        """
        result = yield from self.ring.recover()
        records: List[RedoRecord] = []
        # Scan all live segments, not just the active one: FULL segments
        # that have not been recycled still hold REDO the engine may need.
        seen = set()
        for index, segment_id in enumerate(self.ring.segment_ids):
            header = self.ring.headers[index]
            if header.status == "empty":
                continue
            entries = yield from self.ring.client.read_entries(segment_id)
            for offset, _length, payload in entries:
                if offset == 0:
                    continue  # header
                _lsn, batch = payload
                for record in batch:
                    if record.lsn not in seen:
                        seen.add(record.lsn)
                        records.append(record)
        records.sort(key=lambda r: r.lsn)
        return records
