"""Log backends: adapters from the engine's group commit to a log store.

Two deployments from the paper:

- :class:`SsdLogBackend` - the original veDB path: BlobGroup-based LogStore
  over SSD + TCP (~0.6 ms per append, spiky).
- :class:`AStoreLogBackend` - the accelerated path: a SegmentRing of
  pre-created PMem segments written with one-sided RDMA (~tens of us).

Both persist each flushed batch as the bytes of :func:`encode_batch` and
recover by decoding them: for AStore the blob *is* the PMem segment
entry (SegmentRing.recover reads it back), while the SSD backend keeps
the blobs a LogStore scan would return.
"""

from __future__ import annotations

from typing import List

from ..astore.segment_ring import SegmentRing
from ..storage.logstore import LogStore
from .dbengine import LogBackend
from .wal import RedoRecord, decode_batch, encode_batch

__all__ = ["SsdLogBackend", "AStoreLogBackend"]


class SsdLogBackend(LogBackend):
    """Group commit into the baseline SSD/TCP LogStore."""

    def __init__(self, logstore: LogStore):
        self.logstore = logstore
        self._retained: List[bytes] = []
        #: Serialized size of the retained log, as each flush was charged.
        self._retained_bytes = 0

    def flush(self, records: List[RedoRecord], nbytes: int):
        yield from self.logstore.append(nbytes)
        self._retained.append(encode_batch(records))
        self._retained_bytes += nbytes

    def recover(self):
        """Generator: scan the persisted log (one bulk read per replica
        blob; modelled as a single large device read)."""
        total = self._retained_bytes
        if total and self.logstore.servers:
            server = self.logstore.servers[0]
            yield from self.logstore.network.send(64)
            yield from server.device.read(total)
            yield from self.logstore.network.send(total)
        return [record for blob in self._retained
                for record in decode_batch(blob)]


class AStoreLogBackend(LogBackend):
    """Group commit into an AStore SegmentRing."""

    def __init__(self, ring: SegmentRing):
        self.ring = ring

    def flush(self, records: List[RedoRecord], nbytes: int):
        # One SegmentRing append per batch: large writes are NOT split
        # (SegmentRing design point #1).  The entry's payload is the
        # batch's bytes; its length is what the write is charged.
        yield from self.ring.append(
            records[-1].lsn, max(nbytes, 1), encode_batch(records))

    def recover(self):
        """Generator: binary-search the ring headers, read the live tail.

        SegmentRing recovery returns (lsn, blob) pairs; decode and also
        include every batch from earlier non-recycled segments by scanning
        them too (they are still addressable until recycled).
        """
        yield from self.ring.recover()
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
                _lsn, blob = payload
                for record in decode_batch(blob):
                    if record.lsn not in seen:
                        seen.add(record.lsn)
                        records.append(record)
        records.sort(key=lambda r: r.lsn)
        return records
