"""The REDO log holds bytes: a group-commit batch encodes to one blob.

``encode_batch`` is what both log backends persist and ``decode_batch`` is
what recovery and 2PC decision harvesting read back, so every record shape
the engine logs must come back equal field by field - including the
sizes (``log_bytes``) and the marker test (``is_marker``) derived from
them.  The integration check drives a seeded TPC-C slice and reads the
AStore ring itself: no segment entry holds a Python record.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import PageId
from repro.engine.dbengine import MARKER_PAGE
from repro.engine.logbackends import AStoreLogBackend
from repro.engine.page import PageOp
from repro.engine.wal import (
    RedoRecord,
    decode_batch,
    encode_batch,
    encode_records_size,
)
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.sim.core import AllOf
from repro.workloads.tpcc import TpccClient, TpccConfig, TpccDatabase

LARGE = 2**62
lsns = st.integers(min_value=1, max_value=LARGE)
txn_ids = st.integers(min_value=0, max_value=LARGE)
slots = st.integers(min_value=0, max_value=2**32 - 1)
page_ids = st.builds(PageId, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
rows = st.binary(max_size=300)  # b"" is a row too
undo_rows = st.none() | st.binary(max_size=300)
gtids = st.none() | st.text(max_size=24)


@st.composite
def data_records(draw):
    """A page op of each kind, or a CLR compensating an earlier LSN."""
    kind = draw(st.sampled_from(PageOp.VALID_KINDS))
    row = draw(rows) if kind in ("insert", "update") else draw(st.none() | rows)
    clr = draw(st.booleans())
    return RedoRecord(
        draw(lsns), draw(txn_ids), draw(page_ids),
        PageOp(kind, slot=draw(slots), row=row),
        clr=clr,
        compensates=draw(lsns) if clr else -1,
        undo_row=draw(undo_rows),
    )


@st.composite
def markers(draw):
    """Commit, abort, prepare and decision markers, with and without a
    global transaction id."""
    flag = draw(st.sampled_from(("commit", "abort", "prepare", "decision")))
    return RedoRecord(
        draw(lsns), draw(txn_ids), MARKER_PAGE, PageOp("format"),
        gtid=draw(gtids), **{flag: True})


batches = st.lists(data_records() | markers(), max_size=12)


def fields_of(record):
    """Every field of a record and of its op, init or derived."""
    return (
        [(f.name, getattr(record, f.name)) for f in dataclasses.fields(record)
         if f.name != "op"]
        + [(f.name, getattr(record.op, f.name))
           for f in dataclasses.fields(record.op)]
    )


@settings(max_examples=300)
@given(batches)
def test_a_batch_decodes_to_its_records_field_by_field(batch):
    decoded = decode_batch(encode_batch(batch))
    assert [fields_of(r) for r in decoded] == [fields_of(r) for r in batch]
    assert [r.is_marker for r in decoded] == [r.is_marker for r in batch]
    assert encode_records_size(decoded) == encode_records_size(batch)
    assert decoded == batch


def test_the_back_link_is_framing_the_log_does_not_hold():
    record = RedoRecord(9, 3, PageId(1, 2), PageOp("insert", 4, b"row"),
                        back_link=5)
    (decoded,) = decode_batch(encode_batch([record]))
    assert decoded.back_link == -1
    assert decoded == record  # the stamp is not part of the record
    assert encode_batch([]) == b"" and decode_batch(b"") == []


def test_a_tpcc_slice_leaves_only_bytes_in_the_ring_and_recovers_them():
    dep = Deployment(DeploymentSpec.astore_pq(seed=3))
    dep.start()
    engine = dep.engine
    assert isinstance(engine.log_backend, AStoreLogBackend)
    flushed = []
    flush = engine.log_backend.flush

    def recorded_flush(records, nbytes):
        yield from flush(records, nbytes)
        flushed.extend(records)

    engine.log_backend.flush = recorded_flush
    database = TpccDatabase(engine, TpccConfig(), dep.seeds.stream("codec-load"))
    dep.run_until(dep.env.process(database.load()))
    terminals = [TpccClient(database, dep.seeds.stream("codec-%d" % index))
                 for index in range(4)]
    dep.run_until(AllOf(dep.env, [
        dep.env.process(t.run_for(0.01)) for t in terminals]))
    assert sum(t.committed for t in terminals) > 20
    assert dep.ring.segment_advances == 0  # nothing recycled: all retained

    ring_ids = set(dep.ring.segment_ids)
    blobs = 0
    for server in dep.astore.servers.values():
        for segment_id, segment in server.segments.items():
            if segment_id not in ring_ids:
                continue
            for offset, entry in segment.entries.items():
                if offset > 0:
                    _lsn, payload = entry.payload
                    assert type(payload) is bytes
                    blobs += 1
    assert blobs >= engine.log.flushes

    recovered = dep.run_until(dep.env.process(engine.log_backend.recover()))
    assert len(recovered) == len(flushed) == engine.log.records_flushed
    assert recovered == flushed
    assert [r.log_bytes for r in recovered] == [r.log_bytes for r in flushed]
