"""Property test: PageStore replicas converge despite arbitrary outages.

Random partition schedules knock replicas out during shipping; back-links
detect the gaps and gossip heals them.  Whatever the schedule, every
replica that is up at the end must reach the same page contents.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import MS, PageId
from repro.engine.page import PageOp
from repro.engine.wal import RedoRecord
from repro.sim.core import Environment
from repro.sim.rand import SeedSequence
from repro.storage.pagestore import PageStoreService


@given(
    outages=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),  # replica index
            st.integers(min_value=0, max_value=19),  # down from batch n
            st.integers(min_value=1, max_value=6),  # for k batches
        ),
        max_size=4,
    ),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=15, deadline=None)
def test_replicas_converge_after_arbitrary_outages(outages, seed):
    env = Environment()
    service = PageStoreService(env, SeedSequence(seed), num_servers=3,
                               num_segments=1)
    page_id = PageId(1, 1)
    replicas = service.replicas_of(0)
    batches = 20

    def down_set(batch_no):
        down = set()
        for replica_index, start, length in outages:
            if start <= batch_no < start + length:
                down.add(replica_index)
        # Quorum needs 2 of 3 alive; cap outages at one at a time.
        return set(list(down)[:1])

    def driver(env):
        lsn = 0
        for batch_no in range(batches):
            down = down_set(batch_no)
            for index, server in enumerate(replicas):
                server.alive = index not in down
            lsn += 100
            op = PageOp("insert", slot=batch_no, row=b"b%03d" % batch_no)
            record = RedoRecord(lsn=lsn, txn_id=1, page_id=page_id, op=op)
            yield from service.ship_records([record])
            yield env.timeout(1 * MS)
        # Heal everything, then ship one more record: back-links detect
        # *interior* gaps only, so a replica that missed the tail of the
        # stream learns about it from the next record's back-link - the
        # paper's exact mechanism (a silent tail gap heals on the next
        # write, not spontaneously).
        for server in replicas:
            server.alive = True
        lsn += 100
        sentinel = RedoRecord(
            lsn=lsn, txn_id=1, page_id=page_id,
            op=PageOp("insert", slot=batches, row=b"sentinel"),
        )
        yield from service.ship_records([sentinel])
        yield env.timeout(2 * MS)
        for server in replicas:
            yield from service._gossip_fill(server, 0)
        return lsn

    proc = env.process(driver(env))
    env.run_until_event(proc)

    pages = [server.replica(0).pages.get(page_id) for server in replicas]
    assert all(page is not None for page in pages)
    reference = pages[0]
    for page in pages[1:]:
        assert page.same_content(reference)
    assert reference.row_count == batches + 1  # + the sentinel
