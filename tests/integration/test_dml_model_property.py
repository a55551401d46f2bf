"""Model-based property test: the full veDB stack vs a Python dict.

A random DML sequence runs through the complete system (engine + AStore
log + EBP + PageStore) and, in parallel, through a plain dict model.  At
every read the two must agree; after a crash + ARIES recovery the whole
table must equal the model exactly.  This is the strongest end-to-end
correctness property the reproduction asserts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Deployment, DeploymentSpec
from repro.common import KB, MB
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.engine.dbengine import EngineConfig


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "read", "abort_txn"]),
        st.integers(min_value=0, max_value=30),
        st.text(
            alphabet="abcdefghij", min_size=0, max_size=12
        ),
    ),
    min_size=5,
    max_size=60,
)


@given(ops=ops_strategy, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=12, deadline=None)
def test_engine_matches_dict_model_and_survives_crash(ops, seed):
    dep = Deployment(
        DeploymentSpec.astore_ebp(
            seed=seed,
            # Tiny buffer pool: force real EBP/PageStore traffic.
            engine=EngineConfig(buffer_pool_bytes=4 * 16 * KB),
            ebp_capacity_bytes=8 * MB,
            ebp_segment_bytes=2 * MB,
        )
    )
    dep.start()
    engine = dep.engine
    engine.create_table(
        "t",
        Schema([Column("k", INT()), Column("v", VARCHAR(64))]),
        ["k"],
    )
    model = {}

    def work(env):
        for kind, key, value in ops:
            if kind == "insert":
                if key in model:
                    continue
                txn = engine.begin()
                yield from engine.insert(txn, "t", [key, value])
                yield from engine.commit(txn)
                model[key] = value
            elif kind == "update":
                if key not in model:
                    continue
                txn = engine.begin()
                yield from engine.update(txn, "t", (key,), {"v": value})
                yield from engine.commit(txn)
                model[key] = value
            elif kind == "delete":
                if key not in model:
                    continue
                txn = engine.begin()
                yield from engine.delete(txn, "t", (key,))
                yield from engine.commit(txn)
                del model[key]
            elif kind == "read":
                row = yield from engine.read_row(None, "t", (key,))
                expected = model.get(key)
                assert (row[1] if row else None) == expected
            elif kind == "abort_txn":
                # A rolled-back txn must leave no trace.
                txn = engine.begin()
                if key in model:
                    yield from engine.update(txn, "t", (key,), {"v": "GHOST"})
                ghost_key = key + 1000
                yield from engine.insert(txn, "t", [ghost_key, "GHOST"])
                yield from engine.rollback(txn)
        yield env.timeout(0.05)  # drain shipping before any crash

    proc = dep.env.process(work(dep.env))
    dep.env.run_until_event(proc)

    # Verify the full table against the model.
    def verify(env):
        for key, expected in model.items():
            row = yield from engine.read_row(None, "t", (key,))
            assert row is not None and row[1] == expected, key
        table = engine.catalog.table("t")
        assert table.row_count == len(model)
        return True

    proc = dep.env.process(verify(dep.env))
    dep.env.run_until_event(proc)

    # Crash, recover, verify again.
    engine.crash()

    def recover_and_verify(env):
        yield from engine.recover()
        for key, expected in model.items():
            row = yield from engine.read_row(None, "t", (key,))
            assert row is not None and row[1] == expected, (
                "post-recovery mismatch for key %r" % key
            )
        table = engine.catalog.table("t")
        assert table.row_count == len(model)
        return True

    proc = dep.env.process(recover_and_verify(dep.env))
    dep.env.run_until_event(proc)
