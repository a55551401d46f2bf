"""Property test: park/unpark preserves RYW and prepared results.

Drives random interleavings of write / read / prepared-read / lane
churn through one multiplexed descriptor while mirroring every logical
op onto a never-parked control :class:`ProxySession` in the same
deployment (disjoint keys, identical values).  The deployment has a
single lane and a second "churn" descriptor rebinding it, so the
subject descriptor is parked and its token restored between *every*
statement; any token or prepared-state leakage across the park/bind
cycle shows up as a stale read or rows diverging from the control's.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.harness.deployment import DeploymentSpec

KEYS = 6

#: Each logical key k owns three physical rows: subject (3k), control
#: (3k+1), churn (3k+2) - same initial value, disjoint writers.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, KEYS - 1),
                  st.integers(0, 999)),
        st.tuples(st.just("read"), st.integers(0, KEYS - 1)),
        st.tuples(st.just("prepared"), st.integers(0, KEYS - 1)),
        st.tuples(st.just("churn")),
    ),
    min_size=1,
    max_size=14,
)


def build(seed):
    spec = (
        DeploymentSpec.astore_ebp(seed=seed, astore_servers=3)
        .with_replicas(2)
        .with_multiplexing(1)
        .with_fault_tolerance(heartbeat_interval=0.05, failure_timeout=0.15)
    )
    dep = spec.build()
    dep.start()
    dep.engine.create_table(
        "kv",
        Schema([Column("k", INT()), Column("v", INT()),
                Column("pad", VARCHAR(32))]),
        ["k"],
    )
    dep.fleet.sync_catalogs()
    return dep


def run(dep, gen, name="test"):
    proc = dep.env.process(gen, name=name)
    dep.env.run_until_event(proc)
    return proc.value


@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS, seed=st.integers(1, 10_000))
def test_mux_session_matches_never_parked_control(ops, seed):
    dep = build(seed)
    subject = dep.mux_session("subject")
    churn = dep.mux_session("churn")
    control = dep.frontend_session("control")

    def seed_rows(txn):
        for k in range(KEYS):
            for col in (3 * k, 3 * k + 1, 3 * k + 2):
                yield from dep.engine.insert(txn, "kv", [col, k * 10, "p"])
        return True

    run(dep, control.write(seed_rows))
    dep.run_for(0.05)

    model = {k: k * 10 for k in range(KEYS)}
    sub_prep = dep.mux.prepare(subject, "SELECT v FROM kv WHERE k = ?")
    ctl_prep = control.prepare("SELECT v FROM kv WHERE k = ?")
    churn_tick = [0]

    def driver():
        for op in ops:
            kind = op[0]
            if kind == "write":
                _, k, v = op

                def bump(key, value):
                    def work(txn):
                        yield from dep.engine.update(
                            txn, "kv", (key,), {"v": value}
                        )
                        return True
                    return work

                yield from dep.mux.write(subject, bump(3 * k, v))
                yield from control.write(bump(3 * k + 1, v))
                model[k] = v
            elif kind == "read":
                k = op[1]
                # Immediately after any write the replicas lag: a lost
                # or stale parked token would serve the old value here.
                sub_row = yield from dep.mux.read_row(
                    subject, "kv", (3 * k,)
                )
                ctl_row = yield from control.read_row("kv", (3 * k + 1,))
                assert sub_row[1] == model[k], "stale multiplexed read"
                assert sub_row[1:] == ctl_row[1:]
            elif kind == "prepared":
                k = op[1]
                sub_res = yield from sub_prep.execute(3 * k)
                ctl_res = yield from ctl_prep.execute(3 * k + 1)
                assert sub_res.rows == [(model[k],)], "stale prepared read"
                assert sub_res.rows == ctl_res.rows
            else:
                # Rebind the single lane to another descriptor and push
                # the global LSN past the subject's parked token, so a
                # bind that leaked lane state (instead of restoring the
                # descriptor's) would surface on the next subject op.
                churn_tick[0] += 1

                def advance(txn, tick=churn_tick[0]):
                    yield from dep.engine.update(
                        txn, "kv", (2,), {"v": tick}
                    )
                    return True

                yield from dep.mux.write(churn, advance)
                yield from dep.mux.read_row(churn, "kv", (5,))
        return True

    run(dep, driver())
    writes = sum(1 for op in ops if op[0] == "write")
    assert subject.writes == writes
    assert control.writes == writes + 1  # + the row-seeding write
    # Parking never dropped a commit: whenever the subject wrote, its
    # parked token carries a positive commit LSN just like the control.
    if writes:
        assert subject.last_commit_lsn > 0
        assert control.last_commit_lsn > 0
