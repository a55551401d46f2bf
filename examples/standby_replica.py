"""Read-only standby replica fed by the REDO stream (paper future work).

The primary takes order traffic; a standby replica trails the durable REDO
stream, keeps a full copy of every page, maintains its own indexes and
serves snapshot reads from its own images - the "stand-by instances that
serve read-only queries" the paper sketches in Section VIII.  It exits
non-zero if the settled standby disagrees with the primary on any row.

Run:  python examples/standby_replica.py
"""

import sys

from repro import MB, Deployment, DeploymentSpec
from repro.common import KB
from repro.engine import EngineConfig, StandbyReplica
from repro.sim.core import AllOf
from repro.workloads import OrdersClient, OrdersConfig, OrdersDatabase


def main():
    deployment = Deployment(
        DeploymentSpec.astore_ebp(
            engine=EngineConfig(buffer_pool_bytes=32 * 16 * KB),
            ebp_capacity_bytes=64 * MB,
        )
    )
    deployment.start()
    engine = deployment.engine

    database = OrdersDatabase(engine, OrdersConfig(vendors=12))
    load = deployment.env.process(database.load())
    deployment.run_until(load)

    standby = StandbyReplica(deployment.env, engine)
    standby.applier.start()

    workers = [
        OrdersClient(database, deployment.seeds.stream("w%d" % i))
        for i in range(8)
    ]

    def standby_reader(env):
        """Poll vendor balances from the standby while the primary writes."""
        reads, lags = 0, []
        deadline = env.now + 0.25
        while env.now < deadline:
            vendor = 1 + reads % 12
            row = yield from standby.read_row("vendor_account", (vendor,))
            reads += 1
            lags.append(standby.lag_lsn)
            yield env.timeout(0.002)
        return reads, lags

    write_procs = [
        deployment.env.process(w.run_for(0.25, kind="order_processing"))
        for w in workers
    ]
    read_proc = deployment.env.process(standby_reader(deployment.env))
    deployment.run_until(AllOf(deployment.env, write_procs + [read_proc]))
    reads, lags = read_proc.value

    def settle(env):
        yield env.timeout(0.1)

    proc = deployment.env.process(settle(deployment.env))
    deployment.run_until(proc)

    committed = sum(w.committed for w in workers)
    print("primary: %d order transactions committed" % committed)
    print("standby: %d snapshot reads served while writes were flowing"
          % reads)
    print("standby applied %d REDO records; final lag = %d bytes of log"
          % (standby.records_applied, standby.lag_lsn))

    def verify(env):
        """The standby converges to the primary, row for row."""
        mismatches = 0
        for vendor in range(1, 13):
            primary_row = yield from engine.read_row(
                None, "vendor_account", (vendor,)
            )
            standby_row = yield from standby.read_row(
                "vendor_account", (vendor,)
            )
            if primary_row != standby_row:
                mismatches += 1
        return mismatches

    proc = deployment.env.process(verify(deployment.env))
    deployment.run_until(proc)
    mismatches = proc.value
    print("post-settle consistency check: %d/12 vendor rows mismatched"
          % mismatches)
    print("standby holds %d pages; the primary has %d"
          % (len(standby.pages),
             sum(len(t.page_nos) for t in engine.catalog.tables())))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
