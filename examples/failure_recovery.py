"""Failure handling end to end: DBEngine crash + AStore server crash.

Demonstrates the paper's recovery story (Section V-E):

1. A DBEngine crash loses all DRAM state.  Recovery binary-searches the
   SegmentRing headers for the log tail, replays REDO, undoes loser
   transactions, rebuilds the table indexes from PageStore pages, and
   rebuilds the EBP index from AStore server scans (pruning stale pages
   with the pushed latest-LSN map).
2. An AStore server crash loses the EBP pages it hosted.  That is purely a
   cache event: queries keep answering correctly, just slower, and the log
   keeps committing because log segments are 3-way replicated.

Run:  python examples/failure_recovery.py
"""

from repro import Deployment, DeploymentSpec, MB
from repro.engine import DECIMAL, INT, VARCHAR, Column, EngineConfig, Schema


def main():
    deployment = Deployment(
        DeploymentSpec.astore_ebp(
            engine=EngineConfig(buffer_pool_bytes=16 * 16 * 1024),
            ebp_capacity_bytes=64 * MB,
        )
    )
    deployment.start()
    engine = deployment.engine
    engine.create_table(
        "ledger",
        Schema(
            [
                Column("id", INT()),
                Column("owner", VARCHAR(24)),
                Column("balance", DECIMAL(2)),
                Column("pad", VARCHAR(2100)),
            ]
        ),
        ["id"],
    )

    def phase1(env):
        """Commit 400 rows; leave one transaction in flight at the crash."""
        for chunk in range(8):
            txn = engine.begin()
            for i in range(chunk * 50, chunk * 50 + 50):
                yield from engine.insert(
                    txn, "ledger", [i, "owner-%d" % i, float(i), "p" * 2048]
                )
            yield from engine.commit(txn)
        loser = engine.begin()
        yield from engine.insert(loser, "ledger", [9999, "ghost", 0.0, "p"])
        yield from engine.update(loser, "ledger", (3,), {"balance": -1.0})
        # Push the loser's records to the log without committing.
        filler = engine.begin()
        yield from engine.insert(filler, "ledger", [5000, "filler", 1.0, "p"])
        yield from engine.commit(filler)
        yield env.timeout(0.1)

    proc = deployment.env.process(phase1(deployment.env))
    deployment.run_until(proc)
    print("before crash: %d committed txns, %d EBP pages cached"
          % (engine.committed, len(deployment.ebp.index)))

    # ---- DBEngine crash ---------------------------------------------------
    engine.crash()
    print("\n*** DBEngine crashed: buffer pool, indexes, EBP index all lost")

    def phase2(env):
        stats = yield from engine.recover()
        row3 = yield from engine.read_row(None, "ledger", (3,))
        ghost = yield from engine.read_row(None, "ledger", (9999,))
        return stats, row3, ghost

    proc = deployment.env.process(phase2(deployment.env))
    deployment.run_until(proc)
    stats, row3, ghost = proc.value
    print("recovery stats: %s" % stats)
    print("row 3 balance: %.2f (loser's update undone -> 3.00)" % row3[2])
    print("ghost row present? %s (loser's insert undone)" % (ghost is not None))

    # ---- AStore server crash ---------------------------------------------
    victim = next(iter(deployment.astore.servers.values()))
    victim.crash()
    purged = deployment.ebp.purge_server(victim.server_id)
    print("\n*** AStore server %s crashed: %d EBP entries purged (cache-only"
          " loss)" % (victim.server_id, purged))

    def phase3(env):
        hits_before = deployment.ebp.hits
        ok = 0
        for i in range(0, 400, 7):
            row = yield from engine.read_row(None, "ledger", (i,))
            if row is not None and row[1] == "owner-%d" % i:
                ok += 1
        return ok

    proc = deployment.env.process(phase3(deployment.env))
    deployment.run_until(proc)
    print("post-crash spot checks: %d/58 rows correct "
          "(slower reads, zero wrong answers)" % proc.value)

    # ---- Future work, implemented: local EBP recovery + warm-up ----------
    victim.restart()
    deployment.astore.cm.heartbeat_sweep()

    def phase4(env):
        reclaimed = yield from deployment.ebp.reclaim_server(victim.server_id)
        warmed = yield from engine.warmup_from_ebp()
        return reclaimed, warmed

    proc = deployment.env.process(phase4(deployment.env))
    deployment.run_until(proc)
    reclaimed, warmed = proc.value
    print("\n*** server restarted: %d EBP pages re-adopted from its PMem "
          "(paper future work)" % reclaimed)
    print("buffer pool warmed with %d pages from the EBP (paper future work)"
          % warmed)
    print("\nlog writes kept flowing throughout: %d group-commit flushes"
          % engine.log.flushes)


if __name__ == "__main__":
    main()
