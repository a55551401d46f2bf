"""The check manifest: every seeded CLI pin and every benchmark gate.

``PINS``: one row per seeded ``python -m repro`` scenario, pinning the
sha256 of its stdout (a function of the seed alone; wall-clock lines go to
stderr).  A scenario also exits non-zero when its own audit fails.

``GATES``: one row per bound that keeps an optimisation from coming
undone.  ``end_to_end`` / ``per_layer`` rows read that section of every
run of ``bench/run.py --workload W --reps 2 --trace 0``; ``window`` rows
read registry deltas over one seed-1 in-process window of the workload,
and a metric ``a / b`` is the ratio of two deltas.

``test_checks.py`` runs both tables; ``tests/test_hygiene.py`` holds them
and ``ci.yml`` to their shape.  A change that moves a pin on purpose
re-pins its row (the failing check prints the new digest).
"""

from typing import NamedTuple, Optional


class Pin(NamedTuple):
    id: str
    argv: str       # after ``python -m repro``
    sha256: str     # of its stdout
    seconds: int    # rough wall time on two cores


class Gate(NamedTuple):
    workload: str
    source: str     # "end_to_end", "per_layer" or "window"
    metric: str
    kind: str       # "max" fails above ``bound``, "min" below it
    bound: float
    today: float    # seed 1
    #: Before the optimisation the gate holds; None: never measured slower.
    before: Optional[float]
    message: str    # formatted with the failing value


PINS = (
    # TPC-C under server crashes, a CM outage and a partial partition,
    # then engine crash/recovery and a durability audit.
    Pin("chaos-7", "chaos --seed 7 --short",
        "0218728ff3d2557086030cff365526820945aff40dbbc3aee2609d493655e915", 14),
    # The sharded soak: 2PC failpoint crashes, shard partitions, the global
    # deadlock detector and the in-doubt / scatter-atomicity audits.
    Pin("chaos-7-shards2", "chaos --seed 7 --shards 2 --short",
        "0f5922a9c38a67e055d05df3bbf6b200b34590e84014ceeb266e6ee2ffda07c1", 11),
    Pin("chaos-3", "chaos --seed 3 --short",
        "c86dfbe607e1020ac5eefabd291cbec1bb150e653d2c6f70e287296818c21c2e", 19),
    # Proxied reads over the replica fleet with a replica kill: zero stale
    # reads, zero missing rows.
    Pin("serve-7", "serve --seed 7 --duration 0.4",
        "78a790ecd67c00d63c486e218a6a4af8f93d9529f9ce8f128c4fbb4ca235145b", 12),
    # The same through vector tokens, 2PC and scatter-gather.
    Pin("serve-7-shards2", "serve --seed 7 --shards 2 --duration 0.4",
        "58498404ad7ad66246bf30c779d1d9fe9dd888b55ba1eb787346ad70cd149125", 2),
    Pin("serve-7-tenants3", "serve --seed 7 --tenants 3 --duration 0.4",
        "e5f8f981f8c76922be1a5d444bf7a16a3d79568855bdd0abc3767b6865a9ab70", 9),
    Pin("serve-7-no-chaos", "serve --seed 7 --no-chaos --duration 0.4",
        "759a46dbd3193b9f1453b90e1e348a1aad050458ddd3d36f261101b230f96c07", 11),
    # 10k parked sessions over 8 lanes with skewed tenants: zero stale
    # reads, full session coverage and the weighted-fair wait bound.
    Pin("serve-mux-7", "serve --mux --seed 7 --duration 0.4",
        "98749e76acf1c2a91ec37a68f8fe724baf6d5917d0ad04a2d0fa14ed9c9fc728", 3),
    # View-served answers byte-equal to primary rescans at the same LSN,
    # across feed overflow and a maintainer crash and rebuild.
    Pin("views-7", "views --seed 7",
        "6f99dc5aa647cee01dc0a8b99e81943b7caf3eb8e2abcbd5d97d256dcd43c874", 3),
    Pin("views-7-no-crash", "views --seed 7 --no-crash",
        "374919eb6fe11e00cfac1bd21ef2714c24cf93ae6824f77b52aed12ccca5edc9", 4),
    # The six CH queries the planner joins by index nested loop, on the
    # baseline, plan-change and PQ+EBP sessions.
    Pin("fig14-inlj", "fig14 --queries 2,3,10,12,16,18",
        "259c25361024fd2340aca634ccae372467920e68a4dffe92a985bb191b5f02ff", 5),
)

GATES = (
    # Push-down prices a fragment by the columns it ships, so narrow scans
    # run storage-side.
    Gate("ch_analytics", "per_layer", "astore.ebp_reads_per_op", "max", 2.0,
         0.068, 26.59,
         "narrow scans run on the engine again: %.2f EBP page reads "
         "per query (~0.07; priced at 48 B a row: 26.59)"),
    Gate("ch_analytics", "per_layer", "sim.rdma_bytes_per_op", "max", 50000,
         1117, 435665,
         "narrow scans pull their pages again: %.0f RDMA bytes per "
         "query (~1 100; priced at 48 B a row: 435 665)"),
    # Per-core push-down morsels, runtime key filters, eager aggregation.
    Gate("ch_analytics", "end_to_end", "sim_ops_per_s", "min", 400,
         461.35, 287.95,
         "joins take rows, probe unfiltered or push-down tasks run "
         "on one core again: %.2f queries per virtual second (~461; "
         "joining rows: 287.95; without runtime filters too: 215.15; "
         "one core a task too: 151.16)"),
    Gate("ch_analytics", "per_layer", "sim.events_per_op", "max", 100,
         82.52, 180.7,
         "push-down tasks split too finely: %.1f events per query "
         "(~83.3; one core a task: 72.1; one morsel a page: 180.7)"),
    Gate("ch_analytics", "window", "query.join.rows_probed", "max", 150000,
         52164, 281402,
         "hash joins probe unfiltered again: %d rows probed "
         "(~52 000; no runtime filters: 281 402)"),
    Gate("ch_analytics", "window", "query.join.rows_built", "max", 80000,
         49718, 154194,
         "hash joins build rows, not groups, again: %d rows "
         "built (~50 000; joining rows: 154 194)"),
    # A page image keeps the columns scans decoded from it.
    Gate("ch_analytics", "window",
         "query.scan.cells_uncached / query.scan.cells_decoded", "max", 0.25,
         0.0817, 1.0,
         "per-scan page decoding is back: %.2f of the cells "
         "scans read were decoded from page bytes (one "
         "decode per page image: ~0.08)"),
    # Group commit and shipping on demand; a read's CPU paid at the next wait.
    Gate("tpcc_log", "per_layer", "engine.log_flushes_per_op", "max", 1.0,
         0.852, 1.84,
         "eager log flushing is back: %.2f flushes per transaction "
         "(on demand: ~0.85)"),
    Gate("tpcc_log", "per_layer", "storage.ships_per_op", "max", 0.02,
         0.0043, 0.0997,
         "timer shipping is back: %.4f PageStore ships per "
         "transaction (1 ms shipper: 0.0997)"),
    Gate("tpcc_log", "per_layer", "sim.events_per_op", "max", 40,
         32.54, 78.18,
         "per-read CPU charges are back: %.2f events per transaction "
         "(debt paid at the next wait: ~33; a charge per read: 78.18)"),
    # EBP space holds only pages that can hit.
    Gate("sysbench_ebp", "per_layer", "engine.pagestore_reads_per_op", "max",
         0.19, 0.1728, 0.2115,
         "EBP space holds pages that cannot hit again: %.4f PageStore "
         "reads per statement (~0.17; with dead copies and DRAM "
         "duplicates kept: 0.2115)"),
    Gate("sysbench_ebp", "per_layer", "engine.ebp_stale_hit_share", "max",
         0.002, 0.00007, 0.0139,
         "dead EBP copies wait for a stale hit again: %.5f of EBP "
         "lookups stale (~0.0001; kept until found: 0.0139)"),
    # Lane checkout, routing and a prepared read; one bind a statement.
    Gate("mux_point", "per_layer", "sim.events_per_op", "max", 5.0,
         4.568, None,
         "the mux statement path grew: %.3f events per statement "
         "(~4.57)"),
    Gate("mux_point", "per_layer", "frontend.mux_binds_per_op", "max", 1.0,
         1.0, None,
         "a mux statement binds more than once: %.3f binds per "
         "statement (1.0)"),
)


def gate_id(gate: Gate) -> str:
    return "%s-%s" % (gate.workload, gate.metric.replace(" ", ""))


def window_names(gate: Gate):
    """The registry names a ``window`` row reads."""
    return gate.metric.split(" / ")


def measure(gate: Gate, run) -> float:
    """The gate's value in one run: a ``bench/run.py`` report run, or
    ``{"window": {registry name: delta}}``."""
    section = run[gate.source]
    if gate.source != "window":
        return section[gate.metric]
    top, *bottom = window_names(gate)
    return section[top] / section[bottom[0]] if bottom else section[top]


def breach(gate: Gate, value: float) -> Optional[str]:
    """The gate's message when ``value`` is past its bound, else None."""
    crossed = value > gate.bound if gate.kind == "max" else value < gate.bound
    return gate.message % value if crossed else None
