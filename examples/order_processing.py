"""The paper's motivating workload: batched order processing (Fig. 8).

Wide ~2 KB inserts plus hot-row balance updates, batched per vendor.  The
customer SLO is 10,000+ TPS.  This example replays the workload against a
stock veDB deployment (SSD/TCP LogStore) and against veDB+AStore, showing
how much concurrency each needs to reach the target.

Run:  python examples/order_processing.py
"""

from repro import Deployment, DeploymentSpec
from repro.sim.core import AllOf
from repro.sim.metrics import LatencyRecorder, ThroughputMeter
from repro.workloads import OrdersClient, OrdersConfig, OrdersDatabase

TARGET_TPS = 10_000
DURATION = 0.3  # seconds of virtual time per measurement


def measure(factory, clients, kind):
    deployment = Deployment(factory(seed=7))
    deployment.start()
    database = OrdersDatabase(deployment.engine, OrdersConfig())
    load = deployment.env.process(database.load())
    deployment.run_until(load)
    workers = [
        OrdersClient(database, deployment.seeds.stream("w%d" % i))
        for i in range(clients)
    ]
    meter = ThroughputMeter()
    meter.start(deployment.env.now)
    procs = [
        deployment.env.process(w.run_for(DURATION, kind=kind, meter=meter))
        for w in workers
    ]
    deployment.run_until(AllOf(deployment.env, procs))
    latency = LatencyRecorder()
    for worker in workers:
        latency.samples.extend(worker.latencies.samples)
    return meter.completed / DURATION, latency


def main():
    for kind, label in (
        ("single_insert", "single 2KB-insert transaction"),
        ("order_processing", "full order-processing transaction"),
    ):
        print("\n=== %s (target: %d TPS) ===" % (label, TARGET_TPS))
        print("%-22s %8s %10s %10s %10s" % ("deployment", "clients", "TPS",
                                            "p50 ms", "p95 ms"))
        for name, factory in (
            ("stock veDB", DeploymentSpec.stock),
            ("veDB + AStore", DeploymentSpec.astore_log),
        ):
            for clients in (8, 32, 64):
                tps, latency = measure(factory, clients, kind)
                marker = "  <- target met" if tps >= TARGET_TPS else ""
                print(
                    "%-22s %8d %10.0f %10.2f %10.2f%s"
                    % (name, clients, tps, latency.p50 * 1000,
                       latency.p95 * 1000, marker)
                )


if __name__ == "__main__":
    main()
