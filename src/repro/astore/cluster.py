"""Convenience wiring for a complete AStore deployment.

Builds the CM plus N PMem servers, hands out clients, and (optionally)
drives the background maintenance loops: CM heartbeat sweeps, server stale-
segment cleanup cycles, client lease renewal and route refresh.

The background loops are daemons - they never terminate - so simulations
that use them must end with ``env.run(until=...)`` or
``env.run_until_event(...)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common import MB
from ..sim.core import Environment
from ..sim.network import RpcNetwork
from ..sim.rand import SeedSequence
from .client import AStoreClient
from .cluster_manager import ClusterManager
from .failure_detector import FailureDetector
from .server import AStoreServer

__all__ = ["AStoreCluster"]


class AStoreCluster:
    """A CM + server fleet + client factory, wired onto one environment."""

    def __init__(
        self,
        env: Environment,
        seeds: SeedSequence,
        num_servers: int = 3,
        pmem_capacity: int = 256 * MB,
        segment_slot_size: int = 4 * MB,
        server_cpu_cores: int = 8,
        cleanup_delay: float = 30.0,
        lease_duration: float = 10.0,
        route_refresh_period: float = 1.0,
        heartbeat_interval: float = 1.0,
        failure_timeout: float = 3.0,
    ):
        if num_servers < 1:
            raise ValueError("need at least one server")
        self.env = env
        self.seeds = seeds
        self.route_refresh_period = route_refresh_period
        self.cm = ClusterManager(
            env,
            seeds.stream("astore-cm"),
            lease_duration=lease_duration,
            heartbeat_interval=heartbeat_interval,
            failure_timeout=failure_timeout,
        )
        self.servers: Dict[str, AStoreServer] = {}
        for index in range(num_servers):
            server_id = "astore-%d" % index
            server = AStoreServer(
                env,
                seeds.stream(server_id),
                server_id,
                pmem_capacity=pmem_capacity,
                segment_slot_size=segment_slot_size,
                cpu_cores=server_cpu_cores,
                cleanup_delay=cleanup_delay,
            )
            self.cm.register_server(server)
            self.servers[server_id] = server
        self.clients: List[AStoreClient] = []
        self.detector: Optional[FailureDetector] = None

    def new_client(self, client_id: str) -> AStoreClient:
        """Create a client with its own control-network stream."""
        client = AStoreClient(
            self.env,
            self.seeds.stream("astore-client-%s" % client_id),
            client_id,
            self.cm,
            self.servers,
            control_network=RpcNetwork(
                self.env, self.seeds.stream("astore-ctlnet-%s" % client_id)
            ),
            route_refresh_period=self.route_refresh_period,
        )
        self.clients.append(client)
        return client

    # ------------------------------------------------------------------
    # Background maintenance (daemon processes)
    # ------------------------------------------------------------------
    def start_maintenance(self, cleanup_period: float = 5.0,
                          ebp=None) -> None:
        """Start the failure detector's daemon loops (idempotent).

        ``ebp`` optionally wires an extended buffer pool into the detector
        so server churn triggers automatic purge/reclaim.  The harness
        passes it; bare AStore tests leave it None.
        """
        if self.detector is None:
            self.detector = FailureDetector(
                self.env, self, ebp=ebp, cleanup_period=cleanup_period,
            )
        self.detector.start()
