"""Failure-injection harness: scheduled and randomized chaos.

Drives the failure modes the paper's design must survive (Sections IV-C
and V-E): AStore server crashes and restarts, CM outages, partial
network partitions, PageStore replica outages, and network degradation
windows.  Recovery is the deployment's own job - the failure detector
notices crashes, rebuilds routes, and re-adopts returning servers - so
the injector only breaks things; it never repairs state by hand.

:class:`ChaosSchedule` scripts outages explicitly; :class:`ChaosMonkey`
generates a randomized schedule from a seeded RNG stream so whole chaos
soaks replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..sim.core import Environment
from ..sim.rand import Rng
from .deployment import Deployment

__all__ = ["ChaosEvent", "ChaosSchedule", "ChaosInjector", "ChaosMonkey"]

#: Kinds that hold for ``duration`` and then revert; the injector runs
#: them as child processes so later events stay on schedule and windows
#: may overlap.
WINDOWED_KINDS = ("network_spike", "partition", "shard_partition")


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled action.

    ``kind`` is one of:

    - ``astore_crash`` / ``astore_restart`` - power-fail / revive the
      AStore server named by ``target`` (PMem contents persist);
    - ``astore_reclaim`` - after a restart, re-adopt the server's surviving
      EBP pages (the failure detector also does this automatically);
    - ``cm_crash`` / ``cm_restart`` - take the cluster manager down / up
      (control plane only: one-sided reads and writes keep flowing);
    - ``partition`` - for ``duration`` seconds, cut the AStore server
      ``target`` off from the named endpoint ``peer`` ("cm", a client id,
      or "*" for everyone), then heal;
    - ``pagestore_crash`` / ``pagestore_restart`` - same for a PageStore
      data server (quorum replication absorbs one loss);
    - ``replica_crash`` / ``replica_restart`` - power-fail / recover the
      serving-layer standby named by ``target`` (e.g. ``replica-0``);
      it leaves routing at once and the proxy reroutes its reads, and a
      restart rebuilds from PageStore in the background;
    - ``network_spike`` - for ``duration`` seconds, multiply the RPC
      network's scheduling-stall probability by ``factor``;
    - ``shard_crash`` / ``shard_recover`` - power-fail the shard primary
      whose index is ``target`` (e.g. ``"1"``) / run the coordinator's
      full recovery choreography for it (decision harvest, redo with
      in-doubt resolution, resume of decided 2PC transactions);
    - ``twopc_failpoint`` - arm the 2PC coordinator to crash a shard at
      protocol instant ``target`` (one of
      :data:`repro.shard.coordinator.FAILPOINTS`); ``peer`` names the
      participant shard index, or ``"*"`` for the statement's
      coordinator shard.  The crash fires on the next cross-shard
      commit; pair with a later ``shard_recover``;
    - ``shard_partition`` - for ``duration`` seconds, sever the
      coordination-plane link to shard ``target``: 2PC legs to it abort
      (prepare) or go in doubt (phase 2) while the shard's own storage
      stays intact; on heal the injector runs
      :meth:`Coordinator.resume_decided` so interrupted phase 2s finish;
    - ``coordinator_crash_inflight`` - arm the failpoint named by
      ``target`` (default ``after_decision``) with no shard pinned, so
      the *next* cross-shard commit crashes at that instant, whichever
      shard it lands on - the coordinator-dies-mid-flight scenario.
    """

    at: float
    kind: str
    target: str = ""
    duration: float = 0.0
    factor: float = 10.0
    peer: str = "*"

    VALID = (
        "astore_crash",
        "astore_restart",
        "astore_reclaim",
        "cm_crash",
        "cm_restart",
        "partition",
        "pagestore_crash",
        "pagestore_restart",
        "replica_crash",
        "replica_restart",
        "network_spike",
        "shard_crash",
        "shard_recover",
        "twopc_failpoint",
        "shard_partition",
        "coordinator_crash_inflight",
    )

    def __post_init__(self):
        if self.kind not in self.VALID:
            raise ValueError("unknown chaos kind %r" % self.kind)
        if self.at < 0:
            raise ValueError("negative schedule time")
        if self.kind in WINDOWED_KINDS and self.duration <= 0:
            raise ValueError(
                "%s needs a positive duration, got %r" % (self.kind, self.duration)
            )


@dataclass
class ChaosSchedule:
    """An ordered list of chaos events."""

    events: List[ChaosEvent] = field(default_factory=list)

    def add(self, at: float, kind: str, target: str = "", duration: float = 0.0,
            factor: float = 10.0, peer: str = "*") -> "ChaosSchedule":
        self.events.append(ChaosEvent(at, kind, target, duration, factor, peer))
        return self

    def sorted_events(self) -> List[ChaosEvent]:
        return sorted(self.events, key=lambda e: e.at)


class ChaosInjector:
    """Executes a :class:`ChaosSchedule` against a deployment."""

    def __init__(self, deployment: Deployment, schedule: ChaosSchedule):
        self.deployment = deployment
        self.schedule = schedule
        self.log: List[str] = []
        self._started = False
        self._spike_factors: List[float] = []
        self._spike_baseline = 0.0

    def start(self) -> None:
        """Arm the injector (events fire at their virtual times)."""
        if self._started:
            return
        self._started = True
        self.deployment.env.process(self._play(), name="chaos-injector")

    def _play(self):
        env = self.deployment.env
        start = env.now
        for event in self.schedule.sorted_events():
            delay = start + event.at - env.now
            if delay > 0:
                yield env.timeout(delay)
            if event.kind in WINDOWED_KINDS:
                # Windowed events run as children so the schedule is not
                # delayed by their duration and windows may overlap.
                env.process(self._execute(event), name="chaos-%s" % event.kind)
            else:
                yield from self._execute(event)

    def _execute(self, event: ChaosEvent):
        dep = self.deployment
        env = dep.env
        if event.kind == "astore_crash":
            dep.astore.servers[event.target].crash()
            self._note(env, "crashed AStore %s" % event.target)
        elif event.kind == "astore_restart":
            dep.astore.servers[event.target].restart()
            self._note(env, "restarted AStore %s" % event.target)
        elif event.kind == "astore_reclaim":
            if dep.ebp is not None:
                reclaimed = yield from dep.ebp.reclaim_server(event.target)
                self._note(
                    env, "reclaimed %d EBP pages from %s"
                    % (reclaimed, event.target)
                )
        elif event.kind == "cm_crash":
            dep.astore.cm.crash()
            self._note(env, "crashed cluster manager")
        elif event.kind == "cm_restart":
            dep.astore.cm.restart()
            self._note(env, "restarted cluster manager")
        elif event.kind == "partition":
            server = dep.astore.servers[event.target]
            server.partition(event.peer)
            self._note(
                env, "partitioned %s from %s for %.3fs"
                % (event.target, event.peer, event.duration)
            )
            try:
                yield env.timeout(event.duration)
            finally:
                server.heal(event.peer)
                self._note(env, "healed %s from %s" % (event.target, event.peer))
        elif event.kind == "pagestore_crash":
            server = self._pagestore_server(event.target)
            server.alive = False
            self._note(env, "crashed PageStore %s" % event.target)
        elif event.kind == "pagestore_restart":
            server = self._pagestore_server(event.target)
            server.alive = True
            self._note(env, "restarted PageStore %s" % event.target)
        elif event.kind == "replica_crash":
            self._fleet().crash(event.target)
            self._note(env, "crashed replica %s" % event.target)
        elif event.kind == "replica_restart":
            self._fleet().restart(event.target)
            self._note(
                env, "restarted replica %s (rebuild in background)"
                % event.target
            )
        elif event.kind == "shard_crash":
            shard = int(event.target)
            dep.engines[shard].crash()
            self._note(env, "crashed shard %d primary" % shard)
        elif event.kind == "shard_recover":
            shard = int(event.target)
            if dep.engines[shard].crashed:
                stats = yield from self._coordinator().recover_shard(shard)
                self._note(
                    env,
                    "recovered shard %d (%d redo, %d in-doubt committed)"
                    % (shard, stats.get("redone", 0),
                       len(stats.get("in_doubt_committed", ()))),
                )
            else:
                self._note(env, "shard %d already up" % shard)
        elif event.kind == "twopc_failpoint":
            shard = None if event.peer == "*" else int(event.peer)
            self._coordinator().arm_failpoint(event.target, shard)
            self._note(
                env, "armed 2PC failpoint %s (shard %s)"
                % (event.target, "coord" if shard is None else shard)
            )
        elif event.kind == "shard_partition":
            coordinator = self._coordinator()
            shard = int(event.target)
            coordinator.partition(shard)
            self._note(
                env, "partitioned shard %d from the coordination plane "
                "for %.3fs" % (shard, event.duration)
            )
            try:
                yield env.timeout(event.duration)
            finally:
                coordinator.heal(shard)
                resumed_before = coordinator.resumed_commits
                yield from coordinator.resume_decided()
                self._note(
                    env, "healed shard %d (%d phase-2 commits resumed)"
                    % (shard, coordinator.resumed_commits - resumed_before)
                )
        elif event.kind == "coordinator_crash_inflight":
            point = event.target or "after_decision"
            self._coordinator().arm_failpoint(point, None)
            self._note(
                env,
                "armed in-flight coordinator crash at %s" % point,
            )
        elif event.kind == "network_spike":
            network = dep.pagestore.network
            if not self._spike_factors:
                self._spike_baseline = network.spike_probability
            self._spike_factors.append(event.factor)
            self._apply_spikes(network)
            self._note(env, "network spike x%.0f for %.3fs"
                       % (event.factor, event.duration))
            try:
                yield env.timeout(event.duration)
            finally:
                # Restore through the factor stack so overlapping windows
                # (or an interrupted injector) never leave the network
                # permanently degraded.
                self._spike_factors.remove(event.factor)
                self._apply_spikes(network)
                self._note(env, "network spike ended")
        return None

    def _apply_spikes(self, network) -> None:
        probability = self._spike_baseline
        for factor in self._spike_factors:
            probability *= factor
        network.spike_probability = min(1.0, probability)

    def _coordinator(self):
        coordinator = getattr(self.deployment, "coordinator", None)
        if coordinator is None:
            raise ValueError(
                "shard chaos needs a sharded deployment "
                "(DeploymentSpec.with_shards)"
            )
        return coordinator

    def _fleet(self):
        fleet = getattr(self.deployment, "fleet", None)
        if fleet is None:
            raise ValueError(
                "replica chaos needs a deployment with replicas "
                "(DeploymentSpec.with_replicas)"
            )
        return fleet

    def _pagestore_server(self, server_id: str):
        for server in self.deployment.pagestore.servers:
            if server.server_id == server_id:
                return server
        raise KeyError("no PageStore server %r" % server_id)

    def _note(self, env: Environment, message: str) -> None:
        self.log.append("t=%.4f %s" % (env.now, message))


class ChaosMonkey:
    """Seeded random outage-schedule generator.

    Divides ``horizon`` into exclusive disruption slots - ``cycles``
    AStore crash/restart cycles plus (optionally) one CM outage and one
    partial partition window - shuffled into random order.  One slot
    holds at most one disruption, so the replica set never loses more
    than one member at a time and every outage has head-room to be
    detected and repaired before the next begins.  A network spike may
    overlap anything (it only slows RPCs down).

    All draws come from the caller's :class:`Rng` stream, so the same
    seed always produces the same schedule.
    """

    def __init__(
        self,
        rng: Rng,
        servers: Sequence[str],
        horizon: float,
        cycles: int = 3,
        cm_outage: bool = True,
        partition: bool = True,
        partition_peer: str = "cm",
        spike_factor: float = 20.0,
    ):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if cycles < 1:
            raise ValueError("need at least one crash/restart cycle")
        if not servers:
            raise ValueError("need at least one server id")
        self.rng = rng
        self.servers = list(servers)
        self.horizon = horizon
        self.cycles = cycles
        self.cm_outage = cm_outage
        self.partition = partition
        self.partition_peer = partition_peer
        self.spike_factor = spike_factor

    def build(self) -> ChaosSchedule:
        slots = ["cycle"] * self.cycles
        if self.cm_outage:
            slots.append("cm")
        if self.partition:
            slots.append("partition")
        self.rng.shuffle(slots)
        schedule = ChaosSchedule()
        span = self.horizon / len(slots)
        # Crash cycles walk a shuffled server pool, so ``cycles >= len``
        # guarantees every server (including whichever one happens to
        # host the EBP's segments) takes a hit.
        pool = list(self.servers)
        self.rng.shuffle(pool)
        victims = iter(pool * (len(slots) // len(pool) + 1))
        for index, slot_kind in enumerate(slots):
            start = span * (index + self.rng.uniform(0.05, 0.20))
            length = span * self.rng.uniform(0.45, 0.70)
            if slot_kind == "cycle":
                server = next(victims)
                schedule.add(start, "astore_crash", server)
                schedule.add(start + length, "astore_restart", server)
            elif slot_kind == "cm":
                schedule.add(start, "cm_crash")
                schedule.add(start + length, "cm_restart")
            else:
                server = self.rng.choice(self.servers)
                schedule.add(
                    start, "partition", server,
                    duration=length, peer=self.partition_peer,
                )
        if self.spike_factor:
            schedule.add(
                self.horizon * self.rng.uniform(0.1, 0.8),
                "network_spike",
                duration=self.horizon * 0.1,
                factor=self.spike_factor,
            )
        return schedule
