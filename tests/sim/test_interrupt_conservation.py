"""Interrupt conservation, one test for every waiter queue.

Every queue in the system - a device channel, a CPU pool, a row lock, an
admission slot, a mux lane, the LogStore submission slot - sits on
:class:`repro.sim.resources.WaitQueue`, and each must survive the same two
races (DESIGN.md section 5): a waiter interrupted while it is still queued,
and a waiter interrupted in the very instant its grant lands.  Either way
nothing may stay held afterwards, and the waiter behind it must be granted
at the instant it would have been had the interrupted one never queued.

Each case runs three workers on a one-slot queue - a holder, the victim
queued behind it, a third queued behind the victim - and compares against
the same run without the victim: no grant, draw or clock may move.  A
waiter that armed a timer of its own (a ``with_timeout`` deadline, a row
lock's wait timeout) must also take it out of the event heap: drained,
the run ends when the last worker does.
"""

import pytest

from repro.engine.txn import LockManager, Transaction
from repro.frontend.admission import AdmissionController, TenantAdmission
from repro.sim.core import Environment, with_timeout
from repro.sim.devices import StorageDevice
from repro.sim.rand import SeedSequence
from repro.sim.resources import CpuPool, Resource
from repro.storage.logstore import LogStore


def _hold(env, seconds):
    yield env.timeout(seconds)


class DeviceChannel:
    def make(self, env):
        return StorageDevice(
            env, SeedSequence(1).stream("dev"), "dev",
            read_latency=1.0, write_latency=1.0,
            read_bandwidth=1.0, write_bandwidth=1.0,
            channels=1, jitter_sigma=0.0,
        )

    def use(self, env, device):
        yield from device.read(0)

    def held(self, device):
        return device._channels.count, device._channels.queue_length


class Cores:
    def make(self, env):
        return CpuPool(env, cores=1)

    def use(self, env, pool):
        yield from pool.consume(1.0)

    def held(self, pool):
        return pool.count, pool.queue_length


class DeadlineSlot:
    """A one-slot resource taken and held under a ``with_timeout``
    deadline that outlives the whole run."""

    def make(self, env):
        return Resource(env)

    def use(self, env, resource):
        yield from with_timeout(env, self._hold(env, resource), 5.0)

    def _hold(self, env, resource):
        grant = resource.acquire()
        try:
            if grant is not None:
                yield grant
            yield from _hold(env, 1.0)
        finally:
            resource.release(grant)

    def held(self, resource):
        return resource.count, resource.queue_length


class RowLock:
    KEY = ("t", 1)

    def make(self, env):
        # A wait timeout past the third worker's finish: one left in the
        # heap would show as a drained run ending late.
        return LockManager(env, wait_timeout=5.0)

    def use(self, env, locks):
        txn = Transaction(env)
        try:
            yield from locks.acquire(txn, self.KEY)
            yield from _hold(env, 1.0)
        finally:
            locks.release_all(txn)

    def held(self, locks):
        return (len(locks._locks), len(locks._held), len(locks._waiting_on),
                len(locks._kill_events))


class AdmissionSlot:
    def make(self, env):
        return AdmissionController(env, limits={"read": 1}, queue_timeout=5.0)

    def use(self, env, controller):
        ticket = yield from controller.admit("read")
        try:
            yield from _hold(env, 1.0)
        finally:
            controller.release("read", ticket)

    def held(self, controller):
        slots = controller._slots["read"]
        return slots.count, slots.queue_length


class MuxLane:
    def make(self, env):
        return TenantAdmission(env, {"a": 1}, ["lane"], queue_timeout=5.0)

    def use(self, env, wfq):
        lane = yield from wfq.acquire("a")
        try:
            yield from _hold(env, 1.0)
        finally:
            wfq.release(lane)

    def held(self, wfq):
        return wfq.queue_depth, wfq.pending("a"), wfq.capacity - len(wfq._free)


class LogStoreSubmitSlot:
    def make(self, env):
        return LogStore(env, SeedSequence(1), submit_threads=1)

    def use(self, env, store):
        yield from store.append(4096)

    def held(self, store):
        return store._submit_slots.count, store._submit_slots.queue_length


KITS = {
    "device-channel": DeviceChannel(),
    "cpu-pool": Cores(),
    "deadline-slot": DeadlineSlot(),
    "row-lock": RowLock(),
    "admission-slot": AdmissionSlot(),
    "mux-lane": MuxLane(),
    "logstore-submit": LogStoreSubmitSlot(),
}


def scenario(kit, victim, kill_at=None, until=10.0):
    """Finish time (or ``(error, instant)``) of each worker, what the
    queue still holds at ``until`` (None: once no event is left), and the
    clock then."""
    env = Environment()
    queue = kit.make(env)
    done = {}
    procs = {}

    def worker(tag):
        try:
            yield from kit.use(env, queue)
            done[tag] = env.now
        except Exception as exc:  # noqa: BLE001 - the outcome is the datum
            done[tag] = (type(exc).__name__, env.now)

    def killer():
        yield env.timeout(kill_at)
        procs["victim"].interrupt("test")

    # Spawned first: at ``kill_at`` the interrupt is scheduled before
    # anything the holder does in that instant - its release included.
    if victim:
        env.process(killer())
    env.process(worker("holder"))
    if victim:
        procs["victim"] = env.process(worker("victim"))
    env.process(worker("third"))
    env.run(until=until)
    return done, kit.held(queue), env.now


@pytest.mark.parametrize("case", ["queued", "same-instant-as-grant"])
@pytest.mark.parametrize("name", sorted(KITS))
def test_interrupted_waiter_leaves_nothing_held(name, case):
    kit = KITS[name]
    alone, idle, _ = scenario(kit, victim=False)
    released = alone["holder"]
    assert alone["third"] > released and all(count == 0 for count in idle)

    # While queued: halfway through the holder's turn.  In the grant's
    # instant: the holder's release hands the victim its grant right after
    # the interrupt was scheduled, so the grant has triggered but the
    # victim resumes with the interrupt - it held for no time at all and
    # must pass the slot straight on.
    kill_at = released / 2 if case == "queued" else released
    done, held, _ = scenario(kit, victim=True, kill_at=kill_at)
    assert done == {
        "holder": released,
        "victim": ("Interrupt", kill_at),
        "third": alone["third"],
    }
    assert all(count == 0 for count in held), held


@pytest.mark.parametrize("case", ["queued", "same-instant-as-grant"])
@pytest.mark.parametrize("name", ["deadline-slot", "row-lock"])
def test_interrupted_waiter_leaves_no_timer_behind(name, case):
    kit = KITS[name]
    alone, _, end = scenario(kit, victim=False, until=None)
    assert end == alone["third"]
    kill_at = alone["holder"] / 2 if case == "queued" else alone["holder"]
    done, held, end = scenario(kit, victim=True, kill_at=kill_at, until=None)
    assert done["victim"] == ("Interrupt", kill_at)
    # Each worker's 5 s timer used to keep the drained run going to 5.0.
    assert end == done["third"] == alone["third"]
    assert all(count == 0 for count in held), held
