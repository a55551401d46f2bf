"""Tests for device and network models, including calibration sanity."""

import pytest

from repro.sim.core import Environment
from repro.sim.devices import GB, KB, MS, US, PMemDevice, SsdDevice, StorageDevice
from repro.sim.metrics import LatencyRecorder
from repro.sim.network import RdmaFabric, RdmaVerb, RpcNetwork
from repro.sim.rand import Rng, SeedSequence
from repro.sim.resources import CpuPool


def run_collect(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def make_env(name="test"):
    env = Environment()
    seeds = SeedSequence(1234)
    return env, seeds


def test_device_latency_includes_bandwidth_term():
    env, seeds = make_env()
    dev = StorageDevice(
        env,
        seeds.stream("dev"),
        "d",
        read_latency=10 * US,
        write_latency=10 * US,
        read_bandwidth=1 * GB,
        write_bandwidth=1 * GB,
        channels=1,
        jitter_sigma=0.0,
    )

    def do(env):
        small = yield from dev.read(0)
        large = yield from dev.read(1 * GB)
        return small, large

    small, large = run_collect(env, do(env))
    assert small == pytest.approx(10 * US)
    assert large == pytest.approx(1.0 + 10 * US)


def test_device_channels_queue():
    env, seeds = make_env()
    dev = StorageDevice(
        env,
        seeds.stream("dev"),
        "d",
        read_latency=1.0,
        write_latency=1.0,
        read_bandwidth=0,
        write_bandwidth=0,
        channels=2,
        jitter_sigma=0.0,
    )
    done = []

    def reader(env):
        yield from dev.read(0)
        done.append(env.now)

    for _ in range(4):
        env.process(reader(env))
    env.run()
    assert done == [1.0, 1.0, 2.0, 2.0]


def test_device_access_interrupted_while_queued_frees_no_channel_it_never_had():
    """A deadline landing on an access still queued for a channel must
    withdraw it: left queued, it is granted later and holds the channel
    forever (a ``with_timeout`` around an AStore write does exactly this
    to a saturated PMem device)."""
    from repro.common import DeadlineExceededError
    from repro.sim.core import with_timeout

    env, seeds = make_env()
    dev = StorageDevice(
        env,
        seeds.stream("dev"),
        "d",
        read_latency=1.0,
        write_latency=1.0,
        read_bandwidth=0,
        write_bandwidth=0,
        channels=1,
        jitter_sigma=0.0,
    )
    done = []

    def holder(env):
        yield from dev.write(0)
        done.append(("holder", env.now))

    def impatient(env):
        try:
            yield from with_timeout(env, dev.write(0), 0.5, "write")
        except DeadlineExceededError:
            done.append(("deadline", env.now))
        yield env.timeout(2.0)
        yield from dev.read(0)
        done.append(("retry", env.now))

    env.process(holder(env))
    env.process(impatient(env))
    env.run()
    assert done == [("deadline", 0.5), ("holder", 1.0), ("retry", 3.5)]
    assert dev._channels.count == 0 and dev._channels.queue_length == 0


def test_congestion_knee_stretches_service():
    env, seeds = make_env()
    dev = StorageDevice(
        env,
        seeds.stream("dev"),
        "d",
        read_latency=1.0,
        write_latency=1.0,
        read_bandwidth=0,
        write_bandwidth=0,
        channels=100,
        jitter_sigma=0.0,
        congestion_knee=2,
        congestion_slope=1.0,
    )
    latencies = {}

    def reader(env, name):
        lat = yield from dev.read(0)
        latencies[name] = lat

    def uncongested(env):
        yield from dev.read(0)

    # First: single reader, no congestion.
    p = env.process(reader(env, "alone"))
    env.run()
    # Then: six concurrent readers exceed the knee of 2.
    for i in range(6):
        env.process(reader(env, "c%d" % i))
    env.run()
    assert latencies["alone"] == pytest.approx(1.0)
    assert max(latencies.values()) > 1.5


def test_pmem_faster_than_ssd_for_4k_write():
    env, seeds = make_env()
    pmem = PMemDevice(env, seeds.stream("pmem"))
    ssd = SsdDevice(env, seeds.stream("ssd"))

    def do(env):
        p = yield from pmem.write(4 * KB)
        s = yield from ssd.write(4 * KB)
        return p, s

    p, s = run_collect(env, do(env))
    assert p < s
    assert s > 20 * US  # SSD durable write is tens of microseconds at least


def test_ssd_spikes_inflate_tail():
    env, seeds = make_env()
    ssd = SsdDevice(env, seeds.stream("ssd"))
    ssd.start_spike_process(period=0.010, duration=0.002, penalty=10.0)
    rec = LatencyRecorder()

    def writer(env):
        for _ in range(400):
            lat = yield from ssd.write(4 * KB)
            rec.record(lat)
            yield env.timeout(0.0005)

    proc = env.process(writer(env))
    env.run_until_event(proc)  # the spike process is a daemon; don't drain
    # Spikes should push P99 well above the median.
    assert rec.p99 > 3 * rec.p50


def test_rpc_call_charges_server_cpu():
    env, seeds = make_env()
    net = RpcNetwork(env, seeds.stream("net"), jitter_sigma=0.0, spike_probability=0.0)
    cpu = CpuPool(env, cores=1)

    def do(env):
        lat = yield from net.call(128, 128, server_cpu=cpu, server_cpu_seconds=50 * US)
        return lat

    lat = run_collect(env, do(env))
    assert cpu.busy_time == pytest.approx(50 * US)
    assert lat > 100 * US  # two one-way hops + kernel + server CPU


def test_rdma_verbs_do_not_touch_cpu():
    env, seeds = make_env()
    fabric = RdmaFabric(env, seeds.stream("rdma"), jitter_sigma=0.0)

    def do(env):
        lat = yield from fabric.read(64)
        return lat

    lat = run_collect(env, do(env))
    assert lat < 10 * US


def test_rdma_chain_single_doorbell():
    env, seeds = make_env()
    fabric = RdmaFabric(env, seeds.stream("rdma"), jitter_sigma=0.0)

    def chained(env):
        return (
            yield from fabric.post_chain(
                [RdmaVerb("write", 64), RdmaVerb("write", 8), RdmaVerb("read", 8)]
            )
        )

    def separate(env):
        total = 0.0
        for verb in [RdmaVerb("write", 64), RdmaVerb("write", 8), RdmaVerb("read", 8)]:
            total += yield from fabric.post(verb)
        return total

    t_chain = run_collect(env, chained(env))
    env2, seeds2 = make_env()
    fabric2 = RdmaFabric(env2, seeds2.stream("rdma"), jitter_sigma=0.0)

    def separate2(env):
        total = 0.0
        for verb in [RdmaVerb("write", 64), RdmaVerb("write", 8), RdmaVerb("read", 8)]:
            total += yield from fabric2.post(verb)
        return total

    t_sep = run_collect(env2, separate2(env2))
    assert t_chain < t_sep  # chaining saves two doorbells


def test_rdma_256kb_write_near_paper_figure():
    """Paper Section V-A: a 256 KB one-sided WRITE takes about 0.1 ms."""
    env, seeds = make_env()
    fabric = RdmaFabric(env, seeds.stream("rdma"), jitter_sigma=0.0)

    def do(env):
        return (yield from fabric.write(256 * KB))

    lat = run_collect(env, do(env))
    assert 0.05 * MS < lat < 0.2 * MS


def test_persistent_write_is_tens_of_microseconds():
    """Paper Section IV: AStore write latency ~20 us for small payloads."""
    env, seeds = make_env()
    fabric = RdmaFabric(env, seeds.stream("rdma"), jitter_sigma=0.0)

    def do(env):
        return (yield from fabric.persistent_write(512))

    lat = run_collect(env, do(env))
    assert 5 * US < lat < 50 * US


def test_rpc_spike_probability_zero_is_stable():
    env, seeds = make_env()
    net = RpcNetwork(env, seeds.stream("net"), jitter_sigma=0.0, spike_probability=0.0)

    def do(env):
        lats = []
        for _ in range(10):
            lat = yield from net.send(128)
            lats.append(lat)
        return lats

    lats = run_collect(env, do(env))
    assert max(lats) == pytest.approx(min(lats))


def test_invalid_rdma_verb_rejected():
    with pytest.raises(ValueError):
        RdmaVerb("atomic", 8)
    with pytest.raises(ValueError):
        RdmaVerb("write", -1)
