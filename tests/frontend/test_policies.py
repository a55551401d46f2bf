"""Tests for replica routing policies (lag-aware balancing)."""

import pytest

from repro.frontend.policies import (
    LeastLagPolicy,
    PowerOfTwoChoicesPolicy,
    RoundRobinPolicy,
    make_policy,
)
from repro.sim.rand import SeedSequence


class FakeReplica:
    def __init__(self, lag):
        self.lag_lsn = lag
        self.alive = True


class FakeHandle:
    def __init__(self, index, lag):
        self.index = index
        self.replica_id = "replica-%d" % index
        self.replica = FakeReplica(lag)


def handles(*lags):
    return [FakeHandle(i, lag) for i, lag in enumerate(lags)]


def test_round_robin_cycles():
    policy = RoundRobinPolicy()
    fleet = handles(0, 0, 0)
    picks = [policy.choose(fleet).index for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]
    assert policy.choose([]) is None


def test_round_robin_survives_shrinking_fleet():
    policy = RoundRobinPolicy()
    fleet = handles(0, 0, 0)
    policy.choose(fleet)
    policy.choose(fleet)
    # A replica drained: the cursor must still land in range.
    assert policy.choose(fleet[:1]).index == 0


def test_least_lag_picks_most_caught_up():
    policy = LeastLagPolicy()
    fleet = handles(500, 20, 90)
    assert policy.choose(fleet).index == 1
    # Ties break on the lower replica index (deterministic).
    assert policy.choose(handles(30, 30)).index == 0
    assert policy.choose([]) is None


def test_p2c_picks_lower_lag_of_two():
    rng = SeedSequence(3).stream("p2c")
    policy = PowerOfTwoChoicesPolicy(rng)
    fleet = handles(1000, 10, 2000, 10_000)
    picks = [policy.choose(fleet).replica.lag_lsn for _ in range(40)]
    # The sampled pair always resolves to its less-lagged member, so the
    # worst replica can never win over three others.
    assert 10_000 not in picks
    assert 10 in picks
    # One routable replica needs no draw; none bounces to the primary.
    assert policy.choose(handles(40)).index == 0
    assert policy.choose([]) is None


def test_p2c_is_deterministic_per_seed():
    fleet = handles(5, 50, 500)

    def trace(seed):
        policy = PowerOfTwoChoicesPolicy(SeedSequence(seed).stream("p2c"))
        return [policy.choose(fleet).index for _ in range(20)]

    assert trace(7) == trace(7)


def test_make_policy():
    assert make_policy("round-robin").name == "round-robin"
    assert make_policy("least-lag").name == "least-lag"
    assert make_policy("p2c", rng=SeedSequence(1).stream("x")).name == "p2c"
    with pytest.raises(ValueError):
        make_policy("p2c")  # needs an rng
    with pytest.raises(ValueError):
        make_policy("random")
