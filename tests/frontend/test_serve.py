"""Tests for the ``python -m repro serve`` scenario (determinism, overload)."""

import inspect

import pytest

from repro.frontend.serve import run_serving, run_serving_mux

from ..digest import report_digest

# Small-but-real scenario: long enough to cross the chaos crash/restart
# points (30% / 55% of the duration) with every driver class active.
SMALL = dict(
    seed=7, duration=0.25, write_terminals=1,
    mixed_sessions=2, read_sessions=2,
)


@pytest.fixture(scope="module")
def small_report():
    return run_serving(**SMALL)


def test_serve_report_is_pinned(small_report):
    # Shipping on demand moved it (the 1 ms PageStore shipper:
    # 454435f6d8daf1b9b004309e5387603ab59a50c4ae01479d84f89ea98c04175b),
    # and so did dropping the fleet's drain fields and applying PageStore
    # REDO as it is chained (with the apply daemon:
    # 3208a40bc318c2265c7cb6eb0d3ba31bca57c0f36239354ccf3052dbbd5ef19d).
    assert report_digest(small_report) == (
        "4273a7bcae0b0198bd0f1b16d713ddcda91dcca042ace6aa118c8473931bc0d6"
    )


def test_sharded_serve_report_is_pinned():
    report = run_serving(**SMALL, shards=2)
    assert report["ok"] is True
    # Shipping on demand moved it (the 1 ms PageStore shipper:
    # 0141167428c7786186e3178e9876b2d6334653a8cfbb595e8c76c74d2dc4f531),
    # and so did paying reads' CPU at the next wait (a charge per read:
    # 04520a3f4bcc05a3b6c2418e5470b5eab6d290216960ee4377f85e0971be113e),
    # and so did dropping the fleet's drain fields and applying PageStore
    # REDO as it is chained (with the apply daemon:
    # 25da76eb5769938459d7812f236003b9e0149e3219f356c914bfe67098134e30).
    assert report_digest(report) == (
        "018083e8ea37ecc9d80ac1b216e2abc01edb0d2a3074cf4b0d687540d51cf1e8"
    )


def test_mux_serve_report_is_pinned():
    report = run_serving_mux(seed=7, sessions=500, duration=0.1)
    assert report["ok"] is True
    assert report_digest(report) == (
        "12093771d4e4685783aced2d56d8c14b7f2ef90c85f9e79eca187d64e4d1a121"
    )


def test_serve_report_is_consistent_and_ok(small_report):
    report = small_report
    assert report["ok"] is True
    assert report["violations"] == []
    assert report["consistency"]["stale_reads"] == 0
    assert report["consistency"]["missing_rows"] == 0
    assert report["consistency"]["checks"] > 0
    assert report["tpcc"]["committed"] > 0
    assert report["mixed"]["writes"] > 0
    assert report["reads"]["replica"] > 0
    assert report["reads"]["total"] == (
        report["reads"]["replica"] + report["reads"]["primary"]
    )
    assert sum(report["reads"]["per_replica"].values()) == \
        report["reads"]["replica"]


def test_serve_chaos_cycle_recovers(small_report):
    report = small_report
    assert len(report["chaos_log"]) == 2
    assert "crashed replica replica-1" in report["chaos_log"][0]
    fleet = report["fleet"]
    assert fleet["rejoins"] == 1
    assert fleet["failed_restarts"] == 0
    victim = fleet["replicas"]["replica-1"]
    assert victim["crashes"] == 1
    assert victim["recoveries"] == 1
    assert victim["alive"] is True
    # The victim served reads (before the crash, after the rejoin, or
    # both).
    assert victim["reads_served"] > 0


def test_serve_is_deterministic(small_report):
    again = run_serving(**SMALL)
    assert again == small_report


@pytest.mark.parametrize("scenario", [run_serving, run_serving_mux])
def test_scenarios_take_no_private_parameters(scenario):
    # A scenario's report is its only output: no caller-specific sinks.
    for name in inspect.signature(scenario).parameters:
        assert not name.startswith("_"), name


def test_serve_seed_changes_report(small_report):
    other = run_serving(**dict(SMALL, seed=8))
    assert other["seed"] == 8
    assert other != small_report
    # Different seed, same invariant.
    assert other["ok"] is True


def test_serve_overload_sheds_boundedly():
    report = run_serving(
        seed=17, duration=0.15, write_terminals=1,
        mixed_sessions=1, read_sessions=6, chaos=False,
        read_limit=1, queue_limit=2, queue_timeout=0.002,
        replica_cores=1,
    )
    admission = report["admission"]
    assert admission["rejects"] > 0
    assert admission["rejects"] == (
        admission["queue_full"] + admission["deadline"]
    )
    assert admission["shed"]["read"] > 0
    # Shedding keeps the system correct: every admitted read still
    # honoured its session token.
    assert report["ok"] is True
    assert report["reads"]["total"] > 0


@pytest.mark.parametrize("scenario", [run_serving, run_serving_mux])
def test_scenarios_refuse_zero_replicas(scenario):
    with pytest.raises(ValueError, match="replicas must be >= 1"):
        scenario(replicas=0)
