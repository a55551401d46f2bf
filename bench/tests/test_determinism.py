"""Virtual-time statistics repeat exactly; host time is the only noise."""

import pytest

from bench import harness
from bench.workloads import WORKLOADS

HOST_METRICS = ("host_ops_per_s", "setup_s", "host_peak_rss_mb")
HOST_LAYER_PREFIX = "bench."


def sim_view(result):
    end_to_end = {
        name: value for name, value in result["end_to_end"].items()
        if name not in HOST_METRICS
    }
    counts = {
        name: value for name, value in result["per_layer"].items()
        if not name.startswith(HOST_LAYER_PREFIX)
    }
    return end_to_end, counts


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_twice_is_identical(name):
    first = harness.run_workload(WORKLOADS[name], 1, quick=True, reps=1)
    second = harness.run_workload(WORKLOADS[name], 1, quick=True, reps=1)
    assert first["correct"], first["errors"]
    assert first["digest"] == second["digest"]
    assert sim_view(first) == sim_view(second)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_other_seed_other_digest(name, quick_run):
    assert quick_run(name, 1)["digest"] != quick_run(name, 2)["digest"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_digest_equals_untraced(name, quick_run):
    traced = quick_run(name, 1, traced=True)
    # run_workload itself compares the traced rep with the untraced one.
    assert traced["correct"], traced["errors"]
    assert traced["digest"] == quick_run(name, 1)["digest"]
    assert traced["per_layer"]["bench.trace_overhead_x"] > 1.0


def test_rep_mismatch_fails_the_run(monkeypatch):
    workload = WORKLOADS["mux_point"]
    seeds = iter((1, 2))
    build = workload.build_spec
    monkeypatch.setattr(
        workload, "build_spec",
        lambda seed, quick: build(next(seeds), quick))
    result = harness.run_workload(workload, 1, quick=True, reps=2)
    assert not result["correct"]
    assert "differs from rep 1" in result["errors"][0]
