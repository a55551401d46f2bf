"""BENCHMARK.json against what a run actually prints."""

import json
import os
import re
import subprocess
import sys

import pytest

from bench import spec
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN = os.path.join(spec.ROOT, "bench", "run.py")


def test_names_units_and_shape():
    benchmark = spec.load()
    assert set(benchmark) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    names = [w["name"] for w in benchmark["workloads"]]
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in benchmark["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in benchmark["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in benchmark["end_to_end"])
    for workload in benchmark["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_listed_metric_is_emitted(name, quick_run):
    benchmark = spec.load()
    untraced = quick_run(name, 1)
    for metric in benchmark["end_to_end"]:
        assert untraced["end_to_end"][metric["name"]] > 0, metric["name"]
    traced = quick_run(name, 1, traced=True)
    for metric in benchmark["per_layer"]:
        assert metric["name"] in traced["per_layer"], metric["name"]
    known = spec.per_layer(benchmark)
    assert set(traced["per_layer"]) <= set(known)
    assert set(untraced["end_to_end"]) <= set(spec.end_to_end(benchmark))


def test_single_run_prints_the_contract_line(tmp_path):
    benchmark = spec.load()
    for trace, block in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, RUN, "--quick", "--workload", "mux_point",
             "--seed", "3", "--trace", str(trace),
             "--out", str(tmp_path / "out.json")],
            stdout=subprocess.PIPE, text=True, check=True)
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in benchmark[block]}
        for metric in benchmark[block]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    document = json.loads((tmp_path / "out.json").read_text())
    assert document["quick"] is True and document["runs"]


def test_list_runs_nothing():
    done = subprocess.run([sys.executable, RUN, "--list"],
                          stdout=subprocess.PIPE, text=True, check=True)
    assert "sim_max_rate_in_slo" in done.stdout
    assert "serve_htap" in done.stdout
