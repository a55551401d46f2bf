"""Run every row of the check manifest (``check_manifest.py``) once.

Run:  python -m pytest benchmarks/test_checks.py   (~2 minutes on 2 cores)

A pin runs its scenario and compares the sha256 of its stdout.  Each
BENCHMARK.json workload runs ``bench/run.py`` once with two reps, which
exits non-zero when the reps differ in any ``sim_*`` metric, layer count or
digest; its gates read that one report.  A workload's ``window`` gates
share one in-process window.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from check_manifest import GATES, PINS, breach, gate_id, measure, window_names

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
sys.path[:0] = [SRC, str(ROOT)]  # bench.workloads, for the window rows
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _run(argv, **env):
    return subprocess.run(argv, cwd=str(ROOT), env=dict(os.environ, **env),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.mark.parametrize("pin", PINS, ids=[pin.id for pin in PINS])
def test_pin(pin):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = _run([sys.executable, "-m", "repro"] + pin.argv.split(),
                PYTHONPATH=path)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert digest == pin.sha256, (
        "repro %s: stdout sha256 %s, pinned %s (re-pin the %r row only if "
        "the change means to move this report)"
        % (pin.argv, digest, pin.sha256, pin.id)
    )


@functools.lru_cache(maxsize=None)
def _bench(workload):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        proc = _run([sys.executable, "bench/run.py", "--workload", workload,
                     "--reps", "2", "--trace", "0", "--out", out])
        runs = (json.loads(Path(out).read_text())["runs"]
                if proc.returncode == 0 else None)
    return proc, runs


def _runs(workload):
    proc, runs = _bench(workload)
    assert proc.returncode == 0, (proc.stdout + proc.stderr).decode()[-4000:]
    return runs


@functools.lru_cache(maxsize=None)
def _window(workload):
    """Registry deltas of the workload's window gates over one window."""
    from bench.workloads import WORKLOADS as MODULES

    module = MODULES[workload]
    names = sorted({name for gate in GATES
                    if gate.workload == workload and gate.source == "window"
                    for name in window_names(gate)})
    dep = module.build_spec(1, False).build()
    dep.start()
    state = module.setup(dep, False)
    before = [dep.registry.value(name) for name in names]
    module.window(dep, state, False)
    return {name: dep.registry.value(name) - then
            for name, then in zip(names, before)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_reps_agree(workload):
    assert [run["reps"] for run in _runs(workload)] == [2]


@pytest.mark.parametrize("gate", GATES, ids=[gate_id(gate) for gate in GATES])
def test_gate(gate):
    if gate.source == "window":
        runs = [{"window": _window(gate.workload)}]
    else:
        runs = _runs(gate.workload)
    for run in runs:
        value = measure(gate, run)
        print(gate_id(gate), value)
        failure = breach(gate, value)
        if failure:
            pytest.fail(failure)
