"""Path set-up and shared quick-size runs for ``pytest bench/tests``."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import harness  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="session")
def quick_run():
    """``quick_run(workload, seed, traced)``: one cached --quick run."""
    cache = {}

    def run(name, seed, traced=False):
        key = (name, seed, traced)
        if key not in cache:
            cache[key] = harness.run_workload(
                WORKLOADS[name], seed, quick=True, traced=traced, reps=1)
        return cache[key]

    return run
