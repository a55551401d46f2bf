"""Shared helpers for the benchmark harness.

Every file under benchmarks/ regenerates one table or figure of the paper:
it runs the corresponding experiment from :mod:`repro.harness.experiments`
(at a laptop-scale configuration), prints the same rows/series the paper
reports, and records headline numbers in ``benchmark.extra_info``.

Run:  pytest benchmarks/ --benchmark-only
"""

import json
import os
import sys

import pytest


def emit_bench_json(name, payload):
    """Write ``benchmarks/BENCH_<name>.json`` (stable key order).

    Machine-readable companion to the printed tables: CI and scripts can
    diff or trend the headline numbers without scraping stdout.
    """
    path = os.path.join(os.path.dirname(__file__), "BENCH_%s.json" % name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def print_table(title, headers, rows):
    """Render one paper-style table to stdout (visible with -s or on the
    benchmark summary)."""
    out = ["", "=" * 72, title, "=" * 72]
    fmt = "  ".join("%%-%ds" % max(len(h), 12) for h in headers)
    out.append(fmt % tuple(headers))
    for row in rows:
        out.append(fmt % tuple(str(c) for c in row))
    text = "\n".join(out)
    print(text, file=sys.stderr)
    return text


@pytest.fixture
def make_deployment():
    """Factory for started deployments via the DeploymentSpec builder API.

    Benchmarks that need a one-off deployment (rather than a canned
    experiment runner) build it here so construction goes through the
    validated spec:  ``make_deployment(DeploymentSpec().with_astore())``.
    """
    from repro.harness.deployment import DeploymentSpec

    def _make(spec=None):
        dep = (spec or DeploymentSpec.astore_pq()).build()
        dep.start()
        return dep

    return _make


@pytest.fixture(scope="session")
def tpcc_sweep_results():
    """Fig 6 and Fig 7 share one TPC-C client sweep (run once per session)."""
    from repro.harness.experiments import fig6_fig7_tpcc_sweep

    return fig6_fig7_tpcc_sweep()


@pytest.fixture(scope="session")
def fig14_results():
    """Fig 14's five-configuration CH run, shared across assertions."""
    from repro.harness.experiments import fig14_pushdown_speedup

    return fig14_pushdown_speedup(runs=1)
