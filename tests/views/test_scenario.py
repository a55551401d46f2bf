"""Tests for the ``python -m repro views`` scenario."""

import pytest

from repro.views.scenario import run_views

from ..digest import report_digest


def test_views_report_is_pinned():
    report = run_views(seed=7, duration=0.1, feed_bound=64, burst_rows=100)
    assert report["ok"], report["violations"]
    assert report["overflow"]["new_overflows"] > 0
    # Shipping on demand moved it (the 1 ms PageStore shipper:
    # 89fb8196cacbcc27f14a9d5b41db5a4e43b9cbabe641de7a6ff720ffb1c08438),
    # and so did applying PageStore REDO as it is chained (with the 1 ms
    # apply daemon:
    # c235522cfd2eadd08b3d2a8893aacba5733bcd16c8651ba5eca6039dfcf4350b).
    assert report_digest(report) == (
        "6e7939c42b6ade0f2aafd27cd63437afbeddeffcdb115a48cea1d878dcecec90"
    )


def test_views_refuses_zero_replicas():
    with pytest.raises(ValueError, match="replicas must be >= 1"):
        run_views(replicas=0)
