"""ViewDefinition validation and view-eligibility matching."""

import pytest

from repro.common import QueryError
from repro.harness.deployment import DeploymentSpec
from repro.query.cache import parse_entry
from repro.query.planner import match_view_select
from repro.views.definition import ViewDefinition


def test_aggregate_view_plan():
    view = ViewDefinition(
        "v",
        "SELECT grp, COUNT(*) AS n, SUM(val) AS total FROM facts "
        "WHERE val > 0 GROUP BY grp",
    )
    assert view.table == "facts"
    assert view.is_aggregate
    assert len(view.group_by) == 1
    assert len(view.aggregates) == 2
    assert view.item_plan == (("group", 0), ("agg", 0), ("agg", 1))


def test_projection_view_plan():
    view = ViewDefinition("p", "SELECT k, val FROM facts WHERE grp = 3")
    assert not view.is_aggregate
    assert view.aggregates == ()
    assert view.item_plan == (("col", 0), ("col", 1))


@pytest.mark.parametrize(
    "sql",
    [
        # Non-linear / unsupported shapes, each rejected with a reason.
        "SELECT a.k FROM a JOIN b ON a.k = b.k",      # join
        "SELECT * FROM facts",                        # star
        "SELECT k FROM facts WHERE k = ?",            # parameter
        "SELECT k FROM facts ORDER BY k",             # order by
        "SELECT k FROM facts LIMIT 5",                # limit
        "SELECT COUNT(DISTINCT val) FROM facts",      # distinct agg
        "SELECT SUM(val) + 1 FROM facts",             # composite agg expr
        "SELECT k, SUM(val) FROM facts GROUP BY grp", # k not grouped
        "SELECT k FROM facts f",                      # table alias
        "INSERT INTO facts VALUES (1, 2, 3)",         # not a SELECT
    ],
)
def test_rejected_definitions(sql):
    with pytest.raises(QueryError):
        ViewDefinition("bad", sql)


VIEW = ViewDefinition(
    "v", "SELECT grp, COUNT(*) AS n, SUM(val) AS total FROM facts GROUP BY grp"
)


def _parse(sql):
    statement, _ = parse_entry(sql)
    return statement


def test_match_accepts_reordered_aliased_subset():
    query = _parse(
        "SELECT SUM(val) AS s, grp FROM facts GROUP BY grp ORDER BY grp"
    )
    assert match_view_select(query, VIEW.select) == [2, 0]


def test_match_rejects_mismatches():
    for sql in (
        "SELECT grp, COUNT(*) FROM other GROUP BY grp",        # table
        "SELECT grp, COUNT(*) FROM facts WHERE val > 0 GROUP BY grp",  # where
        "SELECT grp, COUNT(*) FROM facts GROUP BY grp, val",   # group by
        "SELECT grp, AVG(val) FROM facts GROUP BY grp",        # missing agg
        "SELECT grp FROM facts GROUP BY grp ORDER BY val",     # order col
    ):
        assert match_view_select(_parse(sql), VIEW.select) is None


def test_spec_with_views_round_trip():
    spec = DeploymentSpec.astore_ebp(seed=3).with_views(
        {"v": VIEW.sql}, feed_bound=128
    )
    assert spec.views == (("v", VIEW.sql),)
    assert spec.view_feed_bound == 128


def test_spec_rejects_bad_view_configs():
    base = DeploymentSpec.astore_ebp(seed=3)
    with pytest.raises(ValueError):
        base.with_shards(2).with_views({"v": VIEW.sql})
    with pytest.raises(ValueError):
        base.with_views({})
    with pytest.raises(ValueError):
        base.with_views({"v": "SELECT * FROM facts"})
    with pytest.raises(ValueError):
        base.with_views([("v", VIEW.sql), ("v", VIEW.sql)])
    with pytest.raises(ValueError):
        base.with_views({"v": VIEW.sql}, feed_bound=0)
