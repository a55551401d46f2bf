"""Each kind of query and view CPU charge, priced independently.

``repro.cost.charge`` is the one formula per kind that the executor, the
push-down tasks, the view serve and the row oracle all call, so their
equal virtual clocks cannot catch a wrong formula.  This table can: every
price is a literal, written out in µs from the constants' values (a row
is 0.25 µs, a page decode 2 µs, a view serve's fixed part 4 µs).
"""

import math

import pytest

from repro.cost import FORMULAS, charge
from repro.sim.core import Environment
from repro.sim.resources import CpuPool

#: (kind, counts, what one charge costs in µs)
PRICES = [
    ("page", dict(rows=40), 2 + 0.25 * 40),
    ("page", dict(rows=0), 2),
    ("task", dict(rows=40, pages=3), 2 * 3 + 0.25 * 40),
    ("task", dict(rows=0, pages=0), 2),  # at least one page
    ("rows", dict(rows=7), 0.25 * 7),
    ("rows", dict(rows=0), 0.25),  # at least one row
    ("probe", dict(), 0.25 * 2),
    ("join", dict(rows=30 + 12), 0.25 * 42),
    ("sort", dict(rows=5, limit=3), 0.25 * 5 * math.log2(3)),  # top-3
    ("sort", dict(rows=5), 0.25 * 5 * math.log2(5)),
    ("sort", dict(rows=3, limit=10), 0.25 * 3 * math.log2(3)),
    ("sort", dict(rows=5, limit=2), 0.25 * 5),  # depth at least 1
    ("sort", dict(rows=0), 0.25),
    ("point", dict(), 0.25 * 3),
    ("point", dict(extra=1.5e-6), 0.25 * 3 + 1.5),
    ("serve", dict(rows=5, limit=3), 4 + 0.25 * 5),  # unsorted: no depth
    ("serve", dict(rows=0), 4 + 0.25),
    ("serve_sorted", dict(rows=5, limit=3), 4 + 0.25 * (5 + 5 * math.log2(3))),
    ("serve_sorted", dict(rows=5), 4 + 0.25 * (5 + 5 * math.log2(5))),
    ("serve_sorted", dict(rows=1), 4 + 0.25 * (1 + 1)),
]


class RecordingPool(CpuPool):
    """A one-core pool that keeps every ``consume`` amount."""

    def __init__(self, env):
        super().__init__(env, 1)
        self.charged = []

    def consume(self, seconds):
        self.charged.append(seconds)
        return super().consume(seconds)


@pytest.mark.parametrize(
    "kind, counts, us", PRICES,
    ids=["%s-%d" % (kind, i) for i, (kind, _c, _us) in enumerate(PRICES)],
)
def test_a_charge_costs_its_literal_price(kind, counts, us):
    env = Environment()
    pool = RecordingPool(env)
    env.run_until_event(env.process(charge(pool, kind, **counts)))
    assert pool.charged == [pytest.approx(us * 1e-6, rel=1e-12, abs=0)]
    assert env.now == pytest.approx(us * 1e-6, rel=1e-12, abs=0)
    assert pool.busy_time == pool.charged[0]


def test_every_kind_has_a_price():
    assert {kind for kind, _counts, _us in PRICES} == set(FORMULAS)
