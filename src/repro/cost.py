"""The cost model: every calibration constant of the model's CPU and
server-side work, and the one place the query and view layers turn counts
into virtual time.

The paper argues from path length - which CPU sits on a statement's or a
query's critical path (PAPER.md §2) - and the model expresses CPU as
``CpuPool.consume`` charges.  The query executor, its push-down tasks and
a view serve say *what* they did - a kind of charge and its counts - and
:func:`charge` prices it by :data:`FORMULAS`.  So each formula is written
once, and ``tests/query/row_oracle.py`` prices its own counts through the
same function: engine and oracle leave the same virtual clock exactly
when their operators see the same counts.

Each constant's comment ends with its source: a PAPER.md section, or
"ours, not the paper's" where the paper publishes no figure and the value
is this model's calibration.
"""

from __future__ import annotations

import math
from typing import Optional

from .common import US

__all__ = [
    "ROW_CPU", "PAGE_CPU", "SERVE_CPU",
    "ENGINE_STMT_CPU", "ENGINE_ROW_CPU", "RECORD_CPU",
    "PAGE_MATERIALIZE_COST", "APPLY_COST_PER_RECORD", "INDEX_CS_COST",
    "FORMULAS", "charge", "sort_depth",
]

# -- the query executor: generated loops over decoded column arrays ---------
#: One row through a tight operator loop (filter, probe, group, project,
#: one sort comparison level).  Ours, not the paper's.
ROW_CPU = 0.25 * US
#: Decoding one page's slots into column arrays.  Ours, not the paper's.
PAGE_CPU = 2.0 * US
#: Fixed CPU of one view-served query (shape + dispatch).  Ours, not the
#: paper's.
SERVE_CPU = 4 * US

# -- the engine's row-at-a-time statement path ------------------------------
#: One SQL statement: parse + plan + execute bookkeeping.  Ours, not the
#: paper's (PAPER.md §2 models DBEngine CPU as per-operation slices of a
#: ``CpuPool``, without publishing a slice).
ENGINE_STMT_CPU = 14 * US
#: One row a statement touches: codec + B+-tree descent + lock + page
#: mutation, one row at a time.  Twelve executor rows: an executor row is
#: one iteration of a generated loop over arrays already decoded (the
#: decode is ``PAGE_CPU``'s, per page), an engine row does all of that
#: work for itself.  Ours, not the paper's.
ENGINE_ROW_CPU = 3 * US
#: One REDO record a replica or view applies, and one row of a page it
#: scans: a row mutation, priced as an engine row.  Ours, not the paper's.
RECORD_CPU = 3 * US

# -- storage-side servers ----------------------------------------------------
#: A PageStore server locating a page's versions and materialising its
#: image: the log-structured lookup behind the ~1 ms remote page read of
#: PAPER.md §1 and §2.
PAGE_MATERIALIZE_COST = 350 * US
#: A PageStore server applying one REDO record to a page image (no lock,
#: no index).  Ours, not the paper's.
APPLY_COST_PER_RECORD = 2 * US
#: The EBP index mutex held per lookup / entry update; every index
#: operation serialises on it.  Ours, not the paper's.
INDEX_CS_COST = 1.5 * US


def sort_depth(n: int, limit: Optional[int] = None) -> float:
    """What a sort of ``n`` rows is charged per row, in ``ROW_CPU``: log2 of
    the rows it keeps in order - all ``n``, or the top-N heap of ``limit``
    under a LIMIT - and at least one."""
    kept = n if limit is None else min(limit, n)
    return math.log2(kept) if kept > 2 else 1.0


def _sorted_serve(n, pages, limit, extra):
    units = max(n, 1)
    return SERVE_CPU + ROW_CPU * (units + units * sort_depth(units, limit))


#: Kind of charge -> its price in seconds, from ``(rows, pages, limit,
#: extra)``.
FORMULAS = {
    # One page fetched on the engine thread: its decode and its rows.
    "page": lambda n, pages, limit, extra: PAGE_CPU + ROW_CPU * n,
    # A push-down morsel, or a pushed scan's engine-side pages, charged
    # once for them all: at least one page, and every row decoded.
    "task": lambda n, pages, limit, extra: PAGE_CPU * max(pages, 1) + ROW_CPU * n,
    # One pass over ``n`` rows (group, fold partials, project): at least one.
    "rows": lambda n, pages, limit, extra: ROW_CPU * max(n, 1),
    # One B+-tree probe: an index lookup, or an NL join's outer row.
    "probe": lambda n, pages, limit, extra: ROW_CPU * 2,
    # A hash join: ``n`` is its probe rows plus its build rows - or, when
    # a pushed scan paid the build while it waited, one charge of the build
    # rows then one of the probe rows; a push-down morsel that probes
    # shipped build tables pays the rows it probed on its own core.
    "join": lambda n, pages, limit, extra: ROW_CPU * n,
    # A sort of ``n`` rows (at least one), a top-N under a LIMIT.
    "sort": lambda n, pages, limit, extra:
        ROW_CPU * max(n, 1) * sort_depth(max(n, 1), limit),
    # A compiled point read: the probe and the one-row projection, plus
    # ``extra``, a resident page's fetch folded into the same charge.
    "point": lambda n, pages, limit, extra: ROW_CPU * 3 + extra,
    # A view serve over ``n`` stored rows (at least one), unsorted ...
    "serve": lambda n, pages, limit, extra: SERVE_CPU + ROW_CPU * max(n, 1),
    # ... and under an ORDER BY, which sorts them (a top-N under a LIMIT).
    "serve_sorted": _sorted_serve,
}


def charge(cpu, kind: str, rows: int = 0, pages: int = 0,
           limit: Optional[int] = None, extra: float = 0.0):
    """Generator: hold one of ``cpu``'s cores (a ``CpuPool``) for what one
    ``kind`` charge costs at these counts (:data:`FORMULAS`)."""
    return cpu.consume(FORMULAS[kind](rows, pages, limit, extra))
