#!/usr/bin/env python3
"""Compare benchmark result files: ``compare.py A.json B.json [A2 B2 ...]``.

Arguments come in pairs, parent (A) then change (B); every untraced run
in a pair's A file is matched to the B run of the same workload and seed,
so ten pairs of one-seed files, or one pair of ten-seed files, both give
ten paired samples.  One row is printed per workload x end-to-end metric:
both medians, both quartile ranges, the bound, and a verdict:

  regressed   B's median is worse than A's by more than the bound
  unresolved  the spread of A's own runs (quartile distance / median) is
              wider than the bound, so the bound cannot be checked
  improved    at least ten pairs, B wins nine tenths of them (ties count
              for neither side) and the medians differ by more than the
              quartile distance of A's own runs
  unchanged   none of the above

Every ratio is printed with its base.  Exits 1 if any row regressed.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from bench import spec  # noqa: E402
from bench.stats import quartiles  # noqa: E402

MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def load_runs(path):
    with open(path) as fh:
        document = json.load(fh)
    if document.get("quick"):
        raise SystemExit(
            "%s is a --quick smoke run; compare full runs only" % path)
    return {
        (run["workload"], run["seed"]): run
        for run in document["runs"] if not run["traced"]
    }


def worse_by(metric, a_median, b_median):
    """How much worse B is than A, in the unit the bound is stated in."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    if "bound_abs" in metric:
        return sign * (b_median - a_median), metric["bound_abs"]
    return sign * (b_median - a_median) / a_median, metric["bound"]


def verdict(metric, a_values, b_values):
    a_q1, a_median, a_q3 = quartiles(a_values)
    _b_q1, b_median, _b_q3 = quartiles(b_values)
    worse, bound = worse_by(metric, a_median, b_median)
    if "bound" in metric and a_median and (a_q3 - a_q1) / a_median > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    better = metric["better"] == "higher"
    wins = sum(1 for a, b in zip(a_values, b_values)
               if a != b and (b > a) == better)
    losses = sum(1 for a, b in zip(a_values, b_values)
                 if a != b and (b > a) != better)
    if (len(a_values) >= MIN_PAIRS_FOR_GAIN
            and wins >= WIN_SHARE_FOR_GAIN * (wins + losses) and wins
            and abs(b_median - a_median) > a_q3 - a_q1):
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths or len(paths) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = spec.end_to_end(spec.load())
    samples = {}  # (workload, metric) -> ([a values], [b values])
    for a_path, b_path in zip(paths[0::2], paths[1::2]):
        a_runs, b_runs = load_runs(a_path), load_runs(b_path)
        for key in sorted(set(a_runs) & set(b_runs)):
            for name in metrics:
                a = a_runs[key]["end_to_end"].get(name)
                b = b_runs[key]["end_to_end"].get(name)
                if a is None or b is None:
                    continue
                a_values, b_values = samples.setdefault(
                    (key[0], name), ([], []))
                a_values.append(a)
                b_values.append(b)
    print("%-13s %-20s %5s %12s %25s %12s %25s %9s %13s  %s" % (
        "workload", "metric", "pairs", "A median", "A q1..q3", "B median",
        "B q1..q3", "B/A", "bound", "verdict"))
    regressed = False
    for (workload, name), (a_values, b_values) in samples.items():
        metric = metrics[name]
        a_q1, a_median, a_q3 = quartiles(a_values)
        b_q1, b_median, b_q3 = quartiles(b_values)
        outcome = verdict(metric, a_values, b_values)
        regressed = regressed or outcome == "regressed"
        ratio = "%.4f" % (b_median / a_median) if a_median else "-"
        print("%-13s %-20s %5d %12.6g %25s %12.6g %25s %9s %13s  %s" % (
            workload, name, len(a_values), a_median,
            "%.6g..%.6g" % (a_q1, a_q3), b_median,
            "%.6g..%.6g" % (b_q1, b_q3), ratio, spec.bound_text(metric),
            outcome))
    print("B/A is B's median over A's median; a percentage bound is a share "
          "of A's median; units are those of run.py --list")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
