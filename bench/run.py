#!/usr/bin/env python3
"""The regression benchmark: ``python bench/run.py``.

With no arguments: every workload, seed 1, five untraced reps and then a
traced run each, every metric printed by name with its unit, outputs
checked, one JSON result file written.  Each (workload, seed, trace) run
happens in a child process of its own, one at a time, so peak memory and
import cost belong to that run alone.

    python bench/run.py --list
    python bench/run.py --quick
    python bench/run.py --workload tpcc_log --seed 3 --trace 0
    python bench/run.py --seed 1 --seed 2 --out bench/results/mine.json

When exactly one run is asked for (one workload, one seed, ``--trace 0``
or ``--trace 1``) the last line printed is that run as one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding BENCHMARK.json's
end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Import as the ``bench`` package from the repository root: with this
# file's own directory first on the path, ``trace.py`` here would shadow
# the standard library's ``trace``.
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from bench import spec  # noqa: E402

DEFAULT_OUT = os.path.join(HERE, "results", "latest.json")
DEFAULT_REPS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", action="append", type=int,
                        help="workload seed (repeatable; default 1)")
    parser.add_argument("--reps", type=int,
                        help="untraced reps per run (default %d)"
                        % DEFAULT_REPS)
    parser.add_argument("--seconds", type=float,
                        help="instead of --reps: one rep per 3 s of this "
                        "(windows are calibrated to ~3 s; at least 3 reps)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, help="1: only the traced run; 0: only the "
                        "untraced run; default both")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: 1 rep, windows cut about 5x")
    parser.add_argument("--list", action="store_true",
                        help="print workloads and metrics, run nothing")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="result file (default %(default)s)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--chrome-out", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Child: one (workload, seed, trace) run in this process
# ---------------------------------------------------------------------------

def child_main(args) -> int:
    from bench import harness
    from bench.workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    result = harness.run_workload(
        WORKLOADS[args.workload[0]],
        args.seed[0],
        quick=args.quick,
        traced=bool(args.trace),
        reps=args.reps,
        seconds=args.seconds,
        import_s=import_s,
    )
    chrome = result.pop("chrome_trace", None)
    if chrome is not None and args.chrome_out:
        with open(args.chrome_out, "w") as fh:
            json.dump(chrome, fh)
    print(json.dumps(result))
    return 0


def run_child(workload, seed, traced, args, chrome_out):
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(traced))]
    if args.quick:
        command.append("--quick")
    if traced:
        command += ["--chrome-out", chrome_out]
    elif args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    else:
        reps = 1 if args.quick else (args.reps or DEFAULT_REPS)
        command += ["--reps", str(reps)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Parent: orchestrate, print, write
# ---------------------------------------------------------------------------

def print_list(benchmark) -> None:
    print("workloads:")
    for workload in benchmark["workloads"]:
        print("  %-14s %s" % (workload["name"], workload["why"]))
    print("end-to-end metrics (name, unit, better, bound):")
    for name, metric in spec.end_to_end(benchmark).items():
        print("  %-24s %-6s %-7s %s"
              % (name, metric["unit"], metric["better"], spec.bound_text(metric)))
    print("per-layer metrics (name, unit, better):")
    for name, metric in spec.per_layer(benchmark).items():
        print("  %-40s %-7s %s" % (name, metric["unit"], metric["better"]))


def print_run(result, benchmark) -> None:
    print("== %s seed %d, %s: %d untraced rep%s of %d ops (op = %s); %s ==" % (
        result["workload"], result["seed"],
        "traced" if result["traced"] else "untraced",
        result["reps"], "" if result["reps"] == 1 else "s",
        result["ops"], result["op"], result["loop"]))
    if not result["traced"]:
        for name, metric in spec.end_to_end(benchmark).items():
            if name not in result["end_to_end"]:
                continue
            note = ""
            if name == "sim_lat_tail_ms":
                note = "  (p%d of %d samples)" % (
                    result["tail_pct"], result["samples"])
            print("  %-24s %14.6g %-6s bound %s%s" % (
                name, result["end_to_end"][name], metric["unit"],
                spec.bound_text(metric), note))
    for name, metric in spec.per_layer(benchmark).items():
        if name in result["per_layer"]:
            print("  %-40s %14.6g %s" % (
                name, result["per_layer"][name], metric["unit"]))
    for error in result["errors"]:
        print("  FAILED CHECK: %s" % error)


def contract_line(result, benchmark):
    """The driver's one-object form of a single run."""
    listed = benchmark["per_layer" if result["traced"] else "end_to_end"]
    values = result["per_layer" if result["traced"] else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise SystemExit("run did not produce %s" % ", ".join(missing))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }


def fingerprint(runs):
    mops = [run["per_layer"]["bench.calibration_mops"] for run in runs]
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "bench.calibration_mops": max(mops) if mops else None,
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.child:
        return child_main(args)
    benchmark = spec.load()
    if args.list:
        print_list(benchmark)
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: no src/repro beside bench/ - nothing to "
              "measure", file=sys.stderr)
        return 2
    names = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workload or names
    for name in workloads:
        if name not in names:
            print("unknown workload %r (have: %s)"
                  % (name, ", ".join(names)), file=sys.stderr)
            return 2
    seeds = args.seed or [1]
    modes = (False, True) if args.trace is None else (bool(args.trace),)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    stem = os.path.splitext(os.path.abspath(args.out))[0]

    runs = []
    ok = True
    for workload in workloads:
        for seed in seeds:
            untraced_digest = None
            for traced in modes:
                chrome_out = "%s.trace.%s.seed%d.json" % (stem, workload, seed)
                result = run_child(workload, seed, traced, args, chrome_out)
                if result is None:
                    print("== %s seed %d: child process failed =="
                          % (workload, seed))
                    ok = False
                    continue
                if not traced:
                    untraced_digest = result["digest"]
                elif untraced_digest not in (None, result["digest"]):
                    result["correct"] = False
                    result["errors"].append(
                        "digest differs from the untraced run's")
                print_run(result, benchmark)
                sys.stdout.flush()
                ok = ok and result["correct"]
                runs.append(result)
    with open(args.out, "w") as fh:
        json.dump({
            "quick": args.quick,
            "fingerprint": fingerprint(runs),
            "runs": runs,
        }, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % os.path.relpath(args.out))
    if len(runs) == 1 and args.trace is not None:
        print(json.dumps(contract_line(runs[0], benchmark)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
