#!/usr/bin/env python3
"""Paired host-time comparison of two source trees on hostbench workloads.

    python3 tools/hostbench_pairs.py --base DIR --change DIR --workload W[,W...]
        [--seed S] [--rotations N] [--cpu C] [--short]

Builds each tree's hostbench_runner from that tree's hostbench/CMakeLists.txt
into DIR/.bench_build/hostbench (Release, as hostbench/run.py builds it), then
runs N rotations of each listed workload in turn. A rotation runs one
repetition of each of three sides, each in a fresh process pinned to CPU C:
base, base again (the control) and change. The side that goes first rotates
from one rotation to the next.

The control is the same binary as base, so its spread against base is what
the host alone does to a comparison. A change has a measurable effect only
where its numbers leave that spread: compare its win count against base with
the control's, and its median with base's quartiles.

Before the runs it lists every fsbench:: symbol whose size (nm -S) differs
between the base and change runners, largest change first, or says that none
differs: code placement alone can move a host-time comparison, so a change
that should leave the hot paths alone can be checked to compile them alike.

Per workload and side it prints the first quartile, median and third quartile
of ops / run_s (the runner's simulated ops per thread-CPU second), setup_s and
peak RSS, every digest seen and any gate failure. Then, for the change and the
control, it prints on each of the three metrics how many rotations the side
won against base (more ops/s, less setup_s, less RSS) and the ratio of its
median to base's. Exits 1 when a repetition failed its gate or one side saw
more than one digest.
"""

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys

REP_TIMEOUT_S = 300
SIDES = ("base", "control", "change")
# (label, value of one repetition, whether a higher value wins, print format)
METRICS = (
    ("ops/s", lambda r: r["ops"] / r["run_s"], True, "%.0f"),
    ("setup_s", lambda r: r["setup_s"], False, "%.4f"),
    ("rss MiB", lambda r: r["peak_rss_kib"] / 1024.0, False, "%.2f"),
)


def fail(message):
    print("hostbench_pairs: " + message, file=sys.stderr)
    sys.exit(1)


def build(tree):
    """Builds tree's runner as hostbench/run.py does; returns its path."""
    source = os.path.join(tree, "hostbench")
    binary_dir = os.path.join(tree, ".bench_build", "hostbench")
    if not os.path.isfile(os.path.join(source, "CMakeLists.txt")):
        fail("no hostbench/CMakeLists.txt under " + tree)
    steps = []
    if not os.path.isfile(os.path.join(binary_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", binary_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", binary_dir, "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        # Build chatter goes to stderr, the comparison to stdout.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(binary_dir, "hostbench_runner")


def symbol_sizes(binary):
    """Demangled fsbench:: symbol name -> sorted sizes of its copies."""
    out = subprocess.run(["nm", "-S", "-C", binary], capture_output=True, text=True,
                         check=True).stdout
    sizes = collections.defaultdict(list)
    for line in out.splitlines():
        # address, size, type, name; symbols without a size have three fields.
        fields = line.split(None, 3)
        if len(fields) == 4 and "fsbench::" in fields[3]:
            sizes[fields[3]].append(int(fields[1], 16))
    return {name: sorted(copies) for name, copies in sizes.items()}


def show_sizes(sizes):
    """Sizes of a symbol's copies, '-' when the binary lacks it."""
    return "/".join(str(size) for size in sizes) if sizes else "-"


def report_symbol_sizes(base, change):
    """Prints the fsbench:: symbols whose sizes differ, largest change first."""
    if shutil.which("nm") is None:
        print("symbol sizes: nm not found, not compared")
        return
    old, new = symbol_sizes(base), symbol_sizes(change)
    rows = []
    for name in old.keys() | new.keys():
        before, after = old.get(name, []), new.get(name, [])
        if before != after:
            rows.append((abs(sum(after) - sum(before)), name, before, after))
    if not rows:
        print("symbol sizes: no fsbench:: symbol differs between base and change")
        return
    print("symbol sizes: %d fsbench:: symbols differ (bytes, base -> change)" % len(rows))
    for _, name, before, after in sorted(rows, key=lambda r: (-r[0], r[1])):
        print("  %12s -> %-12s %s" % (show_sizes(before), show_sizes(after), name))


def run_rep(runner, workload, args):
    """One repetition in a fresh process pinned to --cpu."""
    cmd = [runner, "--workload", workload, "--seed", str(args.seed)]
    cmd += ["--short"] if args.short else []
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
                          preexec_fn=lambda: os.sched_setaffinity(0, {args.cpu}))
    if proc.returncode != 0:
        fail("%s exited with %d: %s" % (runner, proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="source tree measured twice")
    parser.add_argument("--change", required=True, help="source tree compared against it")
    parser.add_argument("--workload", required=True,
                        help="workload, or a comma-separated list run one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rotations", type=int, default=10)
    parser.add_argument("--cpu", type=int, default=min(os.sched_getaffinity(0)),
                        help="CPU every repetition is pinned to")
    parser.add_argument("--short", action="store_true", help="the runner's short windows")
    args = parser.parse_args(argv)
    if args.rotations < 1:
        parser.error("--rotations must be at least 1")
    args.workloads = [w for w in args.workload.split(",") if w]
    if not args.workloads:
        parser.error("--workload names no workload")
    return args


def compare(workload, runners, args):
    """Runs and reports one workload's rotations; returns True if broken."""
    reps = {side: [] for side in SIDES}
    for rotation in range(args.rotations):
        shift = rotation % len(SIDES)
        for side in SIDES[shift:] + SIDES[:shift]:
            reps[side].append(run_rep(runners[side], workload, args))

    values = {(side, label): [value(r) for r in reps[side]]
              for side in SIDES for label, value, _, _ in METRICS}
    print("%s seed %d, %d rotations on CPU %d%s" % (workload, args.seed, args.rotations,
                                                    args.cpu, ", short" if args.short else ""))
    print("%-8s %-8s %12s %12s %12s" % ("side", "metric", "q1", "median", "q3"))
    broken = False
    for side in SIDES:
        for label, _, _, form in METRICS:
            print("%-8s %-8s %12s %12s %12s" % (
                (side, label) + tuple(form % q for q in quartiles(values[(side, label)]))))
        digests = sorted({r["digest"] for r in reps[side]})
        print("%-8s %-8s %s" % (side, "digests", " ".join(digests)))
        for rep in reps[side]:
            if rep["gate"]:
                print("  gate FAILED (%s): %s" % (side, rep["gate"]))
                broken = True
        broken = broken or len(digests) > 1
    print("%-8s %-8s %6s  %s" % ("vs base", "metric", "wins", "median ratio"))
    for side in ("change", "control"):
        for label, _, higher_wins, _ in METRICS:
            mine, base = values[(side, label)], values[("base", label)]
            wins = sum((m > b) if higher_wins else (m < b) for m, b in zip(mine, base))
            ratio = statistics.median(mine) / statistics.median(base)
            print("%-8s %-8s %6s  %.3f" % (side, label, "%d/%d" % (wins, args.rotations), ratio))
    if reps["change"][0]["digest"] != reps["base"][0]["digest"]:
        print("note: change and base digests differ")
    return broken


def main(argv):
    args = parse_args(argv)
    base = build(os.path.abspath(args.base))
    change = base if os.path.samefile(args.base, args.change) else build(
        os.path.abspath(args.change))
    runners = {"base": base, "control": base, "change": change}
    report_symbol_sizes(base, change)
    broken = False
    for workload in args.workloads:
        print()
        broken = compare(workload, runners, args) or broken
    sys.exit(1 if broken else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
