#!/usr/bin/env python3
"""Paired host-time comparison of two source trees on one hostbench workload.

    python3 tools/hostbench_pairs.py --base DIR --change DIR --workload W
        [--seed S] [--rotations N] [--cpu C] [--short]

Builds each tree's hostbench_runner from that tree's hostbench/CMakeLists.txt
into DIR/.bench_build/hostbench (Release, as hostbench/run.py builds it), then
runs N rotations. A rotation runs one repetition of each of three sides, each
in a fresh process pinned to CPU C: base, base again (the control) and
change. The side that goes first rotates from one rotation to the next.

The control is the same binary as base, so its spread against base is what
the host alone does to a comparison. A change has a measurable effect only
where its numbers leave that spread: compare its win count against base with
the control's, and its median with base's quartiles.

Per side it prints the median and quartiles of ops / run_s (the runner's
simulated ops per thread-CPU second), the median setup_s and peak RSS, every
digest seen and any gate failure, then how many rotations the change and the
control won against base. Exits 1 when a repetition failed its gate or one
side saw more than one digest.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

REP_TIMEOUT_S = 300
SIDES = ("base", "control", "change")


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


def run_rep(runner, args):
    """One repetition in a fresh process pinned to --cpu."""
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed)]
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
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rotations", type=int, default=10)
    parser.add_argument("--cpu", type=int, default=min(os.sched_getaffinity(0)),
                        help="CPU every repetition is pinned to")
    parser.add_argument("--short", action="store_true", help="the runner's short windows")
    args = parser.parse_args(argv)
    if args.rotations < 1:
        parser.error("--rotations must be at least 1")
    return args


def main(argv):
    args = parse_args(argv)
    base = build(os.path.abspath(args.base))
    change = base if os.path.samefile(args.base, args.change) else build(
        os.path.abspath(args.change))
    runners = {"base": base, "control": base, "change": change}

    reps = {side: [] for side in SIDES}
    for rotation in range(args.rotations):
        shift = rotation % len(SIDES)
        for side in SIDES[shift:] + SIDES[:shift]:
            reps[side].append(run_rep(runners[side], args))

    rates = {side: [r["ops"] / r["run_s"] for r in reps[side]] for side in SIDES}
    print("%s seed %d, %d rotations on CPU %d%s" % (args.workload, args.seed, args.rotations,
                                                    args.cpu, ", short" if args.short else ""))
    print("%-8s %12s %12s %12s %10s %9s  %s" % ("side", "ops/s q1", "median", "q3",
                                                "setup_s", "rss MiB", "digests"))
    broken = False
    for side in SIDES:
        q1, median, q3 = quartiles(rates[side])
        digests = sorted({r["digest"] for r in reps[side]})
        print("%-8s %12.0f %12.0f %12.0f %10.4f %9.1f  %s" % (
            side, q1, median, q3, statistics.median(r["setup_s"] for r in reps[side]),
            statistics.median(r["peak_rss_kib"] / 1024.0 for r in reps[side]),
            " ".join(digests)))
        for rep in reps[side]:
            if rep["gate"]:
                print("  gate FAILED (%s): %s" % (side, rep["gate"]))
                broken = True
        broken = broken or len(digests) > 1
    for side in ("change", "control"):
        wins = sum(mine > theirs for mine, theirs in zip(rates[side], rates["base"]))
        ratio = statistics.median(rates[side]) / statistics.median(rates["base"])
        print("%s beat base in %d of %d rotations; median ratio %.3f"
              % (side, wins, args.rotations, ratio))
    if reps["change"][0]["digest"] != reps["base"][0]["digest"]:
        print("note: change and base digests differ")
    sys.exit(1 if broken else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
