#!/usr/bin/env python3
"""Host-time benchmark of the fsbench simulator.

Measures what the simulator costs its user in host time and memory while it
simulates one named workload, and checks that every simulated result is
still correct and deterministic. See README.md for the workloads, the
metrics and how to read them.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds hostbench_runner (the simulator from ../src plus runner.cc) under
.bench_build/ at the repository root, then runs repetitions of the workload,
each in a fresh process, until S seconds have passed:

  --trace 0  untraced repetitions give the end-to-end metrics, then one
             traced repetition joins the correctness gate.
  --trace 1  untraced and traced repetitions alternate; the traced ones give
             the per-layer metrics, and the spans of the last one are written
             to .bench_build/hostbench/trace/<workload>-seed<N>.json.

Every repetition's virtual-time digest must equal the first one's; a
repetition that differs, or fails the runner's own checks, counts all its ops
as failed. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "hostbench")
RUNNER = os.path.join(BUILD, "hostbench_runner")
WORKLOADS = ("randread_tiers", "postmark_ssd", "bigdir_churn")
MIN_REPS = 3
REP_TIMEOUT_S = 120

# Per-layer metrics: (name, unit). Virtual-time ones come from the runner's
# counters, host-time ones are medians over the traced repetitions.
VIRTUAL_LAYERS = (
    ("vfs.latency_us_p50", "us"),
    ("vfs.latency_us_p99", "us"),
    ("vfs.ops_per_virtual_s", "1/s"),
    ("page_cache.lookups_per_op", "1/op"),
    ("page_cache.hit_ratio", "ratio"),
    ("page_cache.evictions_per_op", "1/op"),
    ("page_cache.writeback_pages_per_op", "1/op"),
    ("fs.meta_lookups_per_op", "1/op"),
    ("flash_tier.hit_ratio", "ratio"),
    ("flash_tier.insertions_per_op", "1/op"),
    ("sched.sync_per_op", "1/op"),
    ("sched.async_per_op", "1/op"),
    ("sched.queue_delay_us_per_sync", "us"),
    ("sched.max_queue_depth", "count"),
    ("sched.throttle_stalls", "count"),
    ("device.busy_share", "ratio"),
    ("journal.commits_per_op", "1/op"),
    ("txn_log.blocks_logged_per_op", "1/op"),
    ("txn_log.stall_ms", "ms"),
)
HOST_LAYERS = (
    ("setup.machine_s", "s"),
    ("setup.files_s", "s"),
    ("setup.prewarm_s", "s"),
    ("engine.step_ns_p50", "ns"),
    ("engine.step_ns_p99", "ns"),
    ("engine.step_samples", "count"),
    ("engine.read.ns_p50", "ns"),
    ("engine.write.ns_p50", "ns"),
    ("engine.create.ns_p50", "ns"),
    ("engine.unlink.ns_p50", "ns"),
    ("engine.trace_overhead", "ratio"),
    ("device.access_ns", "ns"),
)


def fail(message):
    print("hostbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "sim", "machine.h")):
        fail("simulator sources not found under " + os.path.join(REPO, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def run_rep(workload, seed, traced, short, extra=()):
    """One repetition in a fresh process. `extra` passes further runner
    flags (the benchmark's own tests break the decorator with them)."""
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] if traced else []
    cmd += ["--short"] if short else []
    cmd += list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        fail("runner exited with %d: %s" % (proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repetitions(args, min_reps, plan):
    """Runs repetitions until --seconds have passed and at least `min_reps`
    ran. `plan(i)` says whether repetition i is traced."""
    reps = []
    start = time.monotonic()
    while len(reps) < min_reps or time.monotonic() - start < args.seconds:
        reps.append(run_rep(args.workload, args.seed, plan(len(reps)), args.short))
    return reps


def gate(reps):
    """Marks each repetition passed or not and returns (attempted, failed)."""
    base = reps[0]["digest"]
    attempted = failed = 0
    for rep in reps:
        rep["passed"] = rep["gate"] == "" and rep["digest"] == base
        attempted += rep["attempted"]
        failed += rep["failed_ops"] if rep["passed"] else rep["attempted"]
    return attempted, failed


def rate(reps):
    """Simulated ops per host CPU second in SimEngine::Run: the 90th
    percentile of the repetitions' rates.

    Not their median: identical repetitions run at rates that fall into
    distinct modes and drift with the host over minutes (README.md).
    Contention from other tenants only ever slows a repetition down, so the
    fast tail follows the simulator's own cost most closely."""
    rates = [r["ops"] / r["run_s"] for r in reps]
    return statistics.quantiles(rates, n=10, method="inclusive")[-1]


def end_to_end(untraced):
    return {
        "sim_ops_per_s": (rate(untraced), "1/s"),
        "setup_s": (statistics.median(r["setup_s"] for r in untraced), "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_kib"] / 1024.0 for r in untraced), "MiB"),
    }


def per_layer(untraced, traced):
    first = traced[0]
    metrics = {name: (first["layers"][name], unit) for name, unit in VIRTUAL_LAYERS}

    def host(pick):
        return statistics.median(pick(r) for r in traced)

    def op_p50(op):
        return lambda r: r["steps"][op]["p50_ns"] if op in r["steps"] else 0

    values = {
        "setup.machine_s": host(lambda r: r["host"]["setup.machine_s"]),
        "setup.files_s": host(lambda r: r["host"]["setup.files_s"]),
        "setup.prewarm_s": host(lambda r: r["host"]["setup.prewarm_s"]),
        "engine.step_ns_p50": host(lambda r: r["step_all"]["p50_ns"]),
        "engine.step_ns_p99": host(lambda r: r["step_all"]["p99_ns"]),
        "engine.step_samples": first["step_all"]["count"],
        "engine.read.ns_p50": host(op_p50("read")),
        "engine.write.ns_p50": host(op_p50("write")),
        "engine.create.ns_p50": host(op_p50("create")),
        "engine.unlink.ns_p50": host(op_p50("unlink")),
        "engine.trace_overhead": rate(untraced) / rate(traced) - 1.0,
        "device.access_ns": host(lambda r: r["host"]["device.access_ns"]),
    }
    for name, unit in HOST_LAYERS:
        metrics[name] = (values[name], unit)
    return metrics


def write_trace(args, traced):
    """Writes the last traced repetition's spans and per-op step aggregates."""
    last = traced[-1]
    path = os.path.join(BUILD, "trace", "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as out:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "traced_repetitions": len(traced), "spans": last["spans"],
                   "steps": last["steps"], "step_all": last["step_all"]}, out, indent=1)
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--short", action="store_true",
                        help="short virtual windows (the benchmark's own tests)")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if args.seed < 0:
        fail("--seed must be non-negative")
    build()

    if args.trace:
        # Alternating, so host drift hits both sides of the overhead ratio.
        reps = repetitions(args, 2 * MIN_REPS, lambda i: i % 2 == 1)
    else:
        reps = repetitions(args, MIN_REPS, lambda i: False)
        reps.append(run_rep(args.workload, args.seed, True, args.short))
    attempted, failed = gate(reps)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)

    first = reps[0]
    mix = first["mix"]
    print("workload %s seed %d: %d repetitions (%d traced), digest %s, %d ops each"
          % (args.workload, args.seed, len(reps), len(traced), first["digest"], first["ops"]))
    print("data pages served: RAM %.3f, flash %.3f, disk %.3f"
          % (mix["ram"], mix["flash"], mix["disk"]))
    for rep in reps:
        if not rep["passed"]:
            print("gate FAILED (%s): %s" % ("traced" if rep["traced"] else "untraced",
                                            rep["gate"] or "digest %s != %s"
                                            % (rep["digest"], first["digest"])))
    host_names = {name for name, _ in HOST_LAYERS}
    for name, (value, unit) in metrics.items():
        # A host time of exactly 0 means the window had no such span or I/O.
        shown = "n/a" if name in host_names and value == 0 else "%.6g" % value
        print("  %-36s %16s %s" % (name, shown, unit))
    if args.trace:
        print("trace written to " + write_trace(args, traced))
    print(json.dumps({
        "correct": all(r["passed"] for r in reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
