#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the library targets it
links) into .bench_build/perfbench on first use, then measures the workload
in its own process. With --trace 0 the result holds the end-to-end metrics,
with --trace 1 the per-layer ones. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Lines before it,
starting with '#', give the host fingerprint and every metric beside its
work count; the full record, spans included, goes to .bench_build/results/.

--smoke shrinks every workload so a run takes seconds (see test_smoke.py).
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("steady", "chaos_resume", "sharded", "montecarlo")

# Set-up time is taken in this many fresh processes (the measuring process
# is one of them) and reported as their median: a one-shot run pays it
# cold, and a single cold sample is too noisy to gate on.
SETUP_SAMPLES = 21
# Wall-clock limit per child process; the whole run must end in 180 s.
CHILD_TIMEOUT_S = 170

# Time metric -> the work count it is printed beside.
WORK_COUNTS = {
    "core.plan_s": "core.units_planned",
    "platform.deal_s": "platform.units_dealt",
    "platform.reassign_us": "platform.reassign_calls",
    "event_queue.bulk_build_s": "event_queue.bulk_events",
    "event_queue.pop_ns": "event_queue.events_popped",
    "event_queue.schedule_ns": "event_queue.events_scheduled",
    "quorum.tally_ns": "quorum.tallies",
    "rng.coin_ns": "rng.coins",
    "supervisor.campaign_s": "supervisor.events",
    "supervisor.residual_s": "supervisor.events",
    "checkpoint.capped_s": "journal.wal_records",
    "journal.read_s": "journal.bytes",
    "journal.resume_s_p50": "supervisor.events",
    "sharded.shard_s_max": "sharded.shards",
    "sim.replica_us": "sim.attempts_per_replica",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then brings the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail(f"no CMakeLists.txt in {ROOT}: run from a repository checkout")
    nproc = str(len(os.sched_getaffinity(0)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    command = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
               "-j", nproc]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the build inputs, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    inputs = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "perfbench"):
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            inputs += [os.path.join(directory, f) for f in sorted(files)]
    for path in inputs:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as source:
            digest.update(source.read())
    return digest.hexdigest()[:16]


def run_child(args, tmp_dir, extra):
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp-dir", tmp_dir, *extra]
    if args.smoke:
        command.append("--smoke")
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload={args.workload}: timed out after {CHILD_TIMEOUT_S} s")
    lines = result.stdout.strip().splitlines()
    try:
        return result.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"workload={args.workload}: exit {result.returncode}, no result")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk sizes: checks, not measurements")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    results_dir = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_out = os.path.join(results_dir, stem + ".spans.json")

    # Journals live in a per-process directory, removed on every exit path.
    with tempfile.TemporaryDirectory(dir=BUILD_ROOT, prefix="tmp-") as tmp_dir:
        setup_samples = []
        failed = 0
        attempted = 0

        def sample_setup(count):
            nonlocal failed, attempted
            for _ in range(count):
                code, setup = run_child(args, tmp_dir, ["--setup-only"])
                setup_samples.append(setup["setup_s"])
                attempted += 1
                failed += int(setup["failed"] != 0 or code != 0)

        # Half the set-up samples before the measuring process and half
        # after, so the median spans the run instead of one moment of it.
        extra_samples = SETUP_SAMPLES - 1 if args.trace == 0 else 0
        sample_setup(extra_samples // 2)
        extra = ["--trace-out", trace_out] if args.trace else []
        code, sheet = run_child(args, tmp_dir, extra)
        sample_setup(extra_samples - extra_samples // 2)

    metrics = sheet["metrics"]
    # A run that failed before its op loop reports no metrics.
    if args.trace == 0 and "setup_s" in metrics:
        setup_samples.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup_samples)
    attempted += sheet["attempted"]
    failed += sheet["failed"]
    correct = failed == 0 and code == 0

    host = {
        "cpu_model": cpu_model(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        **sheet["build"],
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }
    record = {"host": host, "correct": correct, "attempted": attempted,
              "failed": failed, "failures": sheet["failures"],
              "notes": sheet["notes"], "setup_samples_s": setup_samples,
              "metrics": metrics}
    with open(os.path.join(results_dir, stem + ".json"), "w",
              encoding="utf-8") as out:
        json.dump(record, out, indent=2)

    print("# host " + json.dumps(host, sort_keys=True))
    print("# notes " + json.dumps(sheet["notes"], sort_keys=True))
    for name in sorted(metrics):
        line = f"# {name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}"
        work = WORK_COUNTS.get(name)
        if work in metrics:
            line += f"  [{work} = {metrics[work]['value']:.6g}]"
        print(line)
    for failure in sheet["failures"]:
        print(f"# FAILED {failure}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
