#!/usr/bin/env python3
"""Build and run the SDVM benchmark, then print its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Each run configures and builds the
perfbench package (the runtime from ../src plus the sdvm_perfbench program)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset. Only the first run compiles; later ones find the build current.

sdvm_perfbench measures the workload (see METRICS.md). This script prints every
metric it reports with the unit BENCHMARK.json gives it, then, as the last
line of stdout, one JSON object: correct, attempted, failed, and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

A run is correct when no program run failed, timed out or printed a wrong
result, the exact counts repeated across the run's repetitions, and every
end-to-end metric came out positive. An incorrect run still prints its
result line but exits with status 1. Without the sources next to this
directory, or when the build fails, it exits with status 1 and prints no
result.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a run must end within 180 s, build excluded


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds sdvm_perfbench; returns its path or None."""
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir],
        ["cmake", "--build", build_dir, "--target", "sdvm_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "sdvm_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2

    binary = build()
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("sdvm_perfbench timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("sdvm_perfbench failed with status %d" % done.returncode)
        return 1
    raw = json.loads(lines[-1])
    measured = raw["metrics"]

    e2e = spec["end_to_end"]
    layer = spec["per_layer"]
    missing = [m["name"] for m in e2e if m["name"] not in measured]
    not_positive = [m["name"] for m in e2e
                    if measured.get(m["name"], 0) <= 0]
    correct = (raw["failed"] == 0 and raw["deterministic"]
               and not missing and not not_positive)
    if missing or not_positive:
        log("end-to-end metrics missing or not positive: %s"
            % ", ".join(missing + not_positive))
    if not raw["deterministic"]:
        log("exact counts differed between repetitions with one seed")

    print("workload %s  seed %d  %.1f s  trace %d" % (
        args.workload, args.seed, time.monotonic() - started, args.trace))
    print("  %-32s %16.6g %s" % (
        "error_rate", raw["failed"] / max(raw["attempted"], 1), "ratio"))
    for title, group in (("end to end", e2e), ("per layer", layer)):
        print(" " + title)
        for m in group:
            value = measured.get(m["name"])
            shown = "n/a" if value is None else "%.6g" % value
            print("  %-32s %16s %s" % (m["name"], shown, m["unit"]))

    chosen = layer if args.trace else e2e
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0),
                                "unit": m["unit"]} for m in chosen},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
