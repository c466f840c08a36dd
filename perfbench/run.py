#!/usr/bin/env python3
"""Builds and runs the ES2 host-cost benchmark.

    python3 perfbench/run.py --workload stream|request|faulted \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] \
        [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
simulator libraries and the benchmark binary with CMake into the directory
named by $CARGO_TARGET_DIR (default `.bench_build`); later calls rebuild only
what changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result.

`--workload all` runs every workload on the given seed and on the held-out
seed, each in its own process, and checks across workloads that each layer's
count is highest on the workload chosen to stress it (with --trace 1).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["stream", "request", "faulted"]
HELD_OUT_SEED = 20171  # also in main.cpp; never used while tuning

# (layer metric, workload that must show its highest per-event count)
STRESS = [
    ("virtio.vq_added_per_event", "stream"),
    ("apps.ops_per_event", "request"),
    ("fault.injected_per_event", "faulted"),
]
# Counts that must read exactly zero outside `faulted`.
FAULT_ONLY = ["fault.injected_per_event", "recovery.recovered_ratio",
              "snapshot.epochs", "harness.audit_sweeps"]


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the benchmark; returns the binary path, or
    None when the sources are missing or do not build."""
    out = build_dir()
    cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed JSON result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", os.path.join(build_dir(), "out")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


def run_all(binary, args):
    """Every workload on the given and the held-out seed, plus the
    cross-workload stress checks of the traced run."""
    ok = True
    for seed in dict.fromkeys([args.seed, HELD_OUT_SEED]):
        results = {}
        for w in WORKLOADS:
            code, result = run_one(binary, w, seed, args.seconds, args.trace)
            if code != 0 or result is None or not result["correct"]:
                print(f"FAIL {w} seed {seed}: exit {code}")
                ok = False
                continue
            results[w] = result["metrics"]
        print(f"summary, seed {seed}:")
        for w, metrics in results.items():
            shown = ("ns_per_event", "allocs_per_event",
                     "alloc_bytes_per_event", "trace.overhead_ns_per_event")
            print(f"  {w:8s} " + "  ".join(
                f"{k}={metrics[k]['value']:.6g}"
                for k in shown if k in metrics))
        if args.trace != 1 or len(results) != len(WORKLOADS):
            continue
        for metric, stressed in STRESS:
            values = {w: results[w][metric]["value"] for w in WORKLOADS}
            top = max(values, key=values.get)
            good = top == stressed
            ok &= good
            print(f"{'PASS' if good else 'FAIL'} {metric} highest on "
                  f"{stressed}: {values}")
        for metric in FAULT_ONLY:
            for w in WORKLOADS:
                if w == "faulted":
                    continue
                good = results[w][metric]["value"] == 0
                ok &= good
                print(f"{'PASS' if good else 'FAIL'} {metric} == 0 on {w}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload or --self-test is required")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([binary, "--self-test",
                               "--seed", str(args.seed)]).returncode
    if args.workload == "all":
        return run_all(binary, args)
    code, _ = run_one(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
