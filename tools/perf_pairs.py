#!/usr/bin/env python3
"""Compares the host-cost benchmark of two source trees in alternating pairs.

    python3 tools/perf_pairs.py --parent DIR --change DIR \\
        [--pairs N] [--seconds S] [--seeds N ...] [--workloads W ...] \\
        [--build-root DIR]
    python3 tools/perf_pairs.py --self-test

Each tree's own `perfbench/run.py` builds and runs its benchmark, with
$CARGO_TARGET_DIR set to a build directory of its own (`DIR/.bench_build`,
or `--build-root/parent` and `--build-root/change`), so the two builds never
share objects. Pair i runs the parent first when i is even and the change
first when i is odd, for every seed and workload.

For each seed, workload and end-to-end metric of BENCHMARK.json it prints
the parent's median and quartiles, the change's median, the relative
change of the medians, the change's wins out of the pairs (a tie counts
for neither side) and a verdict:

  gain     the change won at least 9 in 10 pairs and the medians differ by
           more than the parent's interquartile range;
  worse    the change's median is worse than the parent's by more than the
           metric's bound in BENCHMARK.json;
  -        neither.

It also prints each side's result digests, which must agree for a change
that claims identical behaviour. The script reads the trees and never
writes into their `perfbench/` directories.
"""
import argparse
import contextlib
import io
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
WIN_SHARE = 0.9


def load_metrics(path):
    """The end-to-end metrics of BENCHMARK.json: [(name, better, bound)]."""
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]


def parse_run(stdout):
    """Returns (metric values, result digest) from one run.py stdout; the
    last line is the benchmark's JSON result."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("empty benchmark output")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise ValueError("benchmark reported an incorrect run")
    digest = None
    for line in lines:
        m = re.search(r"result digest ([0-9a-f]+)", line)
        if m:
            digest = m.group(1)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, digest


def order(pair):
    """Which side runs first in pair `pair`: they alternate."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def collect(run, pairs, seeds, workloads):
    """Runs every pair; `run(side, workload, seed)` returns run.py's stdout.
    Returns {(seed, workload): {side: [(values, digest) per pair]}}."""
    results = {(s, w): {side: [] for side in SIDES}
               for s in seeds for w in workloads}
    for pair in range(pairs):
        for seed in seeds:
            for workload in workloads:
                for side in order(pair):
                    out = run(side, workload, seed)
                    results[(seed, workload)][side].append(parse_run(out))
    return results


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent, change, better, bound):
    """One metric over the pairs: parent[i] and change[i] are pair i's."""
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gain = (wins >= WIN_SHARE * len(parent) and sign * (med_c - med_p) > 0
            and abs(med_c - med_p) > q3 - q1)
    rel = (med_c / med_p - 1.0) if med_p else 0.0
    worse = sign * rel < -bound
    verdict = "gain" if gain else "worse" if worse else "-"
    return {"parent_median": med_p, "parent_q1": q1, "parent_q3": q3,
            "change_median": med_c, "rel": rel, "wins": wins,
            "pairs": len(parent), "verdict": verdict}


def report(results, metrics):
    """Prints one table per seed and workload; returns the rows."""
    rows = {}
    for (seed, workload), sides in results.items():
        print(f"\n{workload}, seed {seed}, {len(sides['parent'])} pairs")
        for side in SIDES:
            digests = sorted({d for _, d in sides[side] if d})
            print(f"  {side} digest: {', '.join(digests) or 'none'}")
        digests = [{d for _, d in sides[side]} for side in SIDES]
        print(f"  digests equal: {'yes' if digests[0] == digests[1] else 'NO'}")
        print(f"  {'metric':24s} {'parent med':>12s} {'parent Q1..Q3':>25s} "
              f"{'change med':>12s} {'delta':>8s} {'wins':>6s}  verdict")
        for name, better, bound in metrics:
            if name not in sides["parent"][0][0]:
                continue
            row = compare([v[name] for v, _ in sides["parent"]],
                          [v[name] for v, _ in sides["change"]],
                          better, bound)
            rows[(seed, workload, name)] = row
            quart = f"{row['parent_q1']:.6g}..{row['parent_q3']:.6g}"
            print(f"  {name:24s} {row['parent_median']:12.6g} {quart:>25s} "
                  f"{row['change_median']:12.6g} {row['rel'] * 100:+7.2f}% "
                  f"{row['wins']:>3d}/{row['pairs']:<2d}  {row['verdict']}")
    return rows


def tree_runner(trees, build_dirs, seconds):
    def run(side, workload, seed):
        env = dict(os.environ, CARGO_TARGET_DIR=build_dirs[side])
        cmd = [sys.executable, os.path.join(trees[side], "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
        proc = subprocess.run(cmd, cwd=trees[side], env=env,
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{side} {workload} seed {seed}: exit "
                               f"{proc.returncode}")
        print(f"ran {side} {workload} seed {seed}", file=sys.stderr)
        return proc.stdout
    return run


# ---------------------------------------------------------------------------
# Self-test on canned benchmark outputs.

def canned(ns, rss=10.0, digest="00ff", correct=True):
    """A run.py stdout: build noise, the digest line, then the JSON."""
    metrics = {"ns_per_event": {"value": ns, "unit": "ns"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return ("-- Configuring done\n[1/2] Linking CXX executable perfbench\n"
            f"  result digest {digest}\n" +
            json.dumps({"correct": correct, "attempted": 2, "failed": 0,
                        "metrics": metrics}) + "\n")


def self_test():
    metrics = [("ns_per_event", "lower", 0.25), ("peak_rss_mb", "lower", 0.1)]
    failures = []

    def check(what, ok):
        if not ok:
            failures.append(what)

    # Sides alternate: pair 0 parent first, pair 1 change first.
    calls = []

    def recording(side, workload, seed):
        calls.append((side, workload, seed))
        return canned(100.0)
    collect(recording, 2, [1], ["faulted"])
    check("alternating order", [c[0] for c in calls] ==
          ["parent", "change", "change", "parent"])

    def run_table(parent_ns, change_ns, change_rss=10.0, change_digest="00ff"):
        feed = {"parent": iter(parent_ns), "change": iter(change_ns)}

        def fake(side, workload, seed):
            rss = change_rss if side == "change" else 10.0
            digest = change_digest if side == "change" else "00ff"
            return canned(next(feed[side]), rss, digest)
        with contextlib.redirect_stdout(io.StringIO()):
            return report(collect(fake, len(parent_ns), [1], ["faulted"]),
                          metrics)

    parent = [100, 102, 98, 101, 99, 103, 97, 100, 101, 99]
    key = (1, "faulted", "ns_per_event")
    # Ten wins of ten, medians 10 apart against a parent IQR of 2: a gain.
    rows = run_table(parent, [p - 10 for p in parent])
    check("clear gain", rows[key]["verdict"] == "gain"
          and rows[key]["wins"] == 10)
    # Eight wins of ten is below 9 in 10.
    change = [p - 10 for p in parent[:8]] + [p + 1 for p in parent[8:]]
    rows = run_table(parent, change)
    check("8 of 10 is no gain", rows[key]["verdict"] == "-"
          and rows[key]["wins"] == 8)
    # Nine wins, but the medians differ by less than the parent's IQR.
    change = [p - 1 for p in parent[:9]] + [parent[9]]
    rows = run_table(parent, change)
    check("within IQR is no gain", rows[key]["verdict"] == "-"
          and rows[key]["wins"] == 9)
    # Ties count for neither side.
    rows = run_table(parent, list(parent))
    check("ties", rows[key]["wins"] == 0 and rows[key]["verdict"] == "-")
    # A 30% slowdown passes the 25% bound; 15% more memory passes 10%.
    rows = run_table(parent, [p * 1.3 for p in parent], change_rss=11.5)
    check("worse than bound", rows[key]["verdict"] == "worse" and
          rows[(1, "faulted", "peak_rss_mb")]["verdict"] == "worse")
    # Higher-is-better metrics count wins the other way.
    row = compare([1.0, 2.0, 3.0], [2.0, 3.0, 4.0], "higher", 0.25)
    check("higher is better", row["wins"] == 3)
    # Digests and metrics come out of the canned output; a run that is not
    # correct is refused.
    values, digest = parse_run(canned(123.5, digest="abcd"))
    check("parse", values["ns_per_event"] == 123.5 and digest == "abcd")
    try:
        parse_run(canned(1.0, correct=False))
        check("incorrect run refused", False)
    except ValueError:
        pass
    check("BENCHMARK.json readable",
          any(m[0] == "ns_per_event"
              for m in load_metrics(os.path.join(ROOT, "BENCHMARK.json"))))

    for f in failures:
        print(f"self-test FAILED: {f}")
    print("perf_pairs self-test: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="source tree of the parent commit")
    parser.add_argument("--change", help="source tree of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workloads", nargs="+",
                        default=["stream", "request", "faulted"])
    parser.add_argument("--build-root",
                        help="put the builds in DIR/parent and DIR/change")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        parser.error("--parent and --change are required")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    if args.build_root:
        build_dirs = {s: os.path.abspath(os.path.join(args.build_root, s))
                      for s in SIDES}
    else:
        build_dirs = {s: os.path.join(trees[s], ".bench_build") for s in SIDES}
    metrics = load_metrics(os.path.join(trees["change"], "BENCHMARK.json"))
    run = tree_runner(trees, build_dirs, args.seconds)
    report(collect(run, args.pairs, args.seeds, args.workloads), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
