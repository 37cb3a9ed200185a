#!/usr/bin/env python3
"""Runs two interleaved sets of benchmark runs and reports their spread.

    python3 perfbench/steadiness.py

Run from the repository root. For every workload in BENCHMARK.json,
set A uses seeds 1..5 and set B seeds 101..105, each run as long as
BENCHMARK.json's run_seconds; runs alternate A, B, A, B so slow drift
of the machine lands on both sets alike. For each end-to-end metric it
prints each set's median and quartiles, the quartile spread of all ten
runs as a share of their median, and how far set B's median sits from
set A's. A bounded metric holds when both the spread and the difference
stay within its bound. The workload-specific "metric" lines each run
prints are shown the same way, without a bound. Exits 1 when a bounded
metric misses, when a run fails or is incorrect, or when the failed
share differs between the sets.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 5  # per set and workload


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    details = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            details[parts[1]] = (float(parts[2]), parts[3])
    return result, details


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(name, unit, a, b, bound):
    """Prints one metric's line; returns False when it misses its bound."""
    qa, qb = spread(a), spread(b)
    pooled = spread(a + b)
    rel_iqr = (pooled[2] - pooled[0]) / pooled[1] if pooled[1] else 0.0
    diff = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    ok = True
    verdict = ""
    if bound is not None:
        ok = rel_iqr <= bound and abs(diff) <= bound
        verdict = "ok" if ok else "MISS"
    print("  %-26s %-6s A %10.4g [%10.4g %10.4g]  B %10.4g [%10.4g %10.4g]"
          "  iqr/med %6.3f  B-A %+6.3f  bound %-5s %s" %
          (name, unit, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], rel_iqr,
           diff, "-" if bound is None else bound, verdict))
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = {"a": [1 + i for i in range(RUNS)],
            "b": [101 + i for i in range(RUNS)]}
    runs = {w: {"a": [], "b": []} for w in workloads}
    failed = {w: {"a": [], "b": []} for w in workloads}
    all_ok = True
    for i in range(RUNS):
        for side in ("a", "b"):
            for w in workloads:
                seed = sets[side][i]
                try:
                    result, details = run_once(w, seed, seconds)
                except (RuntimeError, subprocess.TimeoutExpired,
                        ValueError) as e:
                    print("run failed: %s" % e)
                    all_ok = False
                    continue
                if not result["correct"]:
                    print("%s seed %d: correct is false" % (w, seed))
                    all_ok = False
                runs[w][side].append((result, details))
                failed[w][side].append(result["failed"] / result["attempted"])
                print("%s %s seed %d done" % (w, side, seed), flush=True)

    for w in workloads:
        a_runs, b_runs = runs[w]["a"], runs[w]["b"]
        if len(a_runs) < 2 or len(b_runs) < 2:
            all_ok = False
            continue
        print("\n%s (%d + %d runs, %d s each)" %
              (w, len(a_runs), len(b_runs), seconds))
        for name in sorted(bounds):
            a = [r[0]["metrics"][name]["value"] for r in a_runs]
            b = [r[0]["metrics"][name]["value"] for r in b_runs]
            unit = a_runs[0][0]["metrics"][name]["unit"]
            all_ok &= describe(name, unit, a, b, bounds[name])
        for name in sorted(a_runs[0][1]):
            if name in bounds or not all(name in r[1] for r in a_runs + b_runs):
                continue
            a = [r[1][name][0] for r in a_runs]
            b = [r[1][name][0] for r in b_runs]
            describe(name, a_runs[0][1][name][1], a, b, None)
        fa, fb = sorted(set(failed[w]["a"])), sorted(set(failed[w]["b"]))
        print("  failed share A %s B %s" % (fa, fb))
        if fa != fb:
            all_ok = False
    print("\nsteady" if all_ok else "\nNOT steady")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
