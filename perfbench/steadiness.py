#!/usr/bin/env python3
"""Steadiness check of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1]

Runs two sets of every workload of BENCHMARK.json, --runs times per set, each
run with its own --seed and the workload order alternating run by run. For
each set, workload and end-to-end metric it prints the median, the quartiles
(as statistics.quantiles(values, n=4) gives them) and the spread
(Q3 - Q1) / median next to the metric's bound. It then prints how far the
second set's median moved in the metric's worse direction, as a share of the
first.

Exits non-zero when a run fails or reports incorrect output, when a spread
exceeds its bound, when a second-set median is worse than the first by more
than the bound, or when the share of failed operations differs between the
sets.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    t0 = time.time()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    wall = time.time() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     done.returncode))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    for line in lines:
        if line.startswith("accounting "):
            result["details"] = json.loads(line[len("accounting "):])["details"]
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_set(spec, workloads, runs, seed_base, log):
    results = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = seed_base + i
            r = run_once(spec, w, seed)
            results[w].append(r)
            log("  %-14s seed %-5d correct=%s failed=%d/%d wall=%.1fs  %s" %
                (w, seed, r["correct"], r["failed"], r["attempted"],
                 r["wall_s"], " ".join("%s=%.4g" % (k, v["value"])
                                       for k, v in r["metrics"].items())))
    return results


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    def log(msg):
        print(msg, flush=True)

    ok = True
    sets = []
    for s in range(2):
        base = args.seed_base + 1000 * s
        log("set %d: %d runs per workload, seeds %d..%d, %ss each" %
            (s + 1, args.runs, base, base + args.runs - 1, spec["run_seconds"]))
        sets.append(run_set(spec, workloads, args.runs, base, log))

    for s, results in enumerate(sets):
        log("\nset %d" % (s + 1))
        log("%-14s %-16s %14s %14s %14s %8s %6s  %s" %
            ("workload", "metric", "median", "q1", "q3", "spread", "bound",
             "verdict"))
        for w in workloads:
            runs = results[w]
            for r in runs:
                if not r["correct"]:
                    ok = False
                    log("%-14s run with seed-order index %d reported "
                        "incorrect output" % (w, runs.index(r)))
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            log("%-14s failed share per run: %s" % (w, shares))
            for name, m in metrics.items():
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, sp = spread(values)
                within = sp <= m["bound"]
                verdict = ("ok" if sp <= m["bound"] / 3 else
                           "within bound" if within else "TOO WIDE")
                if not within:
                    ok = False
                log("%-14s %-16s %14.6g %14.6g %14.6g %8.4f %6.3f  %s" %
                    (w, name, med, q1, q3, sp, m["bound"], verdict))

    log("\nungated figures from the accounting line (median [min, max] over "
        "all runs)")
    for w in workloads:
        runs = [r for results in sets for r in results[w] if "details" in r]
        keys = sorted({k for r in runs for k in r["details"]})
        for k in keys:
            values = [r["details"][k] for r in runs if k in r["details"]]
            log("%-14s %-30s %14.6g [%.6g, %.6g]" %
                (w, k, statistics.median(values), min(values), max(values)))

    log("\nsecond set against the first (worse-direction change / bound)")
    for w in workloads:
        a, b = sets[0][w], sets[1][w]
        share_a = sorted({r["failed"] / r["attempted"] for r in a})
        share_b = sorted({r["failed"] / r["attempted"] for r in b})
        if share_a != share_b:
            ok = False
            log("%-14s failed share differs: %s vs %s" %
                (w, share_a, share_b))
        for name, m in metrics.items():
            m1 = statistics.median([r["metrics"][name]["value"] for r in a])
            m2 = statistics.median([r["metrics"][name]["value"] for r in b])
            worse = ((m2 - m1) / m1 if m["better"] == "lower"
                     else (m1 - m2) / m1)
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            if worse > m["bound"]:
                ok = False
            log("%-14s %-16s %14.6g -> %14.6g  worse by %+.4f  bound "
                "%.3f  %s" % (w, name, m1, m2, worse, m["bound"], verdict))

    log("\nsteadiness: %s" % ("PASS" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
