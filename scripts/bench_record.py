#!/usr/bin/env python3
"""Records cfbench results over a seed list, and A/Bs two checkouts.

    python3 scripts/bench_record.py record --workload train-128 --seeds 1-5
    python3 scripts/bench_record.py ab --workload serve-16 --seeds 11-20 \\
        --parent ../parent

`record` runs `cfbench/run.py --trace 0` in this checkout once per seed and
writes BENCH_<workload>.json: cfbench's host line, the seeds, and the median,
q1 and q3 of every end-to-end metric (with the per-seed values). A record
taken in a git checkout with uncommitted changes names its commit
"<HEAD>-dirty": a file cannot name the commit that adds it, and
`source_digest` then names the sources measured.
`ab` runs the parent checkout and this one (the change) seed by seed,
alternating which goes first, and prints each side's median [q1, q3] per
metric and the number of pairs the change won (ties count for neither side).
Every run lasts BENCHMARK.json's `run_seconds`, so both sides of an A/B run
for as long as the benchmark does. Both modes refuse a run that exits
non-zero or reports "failed" > 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    """Parses "1-3,7" into [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def benchmark(checkout):
    """(end-to-end metrics, run seconds) from the checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["run_seconds"]


def run(checkout, workload, seed, seconds):
    """One untraced cfbench run; returns (host, {metric: value})."""
    command = [sys.executable, os.path.join("cfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")),
                None)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    if proc.returncode != 0 or result.get("failed", 1) != 0:
        sys.stdout.write(proc.stdout)
        sys.exit("bench_record: %s seed %d in %s refused (exit %d, failed %s)"
                 % (workload, seed, checkout, proc.returncode,
                    result.get("failed")))
    return host, {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    """(q1, median, q3), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def dirty(checkout):
    """True when the git checkout has uncommitted changes to tracked files."""
    result = subprocess.run(["git", "-C", checkout, "status", "--porcelain",
                             "--untracked-files=no"],
                            capture_output=True, text=True)
    return result.returncode == 0 and result.stdout.strip() != ""


def record(args):
    metrics, seconds = benchmark(REPO_ROOT)
    host, runs = None, []
    for seed in args.seeds:
        host, values = run(REPO_ROOT, args.workload, seed, seconds)
        runs.append(values)
        print("seed %d: %s" % (seed, json.dumps(values)), flush=True)
    host = {k: v for k, v in host.items() if k != "seed"}
    if host["commit"] != "unknown" and dirty(REPO_ROOT):
        host["commit"] += "-dirty"
    out = {"workload": args.workload, "host": host, "seeds": args.seeds,
           "seconds": seconds, "metrics": {}}
    for m in metrics:
        values = [r[m["name"]] for r in runs]
        q1, med, q3 = quartiles(values)
        out["metrics"][m["name"]] = {"unit": m["unit"], "median": med,
                                     "q1": q1, "q3": q3, "values": values}
    path = os.path.join(REPO_ROOT, "BENCH_%s.json" % args.workload)
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print("wrote " + path)


def ab(args):
    sides = {"parent": os.path.abspath(args.parent), "change": REPO_ROOT}
    metrics, seconds = benchmark(sides["change"])
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            _, values = run(sides[side], args.workload, seed, seconds)
            runs[side].append(values)
            print("seed %d %s: %s" % (seed, side, json.dumps(values)),
                  flush=True)
    pairs = len(args.seeds)
    print("\n%s, %d pairs of %d s runs: parent -> change, median [q1, q3]"
          % (args.workload, pairs, seconds))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        won = sum(1 for a, b in zip(p, c)
                  if (b < a if lower else b > a))
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
        worse = (cm - pm if lower else pm - cm) / pm if pm else 0.0
        print("  %-22s %.4g [%.4g, %.4g] -> %.4g [%.4g, %.4g] %s; "
              "change won %d/%d; worse by %+.1f%% (bound %.0f%%)"
              % (name, pm, pq1, pq3, cm, cq1, cq3, m["unit"], won, pairs,
                 100 * worse, 100 * m["bound"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("record", "ab"):
        p = sub.add_parser(mode)
        p.add_argument("--workload", required=True)
        p.add_argument("--seeds", type=parse_seeds, required=True)
        if mode == "ab":
            p.add_argument("--parent", required=True)
    args = parser.parse_args()
    if args.mode == "record":
        record(args)
    else:
        ab(args)


if __name__ == "__main__":
    main()
