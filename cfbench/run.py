#!/usr/bin/env python3
"""Builds the cfbench harness from source and runs one benchmark workload.

    python3 cfbench/run.py --workload train-128 --seed 1 --seconds 30 --trace 0

Run it from the repository root. The harness and the program under test are
built with CMake into $CARGO_TARGET_DIR/cfbench (default .bench_build/cfbench);
build output goes to stderr. The harness prints its tables and a `host` line;
the last line of stdout is one JSON object,
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}},
whose metrics are those BENCHMARK.json declares for the pass, in its order.
The exit status is non-zero when a correctness gate fails or the build fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("train-128", "train-32x4", "serve-16")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
# A harness run must finish within 180 s; the build is not counted here.
RUN_TIMEOUT_S = 170


def fail(message):
    print("cfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        REPO_ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "cfbench")


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(REPO_ROOT, required)):
            fail("program sources not found (missing %s)" % required)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    steps = [configure, ["cmake", "--build", out, "--target", "cfbench",
                         "-j", jobs]]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=REPO_ROOT)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "cfbench")


def commit():
    """HEAD when the checkout is a git work tree, else "unknown"."""
    if not os.path.isdir(os.path.join(REPO_ROOT, ".git")):
        return "unknown"
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(REPO_ROOT))
    result = subprocess.run(["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True, env=env)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the program's build file and sources, path by path."""
    digest = hashlib.sha256()
    files = [os.path.join(REPO_ROOT, "CMakeLists.txt")]
    for top, dirs, names in os.walk(os.path.join(REPO_ROOT, "src")):
        dirs.sort()
        files += [os.path.join(top, n) for n in sorted(names)]
    for path in files:
        digest.update(os.path.relpath(path, REPO_ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def complete_result(result, traced):
    """Puts the result's metrics in BENCHMARK.json's order and checks their
    units. BENCHMARK.json is the one list of metrics: a per-layer metric of a
    layer the workload does not run reads 0, and so does an end-to-end metric
    of a run that already failed. Returns the names filled in."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if traced else "end_to_end"]
    got = result["metrics"]
    undeclared = set(got) - {m["name"] for m in declared}
    if undeclared:
        fail("metrics not in BENCHMARK.json: %s" % sorted(undeclared))
    metrics, filled = {}, []
    for m in declared:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                fail("metric %s is in %s, BENCHMARK.json says %s"
                     % (name, got[name]["unit"], unit))
            metrics[name] = got[name]
        elif traced or not result["correct"]:
            metrics[name] = {"value": 0, "unit": unit}
            filled.append(name)
        else:
            fail("end-to-end metric %s missing" % name)
    result["metrics"] = metrics
    return filled


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out-dir", os.path.dirname(binary),
               "--commit", commit(), "--source-digest", source_digest()]
    sys.stdout.flush()
    child = subprocess.Popen(command, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                             text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        fail("workload exceeded %d s and was stopped" % RUN_TIMEOUT_S)
    except BaseException:
        child.kill()
        child.communicate()
        raise
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        if child.returncode == 0:
            fail("the harness printed no result")
        sys.exit(child.returncode)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    filled = complete_result(result, args.trace == 1)
    if filled:
        print("not run by this workload, reported as 0: " + " ".join(filled))
    print(json.dumps(result))
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
