#!/usr/bin/env sh
# Docs lint, run from ctest (see tests/CMakeLists.txt):
#   1. every src/<module>/ directory must be mentioned in DESIGN.md, so
#      new subsystems cannot land undocumented;
#   2. every build/bench/NAME or build/examples/NAME command inside a
#      README code fence must correspond to a target declared in the
#      matching CMakeLists (add_executable(NAME ...) or NAME in a
#      target list), so the README never advertises targets that do
#      not build;
#   3. every bench_* target declared in bench/CMakeLists.txt and every
#      BENCH_*.json baseline checked into the repo root must be
#      mentioned in EXPERIMENTS.md, so no benchmark or result file
#      exists without a written account of what it measures;
#   4. every bench/example binary that parses a --precision flag must
#      have that flag documented in EXPERIMENTS.md next to its name,
#      so the reduced-precision ablations stay discoverable;
#   5. likewise for the intra-op threading ablation flags: a binary
#      parsing --cost-model or a --threads-per-* flag must be named in
#      EXPERIMENTS.md alongside documentation of that flag;
#   6. likewise for the stock-topology selector: a binary parsing
#      --preset= must be named in EXPERIMENTS.md alongside
#      documentation of that flag, so the preset names (cosmoflow-128
#      et al.) stay discoverable;
#   7. one timing site per layer: no file under src/dnn except
#      exec_context.cpp may contain CF_TRACE_SCOPE, Stopwatch,
#      ScopedTimer or now_ns, so a kernel cannot start timing itself
#      apart from the ExecContext dispatch (OBSERVABILITY.md);
#   8. every BENCH_*.json baseline in the repo root must carry a `host`
#      object with a `commit`, so no number is checked in without the
#      machine and the code it measured.
#
# Usage: check_docs.sh [repo_root]
set -u

root="${1:-$(dirname "$0")/..}"
cd "$root" || exit 1

fail=0

for dir in src/*/; do
  module="$(basename "$dir")"
  if ! grep -q "$module" DESIGN.md; then
    echo "FAIL: src/$module/ is not mentioned in DESIGN.md" >&2
    fail=1
  fi
done

# Extract code-fenced lines from README.md, keep tokens that look like
# build/bench/NAME or build/examples/NAME (either the binary path form
# used in run commands or a --target argument).
targets="$(awk '/^```/{fence=!fence; next} fence' README.md |
  grep -oE 'build/(bench|examples)/[A-Za-z0-9_]+' | sort -u)"

for target in $targets; do
  kind="$(printf '%s' "$target" | cut -d/ -f2)"
  name="$(printf '%s' "$target" | cut -d/ -f3)"
  if ! grep -qw "$name" "$kind/CMakeLists.txt"; then
    echo "FAIL: README references $target but $kind/CMakeLists.txt" \
         "declares no target named $name" >&2
    fail=1
  fi
done

# Every declared bench binary is documented in EXPERIMENTS.md.
benches="$(grep -oE 'bench_[a-z0-9_]+' bench/CMakeLists.txt | sort -u)"
for bench in $benches; do
  if ! grep -qw "$bench" EXPERIMENTS.md; then
    echo "FAIL: bench/CMakeLists.txt declares $bench but EXPERIMENTS.md" \
         "never mentions it" >&2
    fail=1
  fi
done

# Every checked-in benchmark baseline is documented in EXPERIMENTS.md.
for baseline in BENCH_*.json; do
  [ -e "$baseline" ] || continue
  if ! grep -qw "$baseline" EXPERIMENTS.md; then
    echo "FAIL: $baseline exists but EXPERIMENTS.md never mentions it" >&2
    fail=1
  fi
done

# Every binary exposing --precision is documented with it. The lint
# keys on the flag parser in the source, so adding the flag to a new
# bench without a written ablation account fails here.
for src in bench/*.cpp examples/*.cpp; do
  [ -e "$src" ] || continue
  grep -q -- '--precision=' "$src" || continue
  name="$(basename "$src" .cpp)"
  if ! grep -q -- "--precision" EXPERIMENTS.md; then
    echo "FAIL: $name parses --precision but EXPERIMENTS.md never" \
         "documents the flag" >&2
    fail=1
  fi
  if ! grep -qw "$name" EXPERIMENTS.md; then
    echo "FAIL: $name parses --precision but EXPERIMENTS.md never" \
         "mentions $name" >&2
    fail=1
  fi
done

# Intra-op threading ablations (DESIGN.md §2.6): any binary parsing
# --cost-model or a --threads-per-{stream,worker,rank} flag must be
# documented in EXPERIMENTS.md together with the flag it parses.
for src in bench/*.cpp examples/*.cpp; do
  [ -e "$src" ] || continue
  name="$(basename "$src" .cpp)"
  for flag in --cost-model --threads-per-stream --threads-per-worker \
              --threads-per-rank; do
    grep -q -- "$flag" "$src" || continue
    if ! grep -q -- "$flag" EXPERIMENTS.md; then
      echo "FAIL: $name parses $flag but EXPERIMENTS.md never" \
           "documents the flag" >&2
      fail=1
    fi
    if ! grep -qw "$name" EXPERIMENTS.md; then
      echo "FAIL: $name parses $flag but EXPERIMENTS.md never" \
           "mentions $name" >&2
      fail=1
    fi
  done
done

# Stock topology presets: any binary parsing --preset= must be
# documented in EXPERIMENTS.md together with the flag.
for src in bench/*.cpp examples/*.cpp; do
  [ -e "$src" ] || continue
  name="$(basename "$src" .cpp)"
  grep -q -- '--preset=' "$src" || continue
  if ! grep -q -- "--preset" EXPERIMENTS.md; then
    echo "FAIL: $name parses --preset but EXPERIMENTS.md never" \
         "documents the flag" >&2
    fail=1
  fi
  if ! grep -qw "$name" EXPERIMENTS.md; then
    echo "FAIL: $name parses --preset but EXPERIMENTS.md never" \
         "mentions $name" >&2
    fail=1
  fi
done

# One timing site: only the ExecContext dispatch reads the clock in
# src/dnn (its profile rows and trace spans are one measurement).
timed="$(grep -lE 'CF_TRACE_SCOPE|Stopwatch|ScopedTimer|now_ns' src/dnn/* |
  grep -v '^src/dnn/exec_context\.cpp$')"
for file in $timed; do
  echo "FAIL: $file reads the clock or opens a span; only" \
       "src/dnn/exec_context.cpp times layers" >&2
  fail=1
done

# Every baseline names its host and commit.
for baseline in BENCH_*.json; do
  [ -e "$baseline" ] || continue
  if ! python3 -c 'import json, sys
host = json.load(open(sys.argv[1])).get("host")
sys.exit(0 if isinstance(host, dict) and host.get("commit") else 1)' \
       "$baseline"; then
    echo "FAIL: $baseline has no host object with a commit" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "check_docs: OK"
