#!/usr/bin/env sh
# Sanitizer gates, unified: builds the repo with the requested
# sanitizer into build-<san>/ and runs the test suites that exercise
# the code that sanitizer is good at catching.
#
#   asan  — arena rebinding and the zero-free backward kernels: diff
#           ping-pong buffers, shared backward scratch, per-context
#           grad arenas, and the conv gather / pool direct-write
#           kernels whose correctness depends on exact in-bounds
#           full-coverage writes. The Precision suite rides this leg
#           with special weight: the bf16 conversion kernels
#           (vectorized array converters, the packed side arena, the
#           widen-on-load forward paths) are exactly the
#           pointer-width-changing code ASan is good at. The layer
#           unit suites (conv sweep and grad check, pooling, dense,
#           LeakyRelu) run here and on ubsan: they drive each layer
#           through a caller-owned StandaloneExec state.
#   tsan  — cross-thread hand-offs: the obs instruments under
#           concurrent writers, the MlComm collectives and helper
#           thread (sync + async bucketed allreduce), ThreadPool
#           dispatch, the overlapped trainer step loop, the Context
#           suite's concurrent inference streams sharing one immutable
#           Network, and the serving path (client threads -> request
#           queue -> worker streams) via the Serve suites, whose racing
#           clients run fp32, bf16 and cost-model auto worker layouts.
#   ubsan — pointer-arithmetic-heavy paths: fused conv/dense epilogue
#           kernels, blocked optimizer sweeps, layout/reorder code.
#
# Usage: check_sanitizers.sh [asan|tsan|ubsan|all] [repo_root]
set -eu

which="${1:-all}"
root="${2:-$(dirname "$0")/..}"
cd "$root" || exit 1

run_one() {
  san="$1"
  build_dir="build-$san"

  case "$san" in
    asan)
      cmake_flag="-DCOSMOFLOW_ASAN=ON"
      # halt_on_error stops at the first bad access;
      # detect_stack_use_after_return widens coverage to the kernels'
      # stack-local accumulator rows.
      env_name="ASAN_OPTIONS"
      env_value="halt_on_error=1 detect_stack_use_after_return=1"
      # Crc32c/Cfrecord/CfrecordFuzz ride this leg: the SSE4.2 CRC
      # kernel reads the buffer 8 bytes at a time, mmap views hand out
      # raw page-cache pointers, and the fuzz suite's corrupt length
      # fields must never drive an out-of-bounds read or oversized
      # allocation. Pipeline*/DataPath* run the ring's buffer swaps and
      # the mmap'd shard reads end to end.
      # Graph*.* rides every leg: slot-colored act/diff arenas, the
      # fan-in merge buffers, and shape-view weight aliasing are all
      # raw-offset arena arithmetic.
      filter='Memplan*.*:Network*.*:Context*.*:*BlockedConvVsReference.*:*AvgPoolVsReference.*:Conv3d*.*:Dense.*:LeakyRelu.*:Shapes/FusedConvVsUnfused*.*:FusedDenseVsUnfused*.*:Fusion*.*:AvgPool*.*:Flatten*.*:Threads/ConvThreadInvariance*.*:Precision*.*:Intraop*.*:*/Intraop*.*:Graph*.*:Crc32c*.*:Cfrecord*.*:CfrecordFuzz*.*:SampleSerialization*.*:Pipeline*.*:DataPath*.*'
      ;;
    tsan)
      cmake_flag="-DCOSMOFLOW_TSAN=ON"
      # halt_on_error makes the run fail on the first race instead of
      # only logging it; second_deadlock_stack improves lock-order
      # reports.
      env_name="TSAN_OPTIONS"
      env_value="halt_on_error=1 second_deadlock_stack=1"
      # Pipeline/PipelinePool/DataPath ride this leg: producer threads
      # racing on the ring reorder buffer and swapping their buffers
      # with the consumer's through its slots, and mapped shard readers
      # shared across I/O threads (concurrent const view_at).
      # Graph*.* rides this leg for the concurrent per-shape-context
      # smoke: parent + two shape views running inference from separate
      # threads over one shared weight arena
      # (GraphShapeView.ConcurrentPerShapeInference), plus the
      # multi-head serving path in GraphResidual.TrainsAndServes.
      # Metrics.* rides this leg for the Counter, Stat and Histogram
      # contention tests: four pool threads add to one instrument.
      filter='Metrics.*:MlComm*.*:MlCommAsync*.*:ThreadPool*.*:OverlapBitwise*.*:OverlapTelemetry*.*:TrainerDeterminism*.*:Context.ConcurrentInferenceStreamsMatchSerial:Context.InferenceForwardBitwiseMatchesTraining:Serve*.*:Precision*.*:Intraop*.*:*/Intraop*.*:Graph*.*:Pipeline*.*:PipelinePool*.*:DataPath*.*'
      ;;
    ubsan)
      cmake_flag="-DCOSMOFLOW_UBSAN=ON"
      # halt_on_error turns the first report into a failure instead of
      # a log line; print_stacktrace makes it actionable.
      env_name="UBSAN_OPTIONS"
      env_value="halt_on_error=1 print_stacktrace=1"
      # The CRC kernel's word loads and the cfrecord framing offsets
      # are exactly the unsigned/pointer arithmetic UBSan checks;
      # Pipeline*/DataPath* drive them through the whole data path.
      filter='Shapes/FusedConvVsUnfused*.*:FusedDenseVsUnfused*.*:Fusion*.*:*BlockedConvVsReference.*:*AvgPoolVsReference.*:Conv3d*.*:Dense.*:LeakyRelu.*:Threads/ConvThreadInvariance*.*:Adam*.*:LarcFixture*.*:LarcAdamIntegration*.*:SgdMomentum*.*:Network*.*:Context*.*:Flatten*.*:Precision*.*:Intraop*.*:*/Intraop*.*:Graph*.*:Crc32c*.*:Cfrecord*.*:CfrecordFuzz*.*:Pipeline*.*:DataPath*.*'
      ;;
    *)
      echo "unknown sanitizer '$san' (expected asan, tsan or ubsan)" >&2
      return 2
      ;;
  esac

  cmake -B "$build_dir" -S . \
    "$cmake_flag" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$build_dir" --target cosmoflow_tests -j "$(nproc)"

  env "$env_name=$env_value" \
    "$build_dir/tests/cosmoflow_tests" --gtest_filter="$filter"

  echo "$san: clean"
}

case "$which" in
  all)
    for san in asan tsan ubsan; do
      run_one "$san"
    done
    ;;
  asan|tsan|ubsan)
    run_one "$which"
    ;;
  *)
    echo "usage: check_sanitizers.sh [asan|tsan|ubsan|all] [repo_root]" >&2
    exit 2
    ;;
esac
