// The benchmark's workloads. Each fills a Report with the metrics of
// its pass: every end-to-end metric (untraced run), or the per-layer
// metrics of the layers it runs (traced run; run.py reports the others
// as 0).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dnn/network.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace cfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool traced = false;
  std::string out_dir;  // temporary shards and the span trace
  Host host;
};

/// Independent sub-seed `purpose` of the workload seed (splitmix64).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t purpose);

/// True when two outputs are equal bit for bit.
bool same_bits(const std::vector<float>& a, const std::vector<float>& b);

/// Concurrent inference streams, as cf::serve runs them: this many
/// inference contexts over one network, each with a one-thread pool.
inline constexpr std::size_t kInferenceStreams = 3;

/// ExecContext::forward on kInferenceStreams concurrent contexts over
/// `net`, cycling through `inputs` for `seconds` (at least two timed
/// forwards per stream, after one untimed). Returns per-forward
/// milliseconds; `ctx_bytes`, when not null, gets one context's
/// total_bytes().
std::vector<double> concurrent_forward_ms(
    const cf::dnn::Network& net,
    const std::vector<const cf::tensor::Tensor*>& inputs, double seconds,
    std::size_t* ctx_bytes);

void run_train_workload(const RunOptions& options, Report& report);
void run_serve_workload(const RunOptions& options, Report& report);

/// What the workload measures: "compute" (inputs held in memory) or
/// "compute+io" (inputs read back from cfrecord shards).
std::string workload_measures(const std::string& workload);

/// Writes the traced run's spans to <out_dir>/trace-<workload>-<seed>.json
/// and prints where; false when the file cannot be written.
bool write_run_trace(const RunOptions& options,
                     const std::vector<const SpanLane*>& lanes);

/// Runs the harness's arithmetic self-tests; returns the failure count.
int run_selftests();

}  // namespace cfbench
