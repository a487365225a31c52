// Helpers the workloads share.
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "runtime/thread_pool.hpp"
#include "workloads.hpp"

namespace cfbench {

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (purpose + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool write_run_trace(const RunOptions& options,
                     const std::vector<const SpanLane*>& lanes) {
  const std::string path = options.out_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".json";
  const std::string other =
      host_json(options.host, options.workload,
                workload_measures(options.workload), options.seed,
                options.seconds, options.traced);
  if (!write_trace(path, lanes, other)) return false;
  std::printf("spans written to %s\n", path.c_str());
  return true;
}

std::vector<double> concurrent_forward_ms(
    const cf::dnn::Network& net,
    const std::vector<const cf::tensor::Tensor*>& inputs, double seconds,
    std::size_t* ctx_bytes) {
  std::vector<std::vector<double>> ms(kInferenceStreams);
  std::exception_ptr error;
  std::mutex error_mutex;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kInferenceStreams; ++s) {
    threads.emplace_back([&, s] {
      try {
        cf::runtime::ThreadPool pool(1);
        cf::dnn::ExecContext ctx =
            net.make_context(cf::dnn::ExecMode::kInference);
        if (s == 0 && ctx_bytes != nullptr) *ctx_bytes = ctx.total_bytes();
        ctx.forward(*inputs[s % inputs.size()], pool);  // first touch
        for (std::size_t k = s; ms[s].size() < 2 || now_ns() < deadline;
             k += kInferenceStreams) {
          const std::int64_t t0 = now_ns();
          ctx.forward(*inputs[k % inputs.size()], pool);
          ms[s].push_back(1e-6 * static_cast<double>(now_ns() - t0));
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  std::vector<double> all;
  for (const auto& v : ms) all.insert(all.end(), v.begin(), v.end());
  return all;
}

}  // namespace cfbench
