// Collects a run's metrics and correctness verdicts, and prints them:
// a human-readable table, the host block, and the one-line JSON result
// that ends standard output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // observations behind the value
  std::string note;
};

/// The machine and build a result was measured on.
struct Host {
  std::size_t hardware_threads = 0;
  bool avx512f = false;
  bool avx512_bf16 = false;
  bool avx512_vnni = false;
  bool amx_tile = false;
  std::string commit;
  std::string source_digest;
  std::string build_type;
  std::string compiler;
};

Host probe_host(std::string commit, std::string source_digest);

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples, std::string note = "");

  /// Counts attempted operations and failures (a failed correctness
  /// gate counts as a failure of every operation it covers).
  void attempt(std::int64_t n) { attempted_ += n; }
  void fail(std::int64_t n, const std::string& why);

  bool correct() const { return failed_ == 0; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

  void print_table(const std::string& title) const;
  /// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
  std::string result_json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// JSON string literal with the characters JSON requires escaped.
std::string json_string(const std::string& s);
/// Shortest text that reads back as the same double.
std::string json_number(double v);

std::string host_json(const Host& host, const std::string& workload,
                      const std::string& measures, std::uint64_t seed,
                      int seconds, bool traced);

/// Peak resident set size of this process so far, in MB (1e6 bytes).
double peak_rss_mb();

}  // namespace cfbench
