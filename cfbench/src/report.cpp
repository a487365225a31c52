#include "report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>

namespace cfbench {

void Report::add(std::string name, double value, std::string unit,
                 std::size_t samples, std::string note) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit),
                            samples, std::move(note)});
}

void Report::fail(std::int64_t n, const std::string& why) {
  failed_ += n;
  failures_.push_back(why);
  std::fprintf(stderr, "cfbench: FAILED: %s\n", why.c_str());
}

void Report::print_table(const std::string& title) const {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-28s %14s %-10s %8s  %s\n", "metric", "value", "unit",
              "samples", "note");
  for (const Metric& m : metrics_) {
    std::printf("%-28s %14.6g %-10s %8zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }
  std::printf("attempted %lld, failed %lld (failed_frac %.6g)\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_),
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0);
  for (const std::string& why : failures_) {
    std::printf("  failure: %s\n", why.c_str());
  }
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Report::result_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i == 0 ? "" : ", ") + json_string(m.name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

std::string host_json(const Host& host, const std::string& workload,
                      const std::string& measures, std::uint64_t seed,
                      int seconds, bool traced) {
  const auto flag = [](bool b) { return b ? "true" : "false"; };
  char isa[160];
  std::snprintf(isa, sizeof isa,
                "{\"avx512f\": %s, \"avx512_bf16\": %s, \"avx512_vnni\": %s, "
                "\"amx_tile\": %s}",
                flag(host.avx512f), flag(host.avx512_bf16),
                flag(host.avx512_vnni), flag(host.amx_tile));
  return "{\"hardware_threads\": " + std::to_string(host.hardware_threads) +
         ", \"isa\": " + isa + ", \"commit\": " + json_string(host.commit) +
         ", \"source_digest\": " + json_string(host.source_digest) +
         ", \"build_type\": " + json_string(host.build_type) +
         ", \"compiler\": " + json_string(host.compiler) +
         ", \"workload\": " + json_string(workload) +
         ", \"measures\": " + json_string(measures) +
         ", \"seed\": " + std::to_string(seed) +
         ", \"seconds\": " + std::to_string(seconds) +
         ", \"trace\": " + flag(traced) + "}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

}  // namespace cfbench
