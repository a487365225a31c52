// cfbench: the benchmark of the CosmoFlow reproduction.
//
//   cfbench --workload train-128|train-32x4|serve-16 --seed N --seconds S
//           --trace 0|1 --out-dir DIR [--commit SHA] [--source-digest HEX]
//
// --trace 0 measures the end-to-end metrics through the product entry
// points (core::Trainer::run, serve::Server::submit); --trace 1 is a
// separate run that times the calls into each layer and writes its
// spans to DIR. In-program span recording is off in both. The last
// line of stdout is the JSON result; the exit status is 1 when any
// correctness gate failed (the arithmetic self-tests included).
// METRICS.md defines every metric.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/trace.hpp"
#include "workloads.hpp"

namespace cfbench {

namespace {

const char* arg_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  cf::obs::Tracer::global().set_enabled(false);
  const int selftest_failures = run_selftests();

  RunOptions options;
  const char* workload = arg_value(argc, argv, "--workload");
  const char* seed = arg_value(argc, argv, "--seed");
  const char* seconds = arg_value(argc, argv, "--seconds");
  const char* trace = arg_value(argc, argv, "--trace");
  const char* out_dir = arg_value(argc, argv, "--out-dir");
  if (workload == nullptr || seed == nullptr || seconds == nullptr ||
      trace == nullptr || out_dir == nullptr) {
    std::fprintf(stderr, "usage: cfbench --workload W --seed N --seconds S "
                         "--trace 0|1 --out-dir DIR\n");
    return 2;
  }
  options.workload = workload;
  if (options.workload != "train-128" && options.workload != "train-32x4" &&
      options.workload != "serve-16") {
    std::fprintf(stderr, "cfbench: unknown workload %s\n", workload);
    return 2;
  }
  options.seed = std::strtoull(seed, nullptr, 10);
  options.seconds = std::max(1, std::atoi(seconds));
  options.traced = std::strcmp(trace, "1") == 0;
  options.out_dir = out_dir;
  const char* commit = arg_value(argc, argv, "--commit");
  const char* digest = arg_value(argc, argv, "--source-digest");
  options.host = probe_host(commit != nullptr ? commit : "unknown",
                            digest != nullptr ? digest : "unknown");

  std::printf("cfbench %s seed %llu, %d s, %s run\n", workload,
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.traced ? "traced (per-layer)" : "end-to-end");
  std::printf("host %s\n",
              host_json(options.host, options.workload,
                        workload_measures(options.workload), options.seed,
                        options.seconds, options.traced)
                  .c_str());
  std::fflush(stdout);

  Report report;
  if (selftest_failures != 0) {
    report.attempt(1);
    report.fail(1, "harness self-tests failed");
  }
  try {
    if (options.workload == "serve-16") {
      run_serve_workload(options, report);
    } else {
      run_train_workload(options, report);
    }
  } catch (const std::exception& e) {
    report.attempt(1);
    report.fail(1, std::string("workload threw: ") + e.what());
  }

  report.print_table(options.traced ? "per-layer metrics (traced run)"
                                    : "end-to-end metrics");
  std::printf("%s\n", report.result_json().c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace cfbench

int main(int argc, char** argv) { return cfbench::main(argc, argv); }
