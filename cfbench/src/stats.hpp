// The harness's own arithmetic: exact percentiles and the rate-ladder
// search. Both are checked by the self-tests (selftest.cpp).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace cfbench {

/// Exact nearest-rank percentile, q in (0, 100]: the smallest sample
/// such that at least q% of the samples are <= it. 0 for no samples.
double nearest_rank(std::vector<double> samples, double q);

inline double median(std::vector<double> samples) {
  return nearest_rank(std::move(samples), 50.0);
}

double mean(const std::vector<double>& samples);

/// One probe of the serving rate ladder.
struct RungResult {
  double rate = 0.0;        // the rung's nominal rate, requests per second
  double offered = 0.0;     // requests actually offered per second
  double p99_seconds = 0.0;
  std::size_t shed = 0;     // requests refused by admission control
  bool backlog_growing = false;
};

/// The service-level objective a rung must meet.
struct Slo {
  double p99_seconds = 10e-3;
  bool met(const RungResult& r) const {
    return r.p99_seconds <= p99_seconds && r.shed == 0 &&
           !r.backlog_growing;
  }
};

/// The geometric ladder: rung k offers base * 2^(k / steps_per_octave).
struct Ladder {
  double base = 2000.0;
  int steps_per_octave = 16;
  int min_rung = 0;
  int max_rung = 64;
  double rate(int rung) const;
};

struct LadderSearch {
  int best_rung = -1;  // -1 when no rung met the objective
  double best_rate = 0.0;     // nominal rate of the best rung
  double best_offered = 0.0;  // offered rate of its probe that met the SLO
  std::vector<RungResult> probes;  // in probe order
};

/// Steps the ladder from `start_rung`: upward while rungs meet the
/// objective (stopping at the first that misses), or downward from a
/// missing start until one meets it. `probe` runs one rung; a rung that
/// misses is probed once more and misses only if both probes miss, so
/// one transient stall does not end the search.
LadderSearch search_ladder(const Ladder& ladder, int start_rung,
                           const Slo& slo,
                           const std::function<RungResult(double)>& probe);

}  // namespace cfbench
