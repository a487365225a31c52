#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace cfbench {

double nearest_rank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  if (!(q > 0.0 && q <= 100.0)) {
    throw std::invalid_argument("nearest_rank: q must be in (0, 100]");
  }
  const auto n = static_cast<double>(samples.size());
  // Rank 1..n; the tiny slack keeps q * n / 100 from rounding up past an
  // exact integer (e.g. 50% of 10 samples is rank 5, not 6).
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q / 100.0 * n - 1e-9)));
  const std::size_t index = std::min(rank, samples.size()) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double Ladder::rate(int rung) const {
  return base * std::exp2(static_cast<double>(rung) /
                          static_cast<double>(steps_per_octave));
}

LadderSearch search_ladder(const Ladder& ladder, int start_rung,
                           const Slo& slo,
                           const std::function<RungResult(double)>& probe) {
  LadderSearch search;
  const auto run = [&](int rung) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      search.probes.push_back(probe(ladder.rate(rung)));
      if (slo.met(search.probes.back())) {
        search.best_rung = std::max(search.best_rung, rung);
        if (search.best_rung == rung) {
          search.best_offered = search.probes.back().offered;
        }
        return true;
      }
    }
    return false;
  };
  int rung = std::clamp(start_rung, ladder.min_rung, ladder.max_rung);
  if (run(rung)) {
    while (rung < ladder.max_rung && run(rung + 1)) ++rung;
  } else {
    while (rung > ladder.min_rung && !run(--rung)) {
    }
  }
  if (search.best_rung >= 0) search.best_rate = ladder.rate(search.best_rung);
  return search;
}

}  // namespace cfbench
