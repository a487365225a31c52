// Workload inputs, made from the workload seed before set-up starts:
// simulated sub-volumes (cosmo), and for the I/O workload the cfrecord
// shards they are written to.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/sample.hpp"

namespace cfbench {

struct SimulatedSplit {
  std::vector<cf::data::Sample> train;
  std::vector<cf::data::Sample> val;
};

/// Runs `train_sims + val_sims` simulated boxes whose sub-volumes are
/// dhw^3 (the boxes are (2 dhw)^3 voxels with (2 dhw)^3 particles),
/// split by simulation; keeps the first `train_take` / `val_take`
/// sub-volumes of each split (0 keeps all).
SimulatedSplit simulate_split(std::int64_t dhw, std::size_t train_sims,
                              std::size_t val_sims, std::size_t train_take,
                              std::size_t val_take, std::uint64_t seed);

/// Every sub-volume of `sims` simulated boxes (no split).
std::vector<cf::data::Sample> simulate_samples(std::int64_t dhw,
                                               std::size_t sims,
                                               std::uint64_t seed);

/// Deep copies (InMemorySource takes its samples by value).
std::vector<cf::data::Sample> clone_all(
    const std::vector<cf::data::Sample>& samples);

/// Reads every record of every shard back with CRC and framing checks
/// and compares it with `expected` (in any order, as a multiset of
/// payloads). Returns an empty string when the shards are intact, or
/// what failed.
std::string verify_shards(const std::vector<std::string>& paths,
                          const std::vector<cf::data::Sample>& expected);

}  // namespace cfbench
