#include "inputs.hpp"

#include <algorithm>
#include <functional>
#include <string_view>

#include "core/dataset_gen.hpp"
#include "data/cfrecord.hpp"
#include "runtime/thread_pool.hpp"

namespace cfbench {

namespace {

cf::core::DatasetGenConfig gen_config(std::int64_t dhw, std::size_t sims,
                                      std::uint64_t seed) {
  // The repository's stock recipe for dhw^3 sub-volumes (as in
  // bench_fig3_breakdown): (2 dhw)^3 particles deposited on (2 dhw)^3
  // voxels in a 4 dhw Mpc/h box, split into 8 octants.
  cf::core::DatasetGenConfig gen;
  gen.simulations = sims;
  gen.sim.grid = {2 * dhw, 4.0 * static_cast<double>(dhw)};
  gen.sim.voxels = 2 * dhw;
  gen.seed = seed;
  return gen;
}

void keep_first(std::vector<cf::data::Sample>& samples, std::size_t take) {
  if (take != 0 && take < samples.size()) samples.resize(take);
}

}  // namespace

SimulatedSplit simulate_split(std::int64_t dhw, std::size_t train_sims,
                              std::size_t val_sims, std::size_t train_take,
                              std::size_t val_take, std::uint64_t seed) {
  const std::size_t sims = train_sims + val_sims;
  cf::core::DatasetGenConfig gen = gen_config(dhw, sims, seed);
  // split_by_group holds out floor(val_fraction * sims) whole boxes; the
  // half-box margin makes that exactly val_sims.
  gen.val_fraction =
      (static_cast<double>(val_sims) + 0.5) / static_cast<double>(sims);
  gen.test_fraction = 0.0;
  cf::runtime::ThreadPool pool;
  cf::core::GeneratedDataset dataset = cf::core::generate_dataset(gen, pool);
  SimulatedSplit split{std::move(dataset.train), std::move(dataset.val)};
  keep_first(split.train, train_take);
  keep_first(split.val, val_take);
  return split;
}

std::vector<cf::data::Sample> simulate_samples(std::int64_t dhw,
                                               std::size_t sims,
                                               std::uint64_t seed) {
  cf::core::DatasetGenConfig gen = gen_config(dhw, sims, seed);
  gen.val_fraction = 0.0;
  gen.test_fraction = 0.0;
  cf::runtime::ThreadPool pool;
  return cf::core::generate_dataset(gen, pool).train;
}

std::vector<cf::data::Sample> clone_all(
    const std::vector<cf::data::Sample>& samples) {
  std::vector<cf::data::Sample> out;
  out.reserve(samples.size());
  for (const cf::data::Sample& s : samples) out.push_back(s.clone());
  return out;
}

std::string verify_shards(const std::vector<std::string>& paths,
                          const std::vector<cf::data::Sample>& expected) {
  // Records are compared as a multiset of payload digests: shards hold
  // the samples in their seeded shuffle order, not in input order.
  const auto digest = [](std::span<const std::uint8_t> bytes) {
    return std::hash<std::string_view>{}(std::string_view(
        reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  };
  std::vector<std::size_t> want, got;
  for (const cf::data::Sample& s : expected) {
    want.push_back(digest(cf::data::serialize_sample(s)));
  }
  try {
    std::vector<std::uint8_t> payload;
    for (const std::string& path : paths) {
      cf::data::RecordReader reader(path);
      for (const std::uint64_t offset : reader.build_index()) {
        reader.read_at(offset, payload);
        got.push_back(digest(payload));
      }
    }
  } catch (const std::exception& e) {
    return std::string("shard check: ") + e.what();
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  if (got != want) {
    return "shard check: " + std::to_string(got.size()) +
           " records read back do not match the " +
           std::to_string(want.size()) + " samples written";
  }
  return {};
}

}  // namespace cfbench
