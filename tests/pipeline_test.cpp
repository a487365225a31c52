// Zero-copy data path integration tests (DESIGN.md §2.7).
//
// Three invariants pin the mmap + ring-recycled pipeline against the
// seed ifstream + allocate-per-sample path:
//
//  1. Corruption safety: any single bit flip or truncation of a shard
//     surfaces as CorruptRecordError in *both* reader modes — never a
//     silent wrong sample, never a giant allocation.
//  2. Bounded allocation: the reads that start from an empty buffer
//     never exceed the provable in-flight bound
//     queue_capacity + io_threads + 1 (ring slots + one buffer per
//     producer + the consumer-held buffer), across any number of
//     epochs, in a bare Pipeline and in the Trainer; after the first
//     epoch, an epoch's first read never starts from one.
//  3. Identity: delivered bytes — and therefore the whole training
//     trajectory — are bitwise identical at every io_threads ×
//     reader-mode combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/dataset_gen.hpp"
#include "core/topology.hpp"
#include "core/trainer.hpp"
#include "data/cfrecord.hpp"
#include "data/dataset.hpp"
#include "data/pipeline.hpp"
#include "data/sample.hpp"
#include "runtime/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace cf::data {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("cf_pipe_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
  static inline int counter_ = 0;
};

Sample make_sample(std::uint64_t seed, std::int64_t dhw = 4) {
  runtime::Rng rng(seed);
  Sample sample;
  sample.volume = tensor::Tensor(tensor::Shape{1, dhw, dhw, dhw});
  tensor::fill_normal(sample.volume, rng, 0.0f, 1.0f);
  sample.target = {rng.uniform(), rng.uniform(), rng.uniform()};
  return sample;
}

// ---------------------------------------------------------------------
// Corruption fuzz: framing must catch every single-bit flip and every
// mid-record truncation, identically in stream and mmap modes.

/// Writes three records (payload sizes 5, 0, 33) to `path`. With 12
/// header + 4 footer bytes of framing the records end at byte offsets
/// 21, 37 and 86 — the only prefixes at which a truncated file may
/// read back cleanly.
constexpr std::uint64_t kFuzzBoundaries[] = {0, 21, 37, 86};

void write_fuzz_file(const std::string& path) {
  RecordWriter writer(path);
  std::vector<std::uint8_t> payload(5);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(0xA0 + i);
  }
  writer.write(payload);
  writer.write({});
  payload.resize(33);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  writer.write(payload);
  writer.close();
}

/// Drains every record; returns the record count on clean end-of-file
/// or nullopt if CorruptRecordError was raised.
std::optional<std::size_t> drain(const std::string& path, ReaderMode mode) {
  try {
    RecordReader reader(path, mode);
    std::vector<std::uint8_t> payload;
    std::size_t count = 0;
    while (reader.read(payload)) ++count;
    return count;
  } catch (const CorruptRecordError&) {
    return std::nullopt;
  }
}

TEST(CfrecordFuzz, EveryBitFlipRaisesCorruptionInBothModes) {
  TempDir dir;
  const std::string pristine = (dir.path() / "ok.cfrecord").string();
  const std::string mutated = (dir.path() / "bad.cfrecord").string();
  write_fuzz_file(pristine);
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(pristine, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(bytes.size(), 86u);

  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto flipped = bytes;
    flipped[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    {
      std::ofstream out(mutated, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(flipped.data()),
                static_cast<std::streamsize>(flipped.size()));
    }
    for (const ReaderMode mode : {ReaderMode::kStream, ReaderMode::kMmap}) {
      EXPECT_EQ(drain(mutated, mode), std::nullopt)
          << "bit flip at byte " << i << " undetected in mode "
          << static_cast<int>(mode);
    }
  }
  // Sanity: the pristine file reads all three records in both modes.
  EXPECT_EQ(drain(pristine, ReaderMode::kStream), 3u);
  EXPECT_EQ(drain(pristine, ReaderMode::kMmap), 3u);
}

TEST(CfrecordFuzz, TruncationsReadCleanlyOnlyAtRecordBoundaries) {
  TempDir dir;
  const std::string pristine = (dir.path() / "ok.cfrecord").string();
  const std::string cut = (dir.path() / "cut.cfrecord").string();
  write_fuzz_file(pristine);

  for (std::uint64_t len = 0; len <= 86; ++len) {
    fs::copy_file(pristine, cut, fs::copy_options::overwrite_existing);
    fs::resize_file(cut, len);
    const bool at_boundary =
        std::find(std::begin(kFuzzBoundaries), std::end(kFuzzBoundaries),
                  len) != std::end(kFuzzBoundaries);
    for (const ReaderMode mode : {ReaderMode::kStream, ReaderMode::kMmap}) {
      const auto result = drain(cut, mode);
      if (at_boundary) {
        // A prefix ending exactly on a record boundary is a valid
        // (shorter) file: the records before the cut read back.
        const std::size_t records =
            len == 0 ? 0 : (len == 21 ? 1 : (len == 37 ? 2 : 3));
        EXPECT_EQ(result, records) << "truncation at " << len;
      } else {
        EXPECT_EQ(result, std::nullopt)
            << "mid-record truncation at " << len
            << " undetected in mode " << static_cast<int>(mode);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Buffer recycling through the ring.

/// An in-memory source whose readers record the reads handed an empty
/// Sample: each one allocates a fresh volume buffer.
class MissCountingSource final : public SampleSource {
 public:
  explicit MissCountingSource(std::vector<Sample> samples)
      : inner_(std::move(samples)) {}

  std::size_t size() const override { return inner_.size(); }
  std::unique_ptr<SampleReader> make_reader() const override {
    return std::make_unique<Reader>(inner_.make_reader(), *this);
  }
  std::size_t misses() const {
    const std::lock_guard lock(mutex_);
    return missed_.size();
  }
  /// The indices read into an empty Sample since the last call.
  std::vector<std::size_t> take_missed() {
    const std::lock_guard lock(mutex_);
    return std::exchange(missed_, {});
  }

 private:
  class Reader final : public SampleReader {
   public:
    Reader(std::unique_ptr<SampleReader> inner,
           const MissCountingSource& source)
        : inner_(std::move(inner)), source_(source) {}
    Sample get(std::size_t index) override { return inner_->get(index); }
    void get_into(std::size_t index, Sample& out) override {
      if (out.volume.empty()) {
        const std::lock_guard lock(source_.mutex_);
        source_.missed_.push_back(index);
      }
      inner_->get_into(index, out);
    }

   private:
    std::unique_ptr<SampleReader> inner_;
    const MissCountingSource& source_;
  };

  InMemorySource inner_;
  mutable std::mutex mutex_;
  mutable std::vector<std::size_t> missed_;
};

/// Runs `epochs` unshuffled epochs over `count` samples, reusing one
/// Sample across every next() call, and returns each epoch's missed
/// indices. An epoch's reads all finish before its last next() returns,
/// so none is charged to the wrong epoch.
std::vector<std::vector<std::size_t>> missed_per_epoch(
    std::size_t count, std::size_t queue_capacity, std::size_t io_threads,
    int epochs) {
  std::vector<Sample> samples;
  for (std::size_t i = 0; i < count; ++i) {
    samples.push_back(make_sample(300 + i));
  }
  MissCountingSource source(std::move(samples));
  PipelineConfig config;
  config.queue_capacity = queue_capacity;
  config.io_threads = io_threads;
  Pipeline pipeline(source, config);

  std::vector<std::size_t> indices(count);
  for (std::size_t i = 0; i < count; ++i) indices[i] = i;
  Sample sample;
  std::vector<std::vector<std::size_t>> missed;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    pipeline.start_epoch(indices);
    std::size_t delivered = 0;
    while (pipeline.next(sample)) ++delivered;
    EXPECT_EQ(delivered, count);
    missed.push_back(source.take_missed());
  }
  return missed;
}

std::size_t total_misses(const std::vector<std::vector<std::size_t>>& e) {
  std::size_t total = 0;
  for (const auto& missed : e) total += missed.size();
  return total;
}

TEST(PipelinePool, SteadyStateAllocationsStayWithinInFlightBound) {
  // Peak concurrent buffer demand: one Sample per ring slot, one in
  // each producer's hands, one held by the consumer. Misses are only
  // possible while that working set is still being built, so the
  // cumulative miss count is bounded by it — across *any* number of
  // epochs.
  const std::size_t capacity = 4;
  const std::size_t io_threads = 2;
  EXPECT_LE(total_misses(missed_per_epoch(24, capacity, io_threads, 6)),
            capacity + io_threads + 1);

  // Epochs shorter than the ring fill only their own slots, so the
  // working set is 2 + 1 + 1 and the first epoch misses on every read.
  // The consumer's returns are parked in slots the next epoch deposits
  // into only after its reads; the producer takes one of them, so no
  // later epoch's first read (the one the consumer waits for)
  // allocates.
  const auto missed = missed_per_epoch(2, 8, 1, 6);
  EXPECT_EQ(missed[0].size(), 2u);
  EXPECT_LE(total_misses(missed), 2u + 1 + 1);
  for (std::size_t epoch = 1; epoch < missed.size(); ++epoch) {
    EXPECT_EQ(std::count(missed[epoch].begin(), missed[epoch].end(), 0u), 0)
        << "the first read of epoch " << epoch + 1 << " allocated";
  }
}

TEST(PipelinePool, TrainerStaysWithinInFlightBoundAcrossEpochs) {
  std::vector<Sample> train_samples;
  std::vector<Sample> val_samples;
  for (int i = 0; i < 4; ++i) {
    train_samples.push_back(make_sample(700 + i, 8));
  }
  for (int i = 0; i < 2; ++i) val_samples.push_back(make_sample(800 + i, 8));
  MissCountingSource train(std::move(train_samples));
  MissCountingSource val(std::move(val_samples));

  core::TrainerConfig config;
  config.nranks = 1;
  config.epochs = 8;
  config.pipeline.queue_capacity = 2;
  config.pipeline.io_threads = 1;
  core::Trainer trainer(core::cosmoflow_scaled(8), train, val, config);
  trainer.run();

  // The Trainer's one Sample carries buffers between its train and
  // validation pipelines, so neither gains an empty buffer per epoch.
  const std::size_t bound =
      config.pipeline.queue_capacity + config.pipeline.io_threads + 1;
  EXPECT_LE(train.misses(), bound);
  EXPECT_LE(val.misses(), bound);
}

// ---------------------------------------------------------------------
// End-to-end byte identity across every data-path configuration.

TEST(DataPath, BytesIdenticalAcrossMmapPoolAndThreadCombos) {
  TempDir dir;
  std::vector<Sample> samples;
  for (int i = 0; i < 13; ++i) samples.push_back(make_sample(500 + i, 6));
  const auto paths = write_shards(samples, dir.str(), "combo",
                                  /*samples_per_shard=*/5, /*seed=*/11);

  // Reference bytes: direct single-threaded reads, stream mode.
  CfrecordSource reference_source(paths, ReaderMode::kStream);
  ASSERT_FALSE(reference_source.mapped());
  const auto reference_reader = reference_source.make_reader();
  std::vector<Sample> reference;
  for (std::size_t i = 0; i < reference_source.size(); ++i) {
    reference.push_back(reference_reader->get(i));
  }

  std::vector<std::size_t> indices(reference.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;

  for (const ReaderMode mode : {ReaderMode::kAuto, ReaderMode::kStream}) {
    for (const std::size_t io_threads : {std::size_t{1}, std::size_t{3}}) {
      CfrecordSource source(paths, mode);
      PipelineConfig config;
      config.queue_capacity = 4;
      config.io_threads = io_threads;
      Pipeline pipeline(source, config);
      pipeline.start_epoch(indices);
      Sample sample;
      std::size_t i = 0;
      while (pipeline.next(sample)) {
        ASSERT_LT(i, reference.size());
        const Sample& want = reference[i];
        ASSERT_EQ(sample.volume.shape(), want.volume.shape());
        EXPECT_EQ(std::memcmp(sample.volume.data(), want.volume.data(),
                              sample.volume.size() * sizeof(float)),
                  0)
            << "sample " << i << " mode " << static_cast<int>(mode)
            << " io_threads " << io_threads;
        EXPECT_EQ(std::memcmp(sample.target.data(), want.target.data(),
                              sample.target.size() * sizeof(float)),
                  0);
        ++i;
      }
      EXPECT_EQ(i, reference.size());
    }
  }
}

// ---------------------------------------------------------------------
// Training trajectory is bitwise independent of the data path.

TEST(DataPath, TrainerTrajectoryBitwiseAcrossDataPathConfigs) {
  runtime::ThreadPool gen_pool;
  core::DatasetGenConfig gen;
  gen.simulations = 6;
  gen.sim.grid = {16, 64.0};
  gen.sim.voxels = 16;
  gen.seed = 20;
  // floor(0.15 * 6 sims) = 0 would leave the val split empty; hold out
  // one whole simulation instead.
  gen.val_fraction = 0.2;
  core::GeneratedDataset dataset = core::generate_dataset(gen, gen_pool);

  TempDir dir;
  const auto train_paths = write_shards(dataset.train, dir.str(), "train",
                                        /*samples_per_shard=*/16,
                                        /*seed=*/3);
  const auto val_paths = write_shards(dataset.val, dir.str(), "val",
                                      /*samples_per_shard=*/16, /*seed=*/4);

  const auto run = [&](ReaderMode mode) {
    CfrecordSource train(train_paths, mode);
    CfrecordSource val(val_paths, mode);
    core::TrainerConfig config;
    config.nranks = 2;
    config.epochs = 2;
    config.pipeline.io_threads = 2;
    core::Trainer trainer(core::cosmoflow_scaled(8), train, val, config);
    const auto metrics = trainer.run();
    return std::pair{metrics.back().train_loss, metrics.back().val_loss};
  };

  const auto baseline = run(ReaderMode::kStream);
  EXPECT_TRUE(std::isfinite(baseline.first));
  EXPECT_EQ(run(ReaderMode::kAuto), baseline);
}

}  // namespace
}  // namespace cf::data
