// Tests for the data pipeline: CRC32-C, cfrecord framing + corruption
// detection, sample serialization, sharding, splits, prefetch
// pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <span>

#include "data/cfrecord.hpp"
#include "data/crc32.hpp"
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
            ("cf_test_" + std::to_string(::getpid()) + "_" +
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

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  // "123456789"
  const std::string digits = "123456789";
  EXPECT_EQ(crc32c({reinterpret_cast<const std::uint8_t*>(digits.data()),
                    digits.size()}),
            0xE3069283u);
}

TEST(Crc32c, MaskRoundTrip) {
  for (const std::uint32_t crc : {0u, 1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    EXPECT_EQ(unmask_crc(mask_crc(crc)), crc);
  }
}

// crc32c() runs the SSE4.2 kernel where the CPU has it; the bytewise
// table is the reference.
TEST(Crc32c, AllKernelsAgreeOnRandomInputs) {
  runtime::Rng rng(42);
  for (const std::size_t size : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u,
                                 4096u, 65537u}) {
    std::vector<std::uint8_t> buf(size);
    for (auto& b : buf) {
      b = static_cast<std::uint8_t>(rng.uniform_index(256));
    }
    EXPECT_EQ(crc32c(buf), crc32c_table(buf)) << "size " << size;
  }
}

TEST(Crc32c, AllKernelsAgreeOnAdversarialInputs) {
  // Every length 0..64 at every offset 0..8 — the word-at-a-time
  // kernel's tail and misalignment handling — over pessimal byte
  // patterns (all-zero, all-ones, ramp).
  std::vector<std::uint8_t> backing(96);
  const auto sweep = [&] {
    for (std::size_t off = 0; off <= 8; ++off) {
      for (std::size_t len = 0; len <= 64; ++len) {
        const std::span<const std::uint8_t> window{backing.data() + off,
                                                   len};
        ASSERT_EQ(crc32c(window), crc32c_table(window))
            << "off " << off << " len " << len;
      }
    }
  };
  std::fill(backing.begin(), backing.end(), std::uint8_t{0});
  sweep();
  std::fill(backing.begin(), backing.end(), std::uint8_t{0xFF});
  sweep();
  for (std::size_t i = 0; i < backing.size(); ++i) {
    backing[i] = static_cast<std::uint8_t>(i * 37);
  }
  sweep();
}

TEST(Cfrecord, WriteReadRoundTrip) {
  TempDir dir;
  const std::string path = (dir.path() / "t.cfrecord").string();
  std::vector<std::vector<std::uint8_t>> records = {
      {1, 2, 3}, {}, std::vector<std::uint8_t>(1000, 42)};
  {
    RecordWriter writer(path);
    for (const auto& r : records) writer.write(r);
    writer.close();
    EXPECT_EQ(writer.records_written(), 3u);
  }
  RecordReader reader(path);
  std::vector<std::uint8_t> payload;
  for (const auto& expected : records) {
    ASSERT_TRUE(reader.read(payload));
    EXPECT_EQ(payload, expected);
  }
  EXPECT_FALSE(reader.read(payload));
}

TEST(Cfrecord, IndexAndRandomAccess) {
  TempDir dir;
  const std::string path = (dir.path() / "t.cfrecord").string();
  {
    RecordWriter writer(path);
    for (int i = 0; i < 10; ++i) {
      std::vector<std::uint8_t> payload(static_cast<std::size_t>(i + 1),
                                        static_cast<std::uint8_t>(i));
      writer.write(payload);
    }
    writer.close();
  }
  RecordReader reader(path);
  const auto offsets = reader.build_index();
  ASSERT_EQ(offsets.size(), 10u);
  std::vector<std::uint8_t> payload;
  reader.read_at(offsets[7], payload);
  EXPECT_EQ(payload.size(), 8u);
  EXPECT_EQ(payload[0], 7);
  reader.read_at(offsets[0], payload);
  EXPECT_EQ(payload.size(), 1u);
}

TEST(Cfrecord, DetectsPayloadCorruption) {
  TempDir dir;
  const std::string path = (dir.path() / "t.cfrecord").string();
  {
    RecordWriter writer(path);
    std::vector<std::uint8_t> payload(100, 7);
    writer.write(payload);
    writer.close();
  }
  // Flip a payload byte.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(12 + 50);
    const char corrupt = 8;
    f.write(&corrupt, 1);
  }
  RecordReader reader(path);
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(reader.read(payload), CorruptRecordError);
}

TEST(Cfrecord, DetectsTruncation) {
  TempDir dir;
  const std::string path = (dir.path() / "t.cfrecord").string();
  {
    RecordWriter writer(path);
    std::vector<std::uint8_t> payload(100, 7);
    writer.write(payload);
    writer.close();
  }
  fs::resize_file(path, 50);
  RecordReader reader(path);
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(reader.read(payload), CorruptRecordError);
}

TEST(Cfrecord, DetectsLengthCorruption) {
  TempDir dir;
  const std::string path = (dir.path() / "t.cfrecord").string();
  {
    RecordWriter writer(path);
    std::vector<std::uint8_t> payload(100, 7);
    writer.write(payload);
    writer.close();
  }
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    const char corrupt = 99;
    f.write(&corrupt, 1);
  }
  RecordReader reader(path);
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(reader.read(payload), CorruptRecordError);
}

TEST(Cfrecord, MmapModeRoundTripAndViews) {
  TempDir dir;
  const std::string path = (dir.path() / "t.cfrecord").string();
  std::vector<std::vector<std::uint8_t>> records = {
      {1, 2, 3}, {}, std::vector<std::uint8_t>(1000, 42)};
  {
    RecordWriter writer(path);
    for (const auto& r : records) writer.write(r);
    writer.close();
  }
  RecordReader reader(path, ReaderMode::kMmap);
  ASSERT_TRUE(reader.mapped());
  std::span<const std::uint8_t> view;
  for (const auto& expected : records) {
    ASSERT_TRUE(reader.read_view(&view));
    EXPECT_TRUE(std::equal(view.begin(), view.end(), expected.begin(),
                           expected.end()));
  }
  EXPECT_FALSE(reader.read_view(&view));

  // build_index + view_at random access; views are stable (they point
  // into the mapping, not scratch).
  const auto offsets = reader.build_index();
  ASSERT_EQ(offsets.size(), records.size());
  const auto v2 = reader.view_at(offsets[2]);
  const auto v0 = reader.view_at(offsets[0]);
  EXPECT_EQ(v2.size(), 1000u);
  EXPECT_EQ(v2[0], 42);
  EXPECT_EQ(v0.size(), 3u);
  EXPECT_EQ(v0[0], 1);
  EXPECT_THROW(reader.view_at(offsets[2] + 1), CorruptRecordError);

  // Stream mode has no mapped views.
  RecordReader stream(path, ReaderMode::kStream);
  EXPECT_FALSE(stream.mapped());
  EXPECT_THROW(stream.view_at(0), std::logic_error);
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(stream.read(payload));
  EXPECT_EQ(payload, records[0]);
}

TEST(Cfrecord, StreamAndMmapModesDeliverIdenticalBytes) {
  TempDir dir;
  const std::string path = (dir.path() / "t.cfrecord").string();
  runtime::Rng rng(77);
  std::vector<std::vector<std::uint8_t>> records;
  {
    RecordWriter writer(path);
    for (int i = 0; i < 17; ++i) {
      std::vector<std::uint8_t> payload(rng.uniform_index(200));
      for (auto& b : payload) {
        b = static_cast<std::uint8_t>(rng.uniform_index(256));
      }
      writer.write(payload);
      records.push_back(std::move(payload));
    }
    writer.close();
  }
  RecordReader mapped(path, ReaderMode::kMmap);
  RecordReader stream(path, ReaderMode::kStream);
  std::vector<std::uint8_t> a;
  std::vector<std::uint8_t> b;
  for (const auto& expected : records) {
    ASSERT_TRUE(mapped.read(a));
    ASSERT_TRUE(stream.read(b));
    EXPECT_EQ(a, expected);
    EXPECT_EQ(b, expected);
  }
  EXPECT_FALSE(mapped.read(a));
  EXPECT_FALSE(stream.read(b));
}

TEST(Cfrecord, EmptyFileIsACleanEndInBothModes) {
  TempDir dir;
  const std::string path = (dir.path() / "empty.cfrecord").string();
  { std::ofstream touch(path, std::ios::binary); }
  for (const ReaderMode mode : {ReaderMode::kMmap, ReaderMode::kStream}) {
    RecordReader reader(path, mode);
    std::vector<std::uint8_t> payload;
    EXPECT_FALSE(reader.read(payload));
    EXPECT_TRUE(reader.build_index().empty());
  }
}

TEST(Cfrecord, CraftedHugeLengthIsCorruptionNotAllocation) {
  // A length field of multiple GB whose own checksum *matches* must be
  // rejected by the remaining-file-size bound before any payload
  // buffer is sized — the attack the length CRC alone cannot catch.
  TempDir dir;
  const std::string path = (dir.path() / "t.cfrecord").string();
  {
    std::ofstream out(path, std::ios::binary);
    std::uint8_t header[12];
    const std::uint64_t huge = 1ull << 40;  // 1 TB claim
    for (std::size_t i = 0; i < 8; ++i) {
      header[i] = static_cast<std::uint8_t>(huge >> (8 * i));
    }
    const std::uint32_t masked = mask_crc(crc32c({header, 8}));
    for (std::size_t i = 0; i < 4; ++i) {
      header[8 + i] = static_cast<std::uint8_t>(masked >> (8 * i));
    }
    out.write(reinterpret_cast<const char*>(header), 12);
    const char junk[32] = {0};
    out.write(junk, sizeof(junk));
  }
  for (const ReaderMode mode : {ReaderMode::kMmap, ReaderMode::kStream}) {
    RecordReader reader(path, mode);
    std::vector<std::uint8_t> payload;
    EXPECT_THROW(reader.read(payload), CorruptRecordError);
  }
}

TEST(SampleSerialization, RoundTrip) {
  const Sample sample = make_sample(5, 6);
  const auto payload = serialize_sample(sample);
  const Sample back = deserialize_sample(payload);
  EXPECT_EQ(back.volume.shape(), sample.volume.shape());
  EXPECT_EQ(tensor::max_abs_diff(back.volume.values(),
                                 sample.volume.values()),
            0.0f);
  EXPECT_EQ(back.target, sample.target);
}

TEST(SampleSerialization, RejectsMalformedPayloads) {
  const Sample sample = make_sample(6);
  auto payload = serialize_sample(sample);
  payload[0] ^= 0xFF;  // bad magic
  EXPECT_THROW(deserialize_sample(payload), std::invalid_argument);

  auto truncated = serialize_sample(sample);
  truncated.resize(truncated.size() - 4);
  EXPECT_THROW(deserialize_sample(truncated), std::invalid_argument);

  std::vector<std::uint8_t> tiny(8, 0);
  EXPECT_THROW(deserialize_sample(tiny), std::invalid_argument);
}

TEST(SampleSerialization, DeserializeIntoReusesStorage) {
  const Sample sample = make_sample(5, 6);
  const auto payload = serialize_sample(sample);

  // Matching shape: the destination tensor's storage must be reused.
  Sample out = make_sample(99, 6);
  const float* storage = out.volume.data();
  deserialize_sample_into(payload, out);
  EXPECT_EQ(out.volume.data(), storage);
  EXPECT_EQ(out.volume.shape(), sample.volume.shape());
  EXPECT_EQ(tensor::max_abs_diff(out.volume.values(),
                                 sample.volume.values()),
            0.0f);
  EXPECT_EQ(out.target, sample.target);

  // Mismatched shape: reallocates, still correct.
  Sample small = make_sample(98, 3);
  deserialize_sample_into(payload, small);
  EXPECT_EQ(small.volume.shape(), sample.volume.shape());
  EXPECT_EQ(tensor::max_abs_diff(small.volume.values(),
                                 sample.volume.values()),
            0.0f);

  // Empty destination works too.
  Sample fresh;
  deserialize_sample_into(payload, fresh);
  EXPECT_EQ(fresh.volume.shape(), sample.volume.shape());
  EXPECT_EQ(fresh.target, sample.target);
}

TEST(InMemorySource, ReadsClones) {
  std::vector<Sample> samples;
  samples.push_back(make_sample(1));
  samples.push_back(make_sample(2));
  InMemorySource source(std::move(samples));
  EXPECT_EQ(source.size(), 2u);
  const auto reader = source.make_reader();
  Sample a = reader->get(0);
  a.volume.fill(0.0f);  // must not affect the source
  const Sample again = reader->get(0);
  EXPECT_GT(tensor::l2_norm(again.volume.values()), 0.0);
  EXPECT_THROW(reader->get(2), std::out_of_range);
}

TEST(WriteShards, RoundTripThroughCfrecordSource) {
  TempDir dir;
  std::vector<Sample> samples;
  for (int i = 0; i < 23; ++i) samples.push_back(make_sample(100 + i));

  const auto paths = write_shards(samples, dir.str(), "train",
                                  /*samples_per_shard=*/8, /*seed=*/3);
  EXPECT_EQ(paths.size(), 3u);  // ceil(23 / 8)

  CfrecordSource source(paths);
  EXPECT_EQ(source.size(), 23u);
  EXPECT_EQ(source.shard_count(), 3u);

  // Every original sample must appear exactly once (identified by its
  // target triple).
  const auto reader = source.make_reader();
  std::set<float> seen;
  for (std::size_t i = 0; i < source.size(); ++i) {
    seen.insert(reader->get(i).target[0]);
  }
  std::set<float> expected;
  for (const auto& s : samples) expected.insert(s.target[0]);
  EXPECT_EQ(seen, expected);
}

TEST(WriteShards, ShuffleIsDeterministicInSeed) {
  TempDir dir_a;
  TempDir dir_b;
  std::vector<Sample> samples;
  for (int i = 0; i < 10; ++i) samples.push_back(make_sample(200 + i));
  const auto a = write_shards(samples, dir_a.str(), "x", 4, 7);
  const auto b = write_shards(samples, dir_b.str(), "x", 4, 7);
  CfrecordSource sa(a);
  CfrecordSource sb(b);
  const auto ra = sa.make_reader();
  const auto rb = sb.make_reader();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(ra->get(i).target[0], rb->get(i).target[0]);
  }
}

TEST(SplitByGroup, GroupsNeverStraddleSplits) {
  std::vector<std::size_t> groups;
  for (std::size_t sim = 0; sim < 40; ++sim) {
    for (int sub = 0; sub < 8; ++sub) groups.push_back(sim);
  }
  const SplitIndices split = split_by_group(groups, 0.15, 0.05, 9);
  EXPECT_EQ(split.train.size() + split.val.size() + split.test.size(),
            groups.size());
  std::set<std::size_t> val_groups;
  std::set<std::size_t> test_groups;
  for (const std::size_t i : split.val) val_groups.insert(groups[i]);
  for (const std::size_t i : split.test) test_groups.insert(groups[i]);
  std::set<std::size_t> train_groups;
  for (const std::size_t i : split.train) train_groups.insert(groups[i]);
  for (const std::size_t g : val_groups) {
    EXPECT_EQ(train_groups.count(g), 0u);
    EXPECT_EQ(test_groups.count(g), 0u);
  }
  // 15% of 40 = 6 val groups, 5% = 2 test groups.
  EXPECT_EQ(val_groups.size(), 6u);
  EXPECT_EQ(test_groups.size(), 2u);
}

TEST(SplitByGroup, RejectsBadFractions) {
  const std::vector<std::size_t> groups{0, 1};
  EXPECT_THROW(split_by_group(groups, 0.7, 0.5, 1), std::invalid_argument);
  EXPECT_THROW(split_by_group(groups, -0.1, 0.1, 1), std::invalid_argument);
}

TEST(EpochIndices, PartitionIsDisjointAndComplete) {
  const std::size_t total = 64;
  const int nranks = 4;
  std::set<std::size_t> all;
  for (int r = 0; r < nranks; ++r) {
    const auto mine = epoch_indices_for_rank(total, nranks, r, 5, true);
    EXPECT_EQ(mine.size(), total / nranks);
    for (const std::size_t i : mine) {
      EXPECT_TRUE(all.insert(i).second) << "duplicate index " << i;
    }
  }
  EXPECT_EQ(all.size(), total);
}

TEST(EpochIndices, RemainderIsDropped) {
  const auto mine = epoch_indices_for_rank(10, 3, 0, 1, false);
  EXPECT_EQ(mine.size(), 3u);
}

TEST(EpochIndices, ShuffleChangesWithSeedOnly) {
  const auto a = epoch_indices_for_rank(32, 2, 0, 1, true);
  const auto b = epoch_indices_for_rank(32, 2, 0, 1, true);
  const auto c = epoch_indices_for_rank(32, 2, 0, 2, true);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Pipeline, DeliversEveryIndexedSampleOnce) {
  std::vector<Sample> samples;
  for (int i = 0; i < 12; ++i) samples.push_back(make_sample(300 + i));
  InMemorySource source(std::move(samples));

  PipelineConfig config;
  config.queue_capacity = 3;
  config.io_threads = 2;
  Pipeline pipeline(source, config);

  std::vector<std::size_t> indices{0, 2, 4, 6, 8, 10};
  pipeline.start_epoch(indices);
  std::multiset<float> got;
  Sample sample;
  while (pipeline.next(sample)) got.insert(sample.target[0]);
  EXPECT_EQ(got.size(), indices.size());

  const auto reader = source.make_reader();
  for (const std::size_t i : indices) {
    EXPECT_EQ(got.count(reader->get(i).target[0]), 1u);
  }
}

TEST(Pipeline, SupportsMultipleEpochs) {
  std::vector<Sample> samples;
  for (int i = 0; i < 6; ++i) samples.push_back(make_sample(400 + i));
  InMemorySource source(std::move(samples));
  Pipeline pipeline(source, PipelineConfig{});
  for (int epoch = 0; epoch < 3; ++epoch) {
    pipeline.start_epoch({0, 1, 2, 3, 4, 5});
    int count = 0;
    Sample sample;
    while (pipeline.next(sample)) ++count;
    EXPECT_EQ(count, 6);
  }
}

TEST(Pipeline, EmptyEpochTerminatesImmediately) {
  InMemorySource source({});
  Pipeline pipeline(source, PipelineConfig{});
  pipeline.start_epoch({});
  Sample sample;
  EXPECT_FALSE(pipeline.next(sample));
}

TEST(Pipeline, StartEpochBeforeDrainThrows) {
  std::vector<Sample> samples;
  samples.push_back(make_sample(500));
  samples.push_back(make_sample(501));
  InMemorySource source(std::move(samples));
  Pipeline pipeline(source, PipelineConfig{});
  pipeline.start_epoch({0, 1});
  Sample sample;
  ASSERT_TRUE(pipeline.next(sample));
  EXPECT_THROW(pipeline.start_epoch({0}), std::logic_error);
  // Drain, then a new epoch is fine.
  ASSERT_TRUE(pipeline.next(sample));
  ASSERT_FALSE(pipeline.next(sample));
  pipeline.start_epoch({0});
  ASSERT_TRUE(pipeline.next(sample));
}

TEST(Pipeline, TracksWaitTime) {
  std::vector<Sample> samples;
  samples.push_back(make_sample(600));
  InMemorySource source(std::move(samples));
  PipelineConfig config;
  config.injected_read_delay = 0.02;  // slow "filesystem"
  Pipeline pipeline(source, config);
  pipeline.start_epoch({0});
  Sample sample;
  ASSERT_TRUE(pipeline.next(sample));
  ASSERT_FALSE(pipeline.next(sample));
  EXPECT_GT(pipeline.wait_time().total(), 0.005);
}

// Each pipeline owns its wait Stat: building and draining a second
// pipeline with the same config leaves the first one's figure alone.
TEST(Pipeline, TwoPipelinesKeepTheirOwnWaitTime) {
  std::vector<Sample> samples;
  for (int i = 0; i < 4; ++i) samples.push_back(make_sample(650 + i));
  InMemorySource source(std::move(samples));
  // Every next() is timed, the one that ends the epoch included.
  const auto drain = [](Pipeline& pipeline,
                        std::vector<std::size_t> indices) {
    pipeline.start_epoch(std::move(indices));
    Sample sample;
    while (pipeline.next(sample)) {
    }
  };

  Pipeline first(source, PipelineConfig{});
  drain(first, {0, 1, 2, 3});
  ASSERT_EQ(first.wait_time().count(), 5u);
  Pipeline second(source, PipelineConfig{});
  EXPECT_EQ(first.wait_time().count(), 5u);
  drain(second, {0, 1});

  EXPECT_EQ(first.wait_time().count(), 5u);
  EXPECT_EQ(second.wait_time().count(), 3u);
}

TEST(Pipeline, RejectsBadConfig) {
  InMemorySource source({});
  PipelineConfig bad;
  bad.queue_capacity = 0;
  EXPECT_THROW(Pipeline(source, bad), std::invalid_argument);
  bad = PipelineConfig{};
  bad.io_threads = 0;
  EXPECT_THROW(Pipeline(source, bad), std::invalid_argument);
}

TEST(Pipeline, ReadsFromCfrecordShards) {
  TempDir dir;
  std::vector<Sample> samples;
  for (int i = 0; i < 9; ++i) samples.push_back(make_sample(700 + i));
  const auto paths = write_shards(samples, dir.str(), "p", 4, 1);
  CfrecordSource source(paths);

  PipelineConfig config;
  config.io_threads = 2;
  Pipeline pipeline(source, config);
  std::vector<std::size_t> all(source.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  pipeline.start_epoch(all);
  int count = 0;
  Sample sample;
  while (pipeline.next(sample)) {
    EXPECT_EQ(sample.volume.shape(), tensor::Shape({1, 4, 4, 4}));
    ++count;
  }
  EXPECT_EQ(count, 9);
}

}  // namespace
}  // namespace cf::data
