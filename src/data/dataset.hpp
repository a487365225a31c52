// Sample sources and the sharded dataset builder.
//
// SampleSource abstracts where samples come from: an in-memory vector
// (tests, small benches) or a set of cfrecord shard files (the §IV-C
// layout: sub-volumes randomly assigned to fixed-size record files,
// train/val/test split held out by simulation, training set optionally
// duplicated once for augmentation).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/cfrecord.hpp"
#include "data/sample.hpp"

namespace cf::data {

/// A thread's private reading handle; SampleSource::make_reader gives
/// every I/O thread its own. (Stream-mode file handles are not
/// shareable; a mapped shard is shared by every reader — see
/// CfrecordSource.)
class SampleReader {
 public:
  virtual ~SampleReader() = default;
  virtual Sample get(std::size_t index) = 0;

  /// Allocation-free variant: deserializes sample `index` into `out`,
  /// reusing its volume storage when the shape matches (the
  /// pipeline's steady state, where buffers recycle through its ring).
  /// Byte-identical to get().
  virtual void get_into(std::size_t index, Sample& out) {
    out = get(index);
  }
};

class SampleSource {
 public:
  virtual ~SampleSource() = default;
  virtual std::size_t size() const = 0;
  virtual std::unique_ptr<SampleReader> make_reader() const = 0;
};

/// Samples held in memory; get() clones.
class InMemorySource final : public SampleSource {
 public:
  explicit InMemorySource(std::vector<Sample> samples);

  std::size_t size() const override { return samples_.size(); }
  std::unique_ptr<SampleReader> make_reader() const override;

  const std::vector<Sample>& samples() const noexcept { return samples_; }

 private:
  std::vector<Sample> samples_;
};

/// Samples stored across cfrecord shards; an index (shard, offset) per
/// sample is built *once* at construction by a validating scan and
/// shared by every reader. In mmap mode (the default where supported)
/// the shard mappings built for that scan are kept and shared too —
/// view_at() is const and thread-safe — so readers deserialize
/// straight out of the page cache with zero per-reader file handles
/// and zero payload copies. In stream mode (ReaderMode::kStream, the
/// platform fallback) each reader opens private ifstream handles but
/// still reuses the prebuilt index.
class CfrecordSource final : public SampleSource {
 public:
  explicit CfrecordSource(std::vector<std::string> shard_paths,
                          ReaderMode mode = ReaderMode::kAuto);

  std::size_t size() const override { return index_.size(); }
  std::unique_ptr<SampleReader> make_reader() const override;

  std::size_t shard_count() const noexcept { return paths_.size(); }
  /// True when every shard is memory-mapped and shared across readers.
  bool mapped() const noexcept { return !shared_readers_.empty(); }

 private:
  std::vector<std::string> paths_;
  /// (shard, byte offset) per sample.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> index_;
  /// Mapped shard readers shared by all SampleReaders (mmap mode
  /// only; empty in stream mode). Only the const, thread-safe
  /// view_at() is called through these after construction.
  std::vector<std::unique_ptr<RecordReader>> shared_readers_;
};

/// Writes `samples` into fixed-size cfrecord shards under `directory`
/// with the given prefix, randomly assigning samples to shards
/// (§IV-C: "we randomly assign the training sub-volumes to TFRecord
/// files"). Returns the shard paths.
std::vector<std::string> write_shards(const std::vector<Sample>& samples,
                                      const std::string& directory,
                                      const std::string& prefix,
                                      std::size_t samples_per_shard,
                                      std::uint64_t shuffle_seed);

/// Deterministic train/val/test split *by simulation* so sub-volumes
/// of one box never straddle splits (the paper holds out 150 + 50
/// whole simulations). `groups[i]` gives the simulation id of sample i.
struct SplitIndices {
  std::vector<std::size_t> train;
  std::vector<std::size_t> val;
  std::vector<std::size_t> test;
};
SplitIndices split_by_group(const std::vector<std::size_t>& groups,
                            double val_fraction, double test_fraction,
                            std::uint64_t seed);

}  // namespace cf::data
