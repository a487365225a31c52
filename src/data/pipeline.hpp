// Prefetching input pipeline — the QueueRunner/coordinator substitute.
//
// The paper hides I/O behind gradient computation with dedicated I/O
// threads that buffer randomly-selected samples into memory (§V-A,
// §VI-A). Pipeline does the same: producer threads read samples from a
// SampleSource through private readers into a bounded reorder buffer;
// the training loop pops. Delivery is *order-preserving* — samples
// arrive exactly in epoch-index order regardless of how many I/O
// threads race on the reads — so the training trajectory is bitwise
// independent of the prefetch parallelism (a determinism invariant the
// tests pin). The time a consumer spends blocked in next() is the
// *unhidden* I/O cost — exactly the quantity Eq. 1 bounds — and is
// tracked for the Fig 3 breakdown.
//
// Sample buffers are recycled through the ring itself: next() swaps the
// consumer's previous buffer into the slot it empties, and each
// producer deposits by swapping its buffer for the one parked in the
// slot. A producer about to read into a never-filled buffer first
// trades it for a filled one parked in any free slot, so a read
// allocates only when no slot parks one. A pipeline whose consumer
// keeps one Sample across epochs therefore allocates at most
// queue_capacity + io_threads + 1 buffers in its life (the slots, one
// per producer, the consumer's). From the second epoch on, given two
// samples or more per epoch, an epoch's first read (the one the
// consumer waits for) never allocates.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "obs/metrics.hpp"
#include "runtime/timer.hpp"

namespace cf::data {

struct PipelineConfig {
  std::size_t queue_capacity = 8;
  std::size_t io_threads = 1;
  /// Injected per-read delay in seconds (filesystem model hook for the
  /// I/O experiments); 0 disables.
  double injected_read_delay = 0.0;
  /// obs registry prefix for this pipeline's metrics; the consumer
  /// wait Stat is `<metric_prefix>/wait` (reset at construction). The
  /// Trainer names its pipelines per rank and split, e.g.
  /// `data/pipeline/r0/train`.
  std::string metric_prefix = "data/pipeline";
};

class Pipeline {
 public:
  Pipeline(const SampleSource& source, PipelineConfig config);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Starts a pass over the given sample indices (the caller shards
  /// and shuffles). Any previous epoch must be fully drained.
  void start_epoch(std::vector<std::size_t> indices);

  /// Pops the next sample; returns false when the epoch is exhausted.
  /// `out`'s previous buffer goes back into the ring for a producer to
  /// refill — callers reuse one Sample across next() calls and epochs
  /// and must not hold references into the buffer they passed in.
  bool next(Sample& out);

  /// Time spent blocked inside next() (unhidden I/O) — a snapshot of
  /// the `<metric_prefix>/wait` Stat in the obs registry.
  runtime::TimeStats wait_time() const { return wait_stat_->snapshot(); }
  void reset_wait_time() { wait_stat_->reset(); }

 private:
  void producer_loop(std::size_t thread_index);

  const SampleSource& source_;
  PipelineConfig config_;

  std::mutex mutex_;
  std::condition_variable queue_not_full_;
  std::condition_variable queue_not_empty_;
  std::condition_variable epoch_started_;
  /// Fixed-ring reorder buffer: epoch position p lives in slot
  /// p % queue_capacity. The backpressure invariant (at most
  /// queue_capacity positions in flight beyond the consumer) makes the
  /// mapping collision-free, so the seed's std::map (a node allocation
  /// per sample) becomes queue_capacity slots allocated once. An empty
  /// slot parks the buffer the consumer handed back.
  struct Slot {
    Sample sample;
    bool full = false;
  };
  std::vector<Slot> ring_;
  std::vector<std::size_t> indices_;
  std::size_t cursor_ = 0;
  std::size_t consumed_ = 0;
  std::size_t epoch_ = 0;
  bool stopping_ = false;

  obs::Stat* wait_stat_ = nullptr;        // <metric_prefix>/wait
  obs::Counter* samples_counter_ = nullptr;  // data/pipeline/samples_prefetched
  obs::Counter* bytes_counter_ = nullptr;    // data/pipeline/bytes_prefetched
  std::vector<std::thread> producers_;
};

/// The indices rank `rank` of `nranks` processes in one epoch: a
/// deterministic shuffle of [0, total) sliced round-robin. Every rank
/// sees floor(total / nranks) samples (the remainder is dropped, as a
/// fixed step count per rank is required by synchronous training).
std::vector<std::size_t> epoch_indices_for_rank(std::size_t total,
                                                int nranks, int rank,
                                                std::uint64_t epoch_seed,
                                                bool shuffle);

}  // namespace cf::data
