#include "data/pipeline.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/telemetry.hpp"
#include "runtime/rng.hpp"

namespace cf::data {

Pipeline::Pipeline(const SampleSource& source, PipelineConfig config)
    : source_(source), config_(config) {
  if (config_.queue_capacity == 0 || config_.io_threads == 0) {
    throw std::invalid_argument(
        "Pipeline: queue capacity and io_threads must be positive");
  }
  ring_.resize(config_.queue_capacity);
  producers_.reserve(config_.io_threads);
  for (std::size_t t = 0; t < config_.io_threads; ++t) {
    producers_.emplace_back([this, t] { producer_loop(t); });
  }
}

Pipeline::~Pipeline() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  epoch_started_.notify_all();
  queue_not_full_.notify_all();
  for (auto& producer : producers_) producer.join();
}

void Pipeline::start_epoch(std::vector<std::size_t> indices) {
  std::lock_guard lock(mutex_);
  if (consumed_ != indices_.size()) {
    throw std::logic_error("Pipeline::start_epoch: previous epoch not "
                           "drained");
  }
  indices_ = std::move(indices);
  cursor_ = 0;
  consumed_ = 0;
  ++epoch_;
  epoch_started_.notify_all();
}

bool Pipeline::next(Sample& out) {
  CF_TRACE_SCOPE("io/wait_sample", "io");
  const obs::ScopedStatTimer timer(wait_stat_);
  std::unique_lock lock(mutex_);
  if (consumed_ == indices_.size()) return false;  // epoch exhausted
  Slot& slot = ring_[consumed_ % config_.queue_capacity];
  queue_not_empty_.wait(lock, [&] { return slot.full; });
  std::swap(out, slot.sample);  // park the caller's old buffer
  slot.full = false;
  ++consumed_;
  lock.unlock();
  queue_not_full_.notify_all();
  return true;
}

void Pipeline::producer_loop(std::size_t /*thread_index*/) {
  const std::unique_ptr<SampleReader> reader = source_.make_reader();
  // This producer's buffer, refilled by every read and swapped for the
  // one parked in the slot it deposits into.
  Sample sample;
  std::size_t seen_epoch = 0;
  for (;;) {
    std::size_t index = 0;
    std::size_t position = 0;
    {
      std::unique_lock lock(mutex_);
      epoch_started_.wait(lock, [&] {
        return stopping_ || (epoch_ != seen_epoch && cursor_ < indices_.size());
      });
      if (stopping_) return;
      if (cursor_ >= indices_.size()) {
        seen_epoch = epoch_;
        continue;
      }
      position = cursor_;
      index = indices_[cursor_++];
      if (cursor_ >= indices_.size()) seen_epoch = epoch_;
      // A never-filled buffer would allocate on this read: trade it for
      // a filled one parked in a free slot. When an epoch is shorter
      // than the ring, the consumer's returns sit in slots the next
      // epoch deposits into only after its reads.
      if (sample.volume.empty()) {
        for (Slot& slot : ring_) {
          if (!slot.full && !slot.sample.volume.empty()) {
            std::swap(sample, slot.sample);
            break;
          }
        }
      }
    }
    {
      CF_TRACE_SCOPE("io/read_sample", "io");
      reader->get_into(index, sample);
      if (config_.injected_read_delay > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            config_.injected_read_delay));
      }
    }
    {
      std::unique_lock lock(mutex_);
      // Backpressure: at most queue_capacity positions may be in
      // flight beyond the consumer, so slot position % capacity is
      // free once its previous occupant (position - capacity) has been
      // consumed — exactly the wait condition. The producer holding
      // the very next position is never blocked, so there is no
      // deadlock.
      queue_not_full_.wait(lock, [&] {
        return stopping_ ||
               position < consumed_ + config_.queue_capacity;
      });
      if (stopping_) return;
      Slot& slot = ring_[position % config_.queue_capacity];
      std::swap(slot.sample, sample);
      slot.full = true;
    }
    queue_not_empty_.notify_all();
  }
}

std::vector<std::size_t> epoch_indices_for_rank(std::size_t total,
                                                int nranks, int rank,
                                                std::uint64_t epoch_seed,
                                                bool shuffle) {
  if (nranks <= 0 || rank < 0 || rank >= nranks) {
    throw std::invalid_argument("epoch_indices_for_rank: bad rank");
  }
  std::vector<std::size_t> order(total);
  for (std::size_t i = 0; i < total; ++i) order[i] = i;
  if (shuffle) {
    runtime::Rng rng(epoch_seed, /*stream=*/0x65706F6368ULL);  // "epoch"
    for (std::size_t i = total; i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
  }
  const std::size_t per_rank = total / static_cast<std::size_t>(nranks);
  std::vector<std::size_t> mine;
  mine.reserve(per_rank);
  for (std::size_t i = 0; i < per_rank; ++i) {
    mine.push_back(order[i * static_cast<std::size_t>(nranks) +
                         static_cast<std::size_t>(rank)]);
  }
  return mine;
}

}  // namespace cf::data
