#include "comm/mlcomm.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "obs/telemetry.hpp"

namespace cf::comm {

int RankHandle::size() const noexcept { return comm_->size(); }

void RankHandle::barrier() { comm_->barrier_.arrive_and_wait(); }

void RankHandle::broadcast(std::span<float> data, int root) {
  CF_TRACE_SCOPE("comm/broadcast", "comm");
  const obs::ScopedStatTimer timer(comm_->rank_stats_[rank_].collective);
  comm_->do_broadcast(rank_, data, root);
}

void RankHandle::allreduce_average(std::span<float> data) {
  CF_TRACE_SCOPE("comm/allreduce", "comm");
  const obs::ScopedStatTimer timer(comm_->rank_stats_[rank_].collective);
  comm_->do_allreduce(rank_, data);
}

double RankHandle::allreduce_average_scalar(double value) {
  CF_TRACE_SCOPE("comm/allreduce_scalar", "comm");
  const obs::ScopedStatTimer timer(comm_->rank_stats_[rank_].collective);
  comm_->scalar_slots_[rank_] = value;
  comm_->barrier_.arrive_and_wait();
  double acc = 0.0;
  for (int r = 0; r < comm_->nranks_; ++r) acc += comm_->scalar_slots_[r];
  comm_->barrier_.arrive_and_wait();
  return acc / comm_->nranks_;
}

PendingReduce RankHandle::allreduce_average_async(std::span<float> data) {
  return comm_->post_async(rank_, data);
}

void RankHandle::wait(PendingReduce& pending) {
  CF_TRACE_SCOPE("comm/wait", "comm");
  comm_->wait_async(rank_, pending);
}

runtime::TimeStats RankHandle::comm_time() const {
  return comm_->rank_stats_[rank_].collective.snapshot();
}

void RankHandle::reset_comm_time() {
  comm_->rank_stats_[rank_].collective.reset();
}

runtime::TimeStats RankHandle::exposed_comm_time() const {
  return comm_->rank_stats_[rank_].exposed.snapshot();
}

runtime::TimeStats RankHandle::hidden_comm_time() const {
  return comm_->rank_stats_[rank_].hidden.snapshot();
}

MlComm::MlComm(int nranks, MlCommConfig config)
    : nranks_(nranks),
      config_(std::move(config)),
      barrier_(static_cast<std::size_t>(nranks)),
      slots_(static_cast<std::size_t>(nranks), nullptr),
      slot_sizes_(static_cast<std::size_t>(nranks), 0),
      scalar_slots_(static_cast<std::size_t>(nranks), 0.0),
      rank_stats_(static_cast<std::size_t>(nranks)) {
  if (nranks <= 0) throw std::invalid_argument("MlComm: nranks must be > 0");
  if (config_.chunk_elems == 0) {
    throw std::invalid_argument("MlComm: chunk_elems must be > 0");
  }
  handles_.reserve(static_cast<std::size_t>(nranks));
  async_posts_.resize(static_cast<std::size_t>(nranks));
  posted_count_.assign(static_cast<std::size_t>(nranks), 0);
  for (int r = 0; r < nranks; ++r) handles_.push_back(RankHandle(this, r));
}

MlComm::~MlComm() {
  {
    const std::lock_guard<std::mutex> lock(async_mutex_);
    helper_stop_ = true;
  }
  async_work_cv_.notify_all();
  if (helper_.joinable()) helper_.join();
}

RankHandle& MlComm::handle(int rank) {
  if (rank < 0 || rank >= nranks_) {
    throw std::out_of_range("MlComm::handle: bad rank");
  }
  return handles_[static_cast<std::size_t>(rank)];
}

void MlComm::run(const std::function<void(RankHandle&)>& body) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks_));
  threads.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      try {
        body(handles_[static_cast<std::size_t>(r)]);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

void MlComm::publish(int rank, float* data, std::size_t size) {
  slots_[static_cast<std::size_t>(rank)] = data;
  slot_sizes_[static_cast<std::size_t>(rank)] = size;
}

void MlComm::check_uniform_size_locked(std::size_t size) {
  for (int r = 0; r < nranks_; ++r) {
    if (slot_sizes_[static_cast<std::size_t>(r)] != size) {
      throw std::invalid_argument(
          "MlComm: ranks passed buffers of different sizes");
    }
  }
}

void MlComm::do_broadcast(int rank, std::span<float> data, int root) {
  if (root < 0 || root >= nranks_) {
    throw std::invalid_argument("MlComm::broadcast: bad root");
  }
  publish(rank, data.data(), data.size());
  barrier_.arrive_and_wait();
  check_uniform_size_locked(data.size());
  if (rank != root) {
    std::memcpy(data.data(), slots_[static_cast<std::size_t>(root)],
                data.size() * sizeof(float));
  }
  barrier_.arrive_and_wait();
}

void MlComm::do_allreduce(int rank, std::span<float> data) {
  if (config_.pre_reduce_hook) config_.pre_reduce_hook(rank);
  publish(rank, data.data(), data.size());
  if (barrier_.arrive_and_wait()) {
    // Leader grows the shared reduction buffer before anyone writes.
    if (reduce_buffer_.size() < data.size()) {
      reduce_buffer_.resize(data.size());
    }
  }
  barrier_.arrive_and_wait();
  check_uniform_size_locked(data.size());

  switch (config_.algorithm) {
    case AllreduceAlgorithm::kReduceScatter:
      reduce_scatter_allgather(rank, data);
      break;
    case AllreduceAlgorithm::kCentralRoot:
      central_root(rank, data);
      break;
  }
}

void MlComm::reduce_scatter_allgather(int rank, std::span<float> data) {
  const std::size_t n = data.size();
  const std::size_t k = static_cast<std::size_t>(nranks_);
  const std::size_t base = n / k;
  const std::size_t remainder = n % k;
  const std::size_t r = static_cast<std::size_t>(rank);
  const std::size_t begin = r * base + std::min(r, remainder);
  const std::size_t end = begin + base + (r < remainder ? 1 : 0);
  const float inv = 1.0f / static_cast<float>(nranks_);

  // Reduce-scatter: this rank reduces its owned range across all
  // ranks, in fixed rank order (determinism), chunk by chunk.
  for (std::size_t chunk = begin; chunk < end;
       chunk += config_.chunk_elems) {
    const std::size_t stop = std::min(end, chunk + config_.chunk_elems);
    float* out = reduce_buffer_.data() + chunk;
    std::memcpy(out, slots_[0] + chunk, (stop - chunk) * sizeof(float));
    for (int src = 1; src < nranks_; ++src) {
      const float* in = slots_[static_cast<std::size_t>(src)] + chunk;
      for (std::size_t i = 0; i < stop - chunk; ++i) out[i] += in[i];
    }
    for (std::size_t i = 0; i < stop - chunk; ++i) out[i] *= inv;
  }
  barrier_.arrive_and_wait();

  // Allgather: copy the full averaged vector back.
  std::memcpy(data.data(), reduce_buffer_.data(), n * sizeof(float));
  barrier_.arrive_and_wait();
}

PendingReduce MlComm::post_async(int rank, std::span<float> data) {
  // Straggler injection delays the rank's contribution, same as the
  // synchronous path (the bucket cannot start until every rank posts).
  if (config_.pre_reduce_hook) config_.pre_reduce_hook(rank);
  const std::lock_guard<std::mutex> lock(async_mutex_);
  if (async_error_) std::rethrow_exception(async_error_);
  if (!helper_.joinable()) {
    // Lazy start: communicators that never go async never pay for a
    // helper thread.
    helper_ = std::thread(&MlComm::helper_loop, this);
  }
  async_posts_[static_cast<std::size_t>(rank)].push_back(
      BucketPost{data.data(), data.size()});
  PendingReduce pending;
  pending.seq_ = ++posted_count_[static_cast<std::size_t>(rank)];
  pending.post_seconds_ = comm_clock_.elapsed_seconds();
  pending.valid_ = true;
  async_work_cv_.notify_one();
  return pending;
}

void MlComm::wait_async(int rank, PendingReduce& pending) {
  if (!pending.valid_) {
    throw std::logic_error("RankHandle::wait: invalid PendingReduce ticket");
  }
  pending.valid_ = false;
  const double wait_start = comm_clock_.elapsed_seconds();
  double completed_seconds = 0.0;
  {
    std::unique_lock<std::mutex> lock(async_mutex_);
    async_done_cv_.wait(lock, [&] {
      return async_error_ != nullptr || completed_count_ >= pending.seq_;
    });
    if (completed_count_ < pending.seq_) {
      std::rethrow_exception(async_error_);
    }
    auto it = completed_.find(pending.seq_);
    completed_seconds = it->second.completed_seconds;
    if (--it->second.waiters_left == 0) completed_.erase(it);
  }
  // Exposed = time this rank actually blocked here; the rest of the
  // post-to-completion service time was hidden behind compute.
  const double exposed = comm_clock_.elapsed_seconds() - wait_start;
  const double service =
      std::max(0.0, completed_seconds - pending.post_seconds_);
  const double hidden = std::max(0.0, service - exposed);
  RankStats& stats = rank_stats_[static_cast<std::size_t>(rank)];
  stats.exposed.add(exposed);
  stats.hidden.add(hidden);
  stats.collective.add(exposed);
}

void MlComm::set_async_error_locked(std::exception_ptr error) {
  async_error_ = std::move(error);
  async_done_cv_.notify_all();
}

void MlComm::helper_loop() {
  std::unique_lock<std::mutex> lock(async_mutex_);
  std::vector<BucketPost> posts(static_cast<std::size_t>(nranks_));
  while (true) {
    async_work_cv_.wait(lock, [&] {
      if (helper_stop_) return true;
      // The next bucket is ready once every rank has posted it.
      for (const auto& queue : async_posts_) {
        if (queue.empty()) return false;
      }
      return true;
    });
    if (helper_stop_) return;
    for (std::size_t r = 0; r < async_posts_.size(); ++r) {
      posts[r] = async_posts_[r].front();
      async_posts_[r].pop_front();
    }
    const std::size_t n = posts[0].size;
    bool mismatch = false;
    for (const BucketPost& post : posts) {
      if (post.size != n) mismatch = true;
    }
    if (mismatch) {
      set_async_error_locked(std::make_exception_ptr(std::invalid_argument(
          "MlComm: ranks posted async buckets of different sizes")));
      return;
    }
    lock.unlock();
    {
      CF_TRACE_SCOPE("comm/helper/reduce", "comm");
      reduce_bucket(posts);
    }
    lock.lock();
    ++completed_count_;
    completed_[completed_count_] =
        BucketDone{comm_clock_.elapsed_seconds(), nranks_};
    async_done_cv_.notify_all();
  }
}

void MlComm::reduce_bucket(const std::vector<BucketPost>& posts) {
  // Same fixed-rank-order chunked arithmetic as
  // reduce_scatter_allgather, so a vector split into async buckets
  // averages bitwise identically to one synchronous call over it:
  // each element sees copy-from-rank-0, += ranks 1..k-1 in order,
  // then *= 1/k, independent of bucket boundaries.
  const std::size_t n = posts[0].size;
  if (n == 0) return;
  const float inv = 1.0f / static_cast<float>(nranks_);
  if (async_scratch_.size() < n) async_scratch_.resize(n);
  for (std::size_t chunk = 0; chunk < n; chunk += config_.chunk_elems) {
    const std::size_t stop = std::min(n, chunk + config_.chunk_elems);
    float* out = async_scratch_.data() + chunk;
    std::memcpy(out, posts[0].data + chunk, (stop - chunk) * sizeof(float));
    for (int src = 1; src < nranks_; ++src) {
      const float* in = posts[static_cast<std::size_t>(src)].data + chunk;
      for (std::size_t i = 0; i < stop - chunk; ++i) out[i] += in[i];
    }
    for (std::size_t i = 0; i < stop - chunk; ++i) out[i] *= inv;
  }
  for (const BucketPost& post : posts) {
    std::memcpy(post.data, async_scratch_.data(), n * sizeof(float));
  }
}

void MlComm::central_root(int rank, std::span<float> data) {
  const std::size_t n = data.size();
  const float inv = 1.0f / static_cast<float>(nranks_);
  if (rank == 0) {
    float* out = reduce_buffer_.data();
    std::memcpy(out, slots_[0], n * sizeof(float));
    for (int src = 1; src < nranks_; ++src) {
      const float* in = slots_[static_cast<std::size_t>(src)];
      for (std::size_t i = 0; i < n; ++i) out[i] += in[i];
    }
    for (std::size_t i = 0; i < n; ++i) out[i] *= inv;
  }
  barrier_.arrive_and_wait();
  std::memcpy(data.data(), reduce_buffer_.data(), n * sizeof(float));
  barrier_.arrive_and_wait();
}

}  // namespace cf::comm
