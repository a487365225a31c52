// MlComm: the Cray CPE ML Plugin substitute (DESIGN.md §1).
//
// The paper parallelizes training with an MPI-based plugin exposing
// three operations: initial model broadcast, synchronous gradient
// aggregation (a fully-synchronous allreduce-average) and scalar loss
// averaging. Here MPI ranks are modelled as threads of one process
// sharing an MlComm object; every collective is phrased exactly as its
// message-passing counterpart:
//
//  * kReduceScatter — each rank owns 1/k of the vector, reduces it
//    across all ranks in fixed rank order, then all-gathers the owned
//    pieces. This is the decentralized, every-rank-is-a-worker design
//    of the CPE ML Plugin (no parameter servers, §III-D), and is
//    bitwise deterministic.
//  * kCentralRoot — rank 0 reduces everything and redistributes: the
//    centralized gRPC-style scheme the paper cites as non-scalable
//    (Mathuriya et al. 2017), kept as the algorithmic baseline.
//
// Chunked processing emulates the plugin's helper-thread pipelining
// granularity, and an injectable per-rank delay hook reproduces the
// "straggler" effect studied in §II-C/§VI-B.
//
// Beyond the blocking collectives, MlComm implements the plugin's
// helper-thread model (§III-D): allreduce_average_async() posts a
// bucket descriptor to a queue drained by one helper thread per
// communicator, which reduces each bucket with the same fixed-rank-
// order chunk loop as the synchronous path — results are bitwise
// identical — while the rank threads keep computing backprop. wait()
// blocks only for whatever the overlap failed to hide; the hidden vs
// exposed split is recorded in the obs registry (comm/hidden/r{r},
// comm/exposed/r{r}, comm/buckets, comm/overlap_fraction/r{r}).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/barrier.hpp"
#include "runtime/timer.hpp"

namespace cf::comm {

enum class AllreduceAlgorithm { kReduceScatter, kCentralRoot };

struct MlCommConfig {
  AllreduceAlgorithm algorithm = AllreduceAlgorithm::kReduceScatter;
  /// Reduction work is processed in chunks of this many floats,
  /// mirroring the helper-thread pipelining granularity of the plugin.
  std::size_t chunk_elems = 1 << 16;
  /// Test hook: invoked by each rank before it contributes to a
  /// collective (straggler injection).
  std::function<void(int rank)> pre_reduce_hook;
};

class MlComm;

/// Ticket for one in-flight bucket posted with
/// allreduce_average_async(); redeem exactly once with
/// RankHandle::wait(). Default-constructed tickets are invalid.
class PendingReduce {
 public:
  PendingReduce() = default;
  bool valid() const noexcept { return valid_; }

 private:
  friend class MlComm;
  friend class RankHandle;
  std::uint64_t seq_ = 0;       // bucket sequence number (global FIFO)
  double post_seconds_ = 0.0;   // communicator-clock time of the post
  bool valid_ = false;
};

/// Per-rank interface; each rank thread holds one.
class RankHandle {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept;

  void barrier();

  /// Copies root's buffer into every other rank's buffer. All ranks
  /// pass spans of identical size.
  void broadcast(std::span<float> data, int root = 0);

  /// In-place sum-then-divide-by-k over all ranks (the
  /// mc.gradients() call of Algorithm 2). Deterministic.
  void allreduce_average(std::span<float> data);

  /// Nonblocking allreduce-average: posts `data` as one bucket to the
  /// communicator's helper thread and returns immediately. Every rank
  /// must post the same sequence of equally-sized buckets (the i-th
  /// async call of each rank forms one collective); the result lands
  /// in place once wait() returns. Bitwise identical to
  /// allreduce_average over the same elements, regardless of how a
  /// vector is split into buckets. `data` must stay valid and
  /// untouched until wait().
  PendingReduce allreduce_average_async(std::span<float> data);

  /// Blocks until the bucket behind `pending` is reduced, then records
  /// the hidden/exposed timing split for this rank. Invalidates the
  /// ticket.
  void wait(PendingReduce& pending);

  /// Averaged scalar (validation-loss averaging).
  double allreduce_average_scalar(double value);

  /// Wall-clock spent inside collectives on this rank — a snapshot of
  /// the `comm/collective/r<rank>` Stat in the obs registry (each
  /// MlComm resets its ranks' stats at construction). Async buckets
  /// contribute only their *exposed* (blocked-in-wait) portion here.
  runtime::TimeStats comm_time() const;
  void reset_comm_time();

  /// Async-bucket time this rank spent blocked in wait() (exposed on
  /// the critical path) vs hidden behind compute — snapshots of the
  /// comm/exposed/r<rank> and comm/hidden/r<rank> Stats.
  runtime::TimeStats exposed_comm_time() const;
  runtime::TimeStats hidden_comm_time() const;

 private:
  friend class MlComm;
  RankHandle(MlComm* comm, int rank) : comm_(comm), rank_(rank) {}

  MlComm* comm_;
  int rank_;
};

class MlComm {
 public:
  explicit MlComm(int nranks, MlCommConfig config = {});
  ~MlComm();

  int size() const noexcept { return nranks_; }
  RankHandle& handle(int rank);

  /// Convenience harness: spawns `nranks` threads, gives each its
  /// handle, joins. The first exception thrown by any rank is
  /// rethrown.
  void run(const std::function<void(RankHandle&)>& body);

 private:
  friend class RankHandle;

  /// One rank's contribution to an async bucket collective.
  struct BucketPost {
    float* data = nullptr;
    std::size_t size = 0;
  };
  /// Completion record a bucket leaves behind for its waiters.
  struct BucketDone {
    double completed_seconds = 0.0;
    int waiters_left = 0;  // erased when every rank has waited
  };

  void publish(int rank, float* data, std::size_t size);
  void do_broadcast(int rank, std::span<float> data, int root);
  void do_allreduce(int rank, std::span<float> data);
  void reduce_scatter_allgather(int rank, std::span<float> data);
  void central_root(int rank, std::span<float> data);
  void check_uniform_size_locked(std::size_t size);

  PendingReduce post_async(int rank, std::span<float> data);
  void wait_async(int rank, PendingReduce& pending);
  void helper_loop();
  void reduce_bucket(const std::vector<BucketPost>& posts);
  void set_async_error_locked(std::exception_ptr error);

  int nranks_;
  MlCommConfig config_;
  runtime::Barrier barrier_;
  std::vector<RankHandle> handles_;
  std::vector<float*> slots_;
  std::vector<std::size_t> slot_sizes_;
  std::vector<float> reduce_buffer_;
  std::vector<double> scalar_slots_;

  // --- async bucket queue, serviced by the helper thread -----------
  runtime::Stopwatch comm_clock_;  // shared time base for post/complete
  std::mutex async_mutex_;
  std::condition_variable async_work_cv_;  // wakes the helper
  std::condition_variable async_done_cv_;  // wakes waiting ranks
  std::vector<std::deque<BucketPost>> async_posts_;  // per rank, FIFO
  std::vector<std::uint64_t> posted_count_;          // per rank
  std::uint64_t completed_count_ = 0;
  std::unordered_map<std::uint64_t, BucketDone> completed_;
  std::vector<float> async_scratch_;  // helper-thread private
  std::exception_ptr async_error_;
  std::thread helper_;          // started lazily on the first post
  bool helper_stop_ = false;

  // Telemetry handles (obs registry), looked up once at construction.
  std::vector<obs::Stat*> comm_stats_;     // comm/collective/r<rank>
  std::vector<obs::Stat*> exposed_stats_;  // comm/exposed/r<rank>
  std::vector<obs::Stat*> hidden_stats_;   // comm/hidden/r<rank>
  std::vector<obs::Gauge*> overlap_gauges_;  // comm/overlap_fraction/r<r>
  obs::Counter* allreduce_calls_ = nullptr;
  obs::Counter* allreduce_bytes_ = nullptr;
  obs::Counter* allreduce_chunks_ = nullptr;
  obs::Counter* bucket_count_ = nullptr;
};

}  // namespace cf::comm
