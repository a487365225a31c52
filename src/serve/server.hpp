// cf::serve — inference service over the model/stream split
// (DESIGN.md §2.3, SERVING.md).
//
// Pipeline: client threads -> bounded RequestQueue (admission control,
// typed Overloaded rejection) -> N worker streams, each popping
// requests straight off the queue and running them one at a time. The
// kernels are batch-1 (paper §III-A), so grouping requests would save
// no compute. Each worker owns one inference ExecContext and one
// private ThreadPool over a single shared `shared_ptr<const Network>` —
// many streams, one weight copy, zero parameter duplication. The queue
// is the one buffer: while every worker is busy it fills, and once it
// holds queue_capacity requests admission starts shedding.
//
// The serving determinism rule (DESIGN.md §2.4): a request's result is
// bitwise identical no matter which worker runs it, what ran on that
// worker's context before, or what else is in flight — forward() is a
// pure function of (weights, input) because every kernel reduction is
// order-deterministic (§2.1) and a context's forward fully overwrites
// its arenas. tests/serve_test pins this.
//
// Each Server counts its own accepted, rejected and completed requests
// and keeps its own end-to-end latency histogram (p50/p99/p999), read
// through the accessors below; every InferenceResult carries its
// request's queue/compute/total split. See OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dnn/cost_model.hpp"
#include "dnn/network.hpp"
#include "obs/metrics.hpp"
#include "serve/request_queue.hpp"
#include "tensor/tensor.hpp"

namespace cf::serve {

struct ServerConfig {
  /// Worker streams; each owns one inference ExecContext + ThreadPool.
  std::size_t workers = 2;
  /// Intra-op threads per worker stream (1 = serial kernels). 0 = auto:
  /// the dnn::CostModel splits the machine's hardware-thread budget
  /// across the configured workers and picks the per-layer kernel
  /// grains for that width (DESIGN.md §2.6). On a 1-core host auto
  /// resolves to 1 thread per worker.
  std::size_t threads_per_worker = 1;
  /// Admission budget: submissions beyond this queue depth are
  /// rejected with SubmitStatus::kOverloaded. Besides the queue, each
  /// worker holds the one request it is running.
  std::size_t queue_capacity = 64;
  /// Inference precision for every worker context (DESIGN.md §2.5).
  /// Non-fp32 requires the shared Network to have been prepared via
  /// prepare_inference_precision before the server is built; the
  /// constructor rejects an unprepared mode.
  dnn::Precision precision = dnn::Precision::kFp32;
};

/// Inference server. Construction spawns the worker streams;
/// shutdown() (or the destructor) stops admission, drains every
/// in-flight request, and joins.
class Server {
 public:
  Server(std::shared_ptr<const dnn::Network> network, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Non-blocking submission. On kAccepted, `*result` (if non-null)
  /// receives the future that resolves when a worker completes the
  /// request; on kOverloaded / kShutdown nothing is queued and
  /// `*result` is untouched. Throws std::invalid_argument on an input
  /// shape mismatch (a malformed request, not a load condition).
  SubmitStatus submit(tensor::Tensor input,
                      std::future<InferenceResult>* result);

  /// Stops admission, drains every accepted request through the
  /// workers, joins all threads. Idempotent; called by the destructor.
  void shutdown();

  std::size_t queue_depth() const { return queue_.depth(); }
  const ServerConfig& config() const noexcept { return config_; }
  const dnn::Network& network() const noexcept { return *network_; }

  /// Submissions this server admitted / shed with kOverloaded.
  std::int64_t accepted() const noexcept { return accepted_.value(); }
  std::int64_t rejected() const noexcept { return rejected_.value(); }
  /// Requests whose forward finished; one that threw is not completed.
  std::int64_t completed() const noexcept { return completed_.value(); }
  /// End-to-end submit→result seconds of the completed requests.
  obs::HistogramSnapshot latency() const { return latency_.snapshot(); }

 private:
  void worker_loop(std::size_t worker_index);

  std::shared_ptr<const dnn::Network> network_;
  ServerConfig config_;
  RequestQueue queue_;

  // Cost-model plan applied to every worker context when the config
  // asked for auto threading (threads_per_worker == 0). Resolved once
  // in the constructor, before any worker thread starts.
  dnn::IntraopPlan intraop_plan_;
  bool intraop_auto_ = false;

  obs::Counter accepted_;
  obs::Counter rejected_;
  obs::Counter completed_;
  obs::Histogram latency_;

  std::atomic<std::uint64_t> next_request_id_{0};

  std::vector<std::thread> workers_;
  std::mutex lifecycle_mutex_;
  bool stopped_ = false;
};

}  // namespace cf::serve
