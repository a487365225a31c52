// Bounded MPMC request queue with admission control — the front door
// of the inference service (SERVING.md).
//
// Producers are client threads calling Server::submit(); the consumers
// are the worker streams. The queue never blocks a producer: when depth
// has reached the capacity budget, try_push rejects with a typed
// Overloaded status instead of queueing unbounded work — the
// load-shedding half of the paper-era QueueRunner idiom that
// cf::data::Pipeline uses for training I/O, inverted for serving
// (training backpressure *blocks* the producer because every sample
// must be seen; serving backpressure *rejects* because a client is
// better served by a fast no than a slow yes).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "tensor/tensor.hpp"

namespace cf::serve {

/// Typed admission verdict for one submission.
enum class SubmitStatus {
  kAccepted,    // queued; the future will be fulfilled
  kOverloaded,  // queue depth at capacity; request dropped, try later
  kShutdown,    // server no longer accepts work
};

std::string_view to_string(SubmitStatus status) noexcept;

/// What a completed request resolves to.
struct InferenceResult {
  std::vector<float> output;  // network output values (e.g. the 3
                              // predicted cosmological parameters)
  std::uint64_t request_id = 0;
  std::size_t worker = 0;        // worker stream that ran it
  double queue_seconds = 0.0;    // submit -> a worker popped it
  double compute_seconds = 0.0;  // forward pass on the worker
  double total_seconds = 0.0;    // submit -> result ready
};

/// One queued inference request.
struct Request {
  std::uint64_t id = 0;
  tensor::Tensor input;
  std::promise<InferenceResult> promise;
  std::chrono::steady_clock::time_point submit_time;
};

class RequestQueue {
 public:
  /// `depth_gauge` (optional) tracks the live queue depth.
  explicit RequestQueue(std::size_t capacity,
                        obs::Gauge* depth_gauge = nullptr);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Non-blocking admission: rejects instead of waiting. On kAccepted
  /// the request has been moved in; on rejection it is left untouched
  /// so the caller can fail its promise.
  SubmitStatus try_push(Request&& request);

  /// Blocks until a request arrives; false once the queue is closed
  /// *and* empty (close drains: queued requests are still delivered
  /// after close()).
  bool pop(Request* out);

  /// Stops admission (try_push -> kShutdown) and wakes poppers; queued
  /// requests remain poppable so shutdown can drain in-flight work.
  void close();

  std::size_t depth() const;

 private:
  void update_gauge_locked();

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<Request> items_;
  const std::size_t capacity_;
  bool closed_ = false;
  obs::Gauge* depth_gauge_ = nullptr;
};

}  // namespace cf::serve
