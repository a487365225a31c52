#include "serve/server.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"

namespace cf::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

ServerConfig sanitized(ServerConfig config) {
  if (config.workers == 0) config.workers = 1;
  // threads_per_worker == 0 is meaningful (cost-model auto) and is
  // resolved in the Server constructor once the network is known.
  if (config.queue_capacity == 0) config.queue_capacity = 1;
  return config;
}

}  // namespace

Server::Server(std::shared_ptr<const dnn::Network> network,
               ServerConfig config)
    : network_(std::move(network)),
      config_(sanitized(std::move(config))),
      queue_(config_.queue_capacity) {
  if (network_ == nullptr || !network_->finalized()) {
    throw std::invalid_argument(
        "serve::Server: requires a finalized Network");
  }
  if (!network_->precision_prepared(config_.precision)) {
    throw std::invalid_argument(
        std::string("serve::Server: network not prepared for ") +
        std::string(dnn::to_string(config_.precision)) +
        " (call prepare_inference_precision before constructing)");
  }
  if (config_.threads_per_worker == 0) {
    // Cost-model auto mode (DESIGN.md §2.6): split the machine's
    // hardware-thread budget across the worker streams and take the
    // model's per-layer grains. Resolved here, before any worker thread
    // starts, so worker_loop sees a concrete thread count.
    const dnn::CostModel cost_model(*network_);
    intraop_plan_ = cost_model.choose(
        runtime::ThreadPool::default_num_threads(), config_.workers);
    config_.threads_per_worker = intraop_plan_.threads_per_stream;
    intraop_auto_ = true;
  }
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back(&Server::worker_loop, this, i);
  }
}

Server::~Server() { shutdown(); }

SubmitStatus Server::submit(tensor::Tensor input,
                            std::future<InferenceResult>* result) {
  if (input.shape() != network_->input_shape()) {
    throw std::invalid_argument("serve::Server::submit: input shape " +
                                input.shape().to_string() + ", expected " +
                                network_->input_shape().to_string());
  }
  Request request;
  request.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  request.input = std::move(input);
  request.submit_time = Clock::now();
  std::future<InferenceResult> future = request.promise.get_future();

  const SubmitStatus status = queue_.try_push(std::move(request));
  if (status == SubmitStatus::kAccepted) {
    accepted_.add();
    if (result != nullptr) *result = std::move(future);
  } else if (status == SubmitStatus::kOverloaded) {
    rejected_.add();
  }
  return status;
}

void Server::worker_loop(std::size_t worker_index) {
  // Per-stream state, built once: the lean forward-only context plus a
  // private worker pool. The Network is shared and read-only.
  dnn::ExecContext ctx =
      intraop_auto_
          ? network_->make_context(dnn::ExecMode::kInference,
                                   config_.precision, intraop_plan_)
          : network_->make_context(dnn::ExecMode::kInference,
                                   config_.precision);
  runtime::ThreadPool pool(config_.threads_per_worker);

  Request request;
  while (queue_.pop(&request)) {
    InferenceResult result;
    result.request_id = request.id;
    result.worker = worker_index;
    result.queue_seconds = seconds_between(request.submit_time, Clock::now());
    // A forward that throws fails its own request only; the worker and
    // its context go on to the next one.
    try {
      const runtime::Stopwatch compute_watch;
      {
        CF_TRACE_SCOPE("serve/infer", "serve");
        // fp32 inference forward reads request.input in place
        // (no staging copy — DESIGN.md §2.7); the request owns its
        // tensor for the whole call, so the aliasing contract holds.
        result.output = ctx.forward(request.input, pool).to_vector();
      }
      result.compute_seconds = compute_watch.elapsed_seconds();
      result.total_seconds =
          seconds_between(request.submit_time, Clock::now());
      latency_.add(result.total_seconds);
      completed_.add();
      request.promise.set_value(std::move(result));
    } catch (...) {
      request.promise.set_exception(std::current_exception());
    }
  }
}

void Server::shutdown() {
  const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (stopped_) return;
  // Stop admission; the workers drain whatever was accepted and exit —
  // every accepted request resolves its future.
  queue_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  stopped_ = true;
}

}  // namespace cf::serve
