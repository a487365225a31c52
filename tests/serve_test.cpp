// cf::serve — the inference service (SERVING.md).
//
// The load-bearing property is the serving determinism rule
// (DESIGN.md §2.4): a request's result is bitwise identical no matter
// which worker stream runs it, what ran on that stream before, or what
// else is in flight. Everything else pinned here is the service
// contract: typed Overloaded rejection under load, a throwing forward
// that fails only its own request, clean shutdown that drains in-flight
// work, and an inference context that never reallocates once warm (the
// property a long-lived server leans on). The TSan gate (scripts/
// check_sanitizers.sh tsan) runs the Serve* suites.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/topology.hpp"
#include "dnn/layer.hpp"
#include "dnn/network.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "tensor/tensor_ops.hpp"

namespace cf {
namespace {

using serve::InferenceResult;
using serve::Server;
using serve::ServerConfig;
using serve::SubmitStatus;
using tensor::Tensor;

std::shared_ptr<const dnn::Network> make_network(std::int64_t dhw,
                                                 std::uint64_t seed) {
  return std::make_shared<const dnn::Network>(
      core::build_network(core::cosmoflow_scaled(dhw), seed));
}

std::vector<Tensor> make_inputs(const dnn::Network& net, std::size_t n,
                                std::uint64_t seed) {
  std::vector<Tensor> inputs;
  inputs.reserve(n);
  runtime::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    Tensor input(net.input_shape());
    tensor::fill_normal(input, rng, 0.0f, 1.0f);
    inputs.push_back(std::move(input));
  }
  return inputs;
}

// Serial single-stream reference: what forward() says outside any
// server or threading, in `precision`.
std::vector<std::vector<float>> reference_outputs(
    const dnn::Network& net, const std::vector<Tensor>& inputs,
    dnn::Precision precision = dnn::Precision::kFp32) {
  dnn::ExecContext ctx =
      net.make_context(dnn::ExecMode::kInference, precision);
  runtime::ThreadPool pool(1);
  std::vector<std::vector<float>> outputs;
  outputs.reserve(inputs.size());
  for (const Tensor& input : inputs) {
    outputs.push_back(ctx.forward(input, pool).to_vector());
  }
  return outputs;
}

// Submit, retrying politely while the server sheds load. Fails the
// test if the server shut down underneath us.
std::future<InferenceResult> submit_until_accepted(Server& server,
                                                   const Tensor& input) {
  for (;;) {
    std::future<InferenceResult> future;
    const SubmitStatus status = server.submit(input.clone(), &future);
    if (status == SubmitStatus::kAccepted) return future;
    EXPECT_EQ(status, SubmitStatus::kOverloaded);
    std::this_thread::yield();
  }
}

// --- Admission control: beyond the queue budget, a typed no. ---

TEST(Serve, OverloadedSubmissionsGetTypedRejection) {
  const auto net = make_network(8, 5);
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  Server server(net, config);

  // Total absorption before rejection: the queue (1) + the one request
  // the worker holds (1), plus the few the worker manages to finish
  // while we submit. 32 back-to-back submissions must overflow that.
  const std::vector<Tensor> inputs = make_inputs(*net, 32, 7);
  std::vector<std::future<InferenceResult>> accepted;
  std::size_t rejected = 0;
  for (const Tensor& input : inputs) {
    std::future<InferenceResult> future;
    const SubmitStatus status = server.submit(input.clone(), &future);
    if (status == SubmitStatus::kAccepted) {
      accepted.push_back(std::move(future));
    } else {
      ASSERT_EQ(status, SubmitStatus::kOverloaded);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(serve::to_string(SubmitStatus::kOverloaded), "overloaded");

  // Every accepted request still resolves; rejected ones never queued.
  for (auto& future : accepted) {
    EXPECT_FALSE(future.get().output.empty());
  }
  server.shutdown();
  EXPECT_EQ(server.accepted(), static_cast<std::int64_t>(accepted.size()));
  EXPECT_EQ(server.rejected(), static_cast<std::int64_t>(rejected));
  EXPECT_EQ(server.completed(), static_cast<std::int64_t>(accepted.size()));
  EXPECT_EQ(accepted.size() + rejected, inputs.size());
}

// --- Racing client threads, across worker layouts and precisions:
// still the serial bits. A two-slot queue makes the clients hit
// kOverloaded and retry. The TSan gate runs this test. ---

TEST(Serve, ConcurrentSubmittersMatchSerialReference) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 5;
  // bf16 is prepared before the const handle is taken, as a server
  // requires; preparing it leaves the fp32 weights untouched.
  auto mutable_net = std::make_shared<dnn::Network>(
      core::build_network(core::cosmoflow_scaled(8), 17));
  mutable_net->prepare_inference_precision(dnn::Precision::kBf16);
  const std::shared_ptr<const dnn::Network> net = mutable_net;

  // Client c sends inputs[c * kPerClient, (c + 1) * kPerClient).
  const std::vector<Tensor> inputs =
      make_inputs(*net, kClients * kPerClient, 41);

  struct Layout {
    std::size_t workers;
    std::size_t threads_per_worker;  // 0 = cost-model auto
    dnn::Precision precision;
  };
  const Layout layouts[] = {
      {1, 1, dnn::Precision::kFp32},
      {2, 2, dnn::Precision::kFp32},
      {2, 1, dnn::Precision::kBf16},
      {3, 0, dnn::Precision::kFp32},
  };
  for (const Layout& layout : layouts) {
    const std::string name =
        std::to_string(layout.workers) + " workers x " +
        std::to_string(layout.threads_per_worker) + " threads, " +
        std::string(dnn::to_string(layout.precision));
    const std::vector<std::vector<float>> expected =
        reference_outputs(*net, inputs, layout.precision);

    ServerConfig config;
    config.workers = layout.workers;
    config.threads_per_worker = layout.threads_per_worker;
    config.precision = layout.precision;
    config.queue_capacity = 2;
    Server server(net, config);

    std::vector<InferenceResult> actual(inputs.size());
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&server, &inputs, &actual, c] {
        for (std::size_t i = c * kPerClient; i < (c + 1) * kPerClient; ++i) {
          actual[i] = submit_until_accepted(server, inputs[i]).get();
        }
      });
    }
    for (auto& client : clients) client.join();
    server.shutdown();

    for (std::size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_EQ(tensor::max_abs_diff(actual[i].output, expected[i]), 0.0f)
          << name << ", request " << i;
      EXPECT_LT(actual[i].worker, layout.workers) << name;
      EXPECT_GE(actual[i].total_seconds, actual[i].compute_seconds) << name;
    }
    EXPECT_EQ(server.completed(), static_cast<std::int64_t>(inputs.size()))
        << name;
    EXPECT_EQ(server.latency().count, inputs.size()) << name;
  }
}

// --- A forward that throws fails that one request; the worker keeps
// serving. ---

// Doubles its input, and throws when the first value is the sentinel.
class ThrowOnSentinel final : public dnn::Layer {
 public:
  static constexpr float kSentinel = -1234.5f;

  ThrowOnSentinel() : Layer("throw_on_sentinel") {}
  std::string kind() const override { return "activation"; }
  tensor::Shape plan(const tensor::Shape& input) override {
    set_shapes(input, input);
    return input;
  }

  void forward(const Tensor& src, Tensor& dst, dnn::LayerExecState&,
               runtime::ThreadPool&) const override {
    if (src.data()[0] == kSentinel) {
      throw std::runtime_error("sentinel request");
    }
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst.data()[i] = 2.0f * src.data()[i];
    }
  }
  void backward_data(const Tensor&, const Tensor&, const Tensor&, Tensor&,
                     dnn::LayerExecState&,
                     runtime::ThreadPool&) const override {
    throw std::logic_error("ThrowOnSentinel: inference only");
  }
};

TEST(Serve, ForwardThrowFailsOnlyThatRequest) {
  auto mutable_net = std::make_shared<dnn::Network>();
  mutable_net->emplace<ThrowOnSentinel>();
  mutable_net->finalize(tensor::Shape{1, 4, 4, 4});
  const std::shared_ptr<const dnn::Network> net = mutable_net;

  std::vector<Tensor> inputs = make_inputs(*net, 5, 43);
  constexpr std::size_t kBad = 2;
  inputs[kBad].data()[0] = ThrowOnSentinel::kSentinel;
  std::vector<Tensor> good;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (i != kBad) good.push_back(inputs[i].clone());
  }
  const std::vector<std::vector<float>> expected =
      reference_outputs(*net, good);

  ServerConfig config;
  config.workers = 1;
  Server server(net, config);
  std::vector<std::future<InferenceResult>> futures;
  for (const Tensor& input : inputs) {
    futures.push_back(submit_until_accepted(server, input));
  }
  std::size_t next_good = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (i == kBad) {
      EXPECT_THROW(futures[i].get(), std::runtime_error);
      continue;
    }
    EXPECT_EQ(tensor::max_abs_diff(futures[i].get().output,
                                   expected[next_good++]),
              0.0f)
        << "request " << i;
  }
  server.shutdown();
  EXPECT_EQ(server.completed(), static_cast<std::int64_t>(good.size()));
}

// --- Shutdown drains: every accepted future resolves, then the door
// closes with a typed status. ---

TEST(Serve, ShutdownDrainsInFlightRequests) {
  const auto net = make_network(8, 25);
  ServerConfig config;
  config.workers = 1;
  Server server(net, config);

  const std::vector<Tensor> inputs = make_inputs(*net, 12, 27);
  std::vector<std::future<InferenceResult>> futures;
  for (const Tensor& input : inputs) {
    futures.push_back(submit_until_accepted(server, input));
  }
  // Most of these are still queued; shutdown must deliver them all,
  // not drop them.
  server.shutdown();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << i;
    EXPECT_FALSE(futures[i].get().output.empty()) << "request " << i;
  }
  EXPECT_EQ(server.completed(), static_cast<std::int64_t>(inputs.size()));

  // The door is closed, and says so.
  std::future<InferenceResult> late;
  EXPECT_EQ(server.submit(inputs[0].clone(), &late),
            SubmitStatus::kShutdown);
  // Idempotent: destructor will call shutdown() again.
  server.shutdown();
}

// --- Malformed requests are errors, not load conditions. ---

TEST(Serve, SubmitRejectsWrongInputShape) {
  const auto net = make_network(8, 3);
  ServerConfig config;
  config.workers = 1;
  Server server(net, config);
  Tensor wrong(tensor::Shape{1, 4, 4, 4});
  wrong.fill(0.0f);
  EXPECT_THROW(server.submit(std::move(wrong), nullptr),
               std::invalid_argument);
  EXPECT_EQ(server.accepted(), 0);
}

// --- Each server counts only its own requests: a second server with
// the same config starts from zero and leaves the first's figures
// alone. ---

TEST(Serve, TwoServersKeepTheirOwnCounters) {
  const auto net = make_network(8, 11);
  const std::vector<Tensor> inputs = make_inputs(*net, 5, 13);
  ServerConfig config;
  config.workers = 1;
  const auto serve_first = [&](Server& server, std::size_t n) {
    std::vector<std::future<InferenceResult>> futures;
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(submit_until_accepted(server, inputs[i]));
    }
    for (auto& future : futures) future.get();
    server.shutdown();
  };

  Server first(net, config);
  serve_first(first, 5);
  ASSERT_EQ(first.completed(), 5);
  Server second(net, config);
  EXPECT_EQ(first.completed(), 5);
  serve_first(second, 2);

  EXPECT_EQ(first.accepted(), 5);
  EXPECT_EQ(first.completed(), 5);
  EXPECT_EQ(first.latency().count, 5u);
  EXPECT_EQ(second.accepted(), 2);
  EXPECT_EQ(second.completed(), 2);
  EXPECT_EQ(second.latency().count, 2u);
}

// --- The const-Network handle serving rests on: inference streams
// only; training through a shared read-only model is a hard error. ---

TEST(Serve, ConstNetworkHandsOutInferenceContextsOnly) {
  const auto net = make_network(8, 19);
  dnn::ExecContext ctx = net->make_context(dnn::ExecMode::kInference);
  runtime::ThreadPool pool(1);
  Tensor input(net->input_shape());
  runtime::Rng rng(23);
  tensor::fill_normal(input, rng, 0.0f, 1.0f);
  EXPECT_EQ(ctx.forward(input, pool).to_vector().size(),
            static_cast<std::size_t>(net->output_shape().numel()));
  EXPECT_THROW(net->make_context(dnn::ExecMode::kTraining),
               std::logic_error);
}

// --- Server-style reuse: one warm inference context sweeps hundreds
// of varying requests without a single reallocation. The footprint
// read at construction stays the truth for the whole run. ---

TEST(ServeContextReuse, NoReallocationAcrossHundredsOfBatches) {
  const auto net = make_network(16, 29);
  dnn::ExecContext ctx = net->make_context(dnn::ExecMode::kInference);
  runtime::ThreadPool pool(2);

  const std::size_t activation_bytes = ctx.activation_bytes();
  const std::size_t total_bytes = ctx.total_bytes();

  // Warm-up request, kept as the bitwise anchor.
  runtime::Rng rng(31);
  Tensor anchor(net->input_shape());
  tensor::fill_normal(anchor, rng, 0.0f, 1.0f);
  const std::vector<float> anchor_out =
      ctx.forward(anchor, pool).to_vector();

  constexpr int kRequests = 200;
  for (int i = 0; i < kRequests; ++i) {
    Tensor input(net->input_shape());
    // Vary the distribution, not just the sample, across requests.
    tensor::fill_normal(input, rng, static_cast<float>(i % 7) * 0.1f,
                        0.5f + static_cast<float>(i % 3) * 0.5f);
    ctx.forward(input, pool);
    if (i % 50 == 0) {
      EXPECT_EQ(ctx.activation_bytes(), activation_bytes) << "req " << i;
      EXPECT_EQ(ctx.total_bytes(), total_bytes) << "req " << i;
    }
  }
  // Still exactly the construction-time footprint…
  EXPECT_EQ(ctx.activation_bytes(), activation_bytes);
  EXPECT_EQ(ctx.total_bytes(), total_bytes);
  // …and still exactly the warm-up bits (state from 200 intervening
  // requests leaked nothing into the arenas).
  EXPECT_EQ(tensor::max_abs_diff(ctx.forward(anchor, pool).to_vector(),
                                 anchor_out),
            0.0f);
}

}  // namespace
}  // namespace cf
