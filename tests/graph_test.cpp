// dnn::Graph — the explicit-edge IR under Network (DESIGN.md §2.8).
//
// Pins the four load-bearing properties of the graph refactor:
//  (a) sequential topologies lowered onto linear graphs stay bitwise
//      identical across fusion x memory-planning x precision x thread
//      counts — the refactor is invisible to every existing workload;
//  (b) fan-in gradient accumulation is deterministic (bitwise-repeatable
//      and planner-invariant) and edge-aware fusion refuses multi-
//      consumer and head-pinned producers;
//  (c) the residual multi-head demo topology backpropagates correctly
//      (gradient check against central finite differences) and trains
//      and serves end to end through cf::serve;
//  (d) per-shape inference contexts (Network::make_shape_view) agree
//      bitwise with a dedicated network planned at the same shape, and
//      run concurrently against the parent (the TSan smoke in
//      scripts/check_sanitizers.sh runs Graph*.* with a concurrent
//      per-shape-context leg).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/topology.hpp"
#include "dnn/activations.hpp"
#include "dnn/dense.hpp"
#include "dnn/graph.hpp"
#include "dnn/graph_ops.hpp"
#include "dnn/loss.hpp"
#include "dnn/network.hpp"
#include "optim/adam.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "tensor/tensor_ops.hpp"

namespace cf {
namespace {

using dnn::ExecMode;
using dnn::kGraphInput;
using dnn::NodeId;
using dnn::Precision;
using tensor::Shape;
using tensor::Tensor;

Tensor random_input(const Shape& shape, std::uint64_t seed) {
  Tensor t(shape);
  runtime::Rng rng(seed);
  tensor::fill_normal(t, rng, 0.0f, 1.0f);
  return t;
}

std::vector<float> random_vector(std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  runtime::Rng rng(seed);
  for (float& x : v) x = rng.normal(0.0f, 1.0f);
  return v;
}

// --- Graph construction contract ------------------------------------

TEST(Graph, RejectsMalformedTopologies) {
  // Forward references: inputs must already exist.
  {
    dnn::Network net;
    EXPECT_THROW(net.emplace_node<dnn::Dense>({NodeId{3}}, "d", 4, 4),
                 std::invalid_argument);
  }
  // Arity mismatch: Add wants as many edges as its arity.
  {
    dnn::Network net;
    NodeId d = net.emplace_node<dnn::Dense>({kGraphInput}, "d", 4, 4);
    EXPECT_THROW(net.emplace_node<dnn::Add>({d}, "add"),
                 std::invalid_argument);
  }
  // Dead non-head nodes are an error, not silent dead code.
  {
    dnn::Network net;
    NodeId d1 = net.emplace_node<dnn::Dense>({kGraphInput}, "d1", 4, 4);
    net.emplace_node<dnn::Dense>({d1}, "dead", 4, 2);
    NodeId d3 = net.emplace_node<dnn::Dense>({d1}, "d3", 4, 3);
    net.set_heads({d3});
    EXPECT_THROW(net.finalize(Shape{4}), std::logic_error);
  }
  // No mutation after finalize.
  {
    dnn::Network net;
    net.emplace_node<dnn::Dense>({kGraphInput}, "d", 4, 4);
    net.finalize(Shape{4});
    EXPECT_THROW(net.emplace_node<dnn::Dense>({NodeId{0}}, "late", 4, 2),
                 std::logic_error);
    EXPECT_THROW(net.set_heads({NodeId{0}}), std::logic_error);
  }
}

// --- (a) Sequential lowering is bitwise plan-invariant ---------------

TEST(GraphSequential, TrainingBitwiseAcrossPlansAndThreads) {
  const core::TopologyConfig topology = core::cosmoflow_scaled(8);
  const Shape in_shape = core::input_shape(topology);
  const std::size_t out_n =
      static_cast<std::size_t>(topology.outputs);
  const int steps = 3;
  std::vector<Tensor> inputs;
  for (int s = 0; s < steps; ++s) {
    inputs.push_back(random_input(in_shape, 100 + s));
  }
  const std::vector<float> target = random_vector(out_n, 55);

  std::vector<float> ref_losses;
  std::vector<float> ref_params;
  bool first = true;
  for (const bool fuse : {true, false}) {
    for (const bool memplan : {true, false}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        dnn::Network net =
            core::build_network(topology, 42, fuse, memplan);
        dnn::ExecContext ctx = net.make_context(ExecMode::kTraining);
        runtime::ThreadPool pool(threads);
        optim::AdamState adam(net.param_arena().size(),
                              optim::AdamConfig{});
        std::vector<float> grads(net.param_arena().size());
        std::vector<float> losses;
        Tensor dloss(net.output_shape());
        for (int s = 0; s < steps; ++s) {
          const Tensor& pred = ctx.forward(inputs[s], pool);
          losses.push_back(dnn::mse_loss(
              {pred.data(), pred.size()}, target));
          dnn::mse_loss_grad({pred.data(), pred.size()}, target,
                             {dloss.data(), dloss.size()});
          ctx.zero_grads();
          ctx.backward(dloss, pool);
          ctx.copy_grads_to(grads);
          adam.step(net.param_arena(), grads, 1e-3);
        }
        std::vector<float> params(net.param_arena().size());
        net.copy_params_to(params);
        if (first) {
          ref_losses = losses;
          ref_params = params;
          first = false;
        } else {
          EXPECT_EQ(losses, ref_losses)
              << "fuse=" << fuse << " memplan=" << memplan
              << " threads=" << threads;
          EXPECT_EQ(params, ref_params)
              << "fuse=" << fuse << " memplan=" << memplan
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(GraphSequential, InferenceBitwiseAcrossPlansAndPrecisions) {
  const core::TopologyConfig topology = core::cosmoflow_scaled(8);
  const Tensor input = random_input(core::input_shape(topology), 9);
  for (const Precision precision :
       {Precision::kFp32, Precision::kBf16}) {
    std::vector<float> ref;
    bool first = true;
    for (const bool fuse : {true, false}) {
      for (const bool memplan : {true, false}) {
        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{3}}) {
          dnn::Network net =
              core::build_network(topology, 42, fuse, memplan);
          net.prepare_inference_precision(precision);
          dnn::ExecContext ctx =
              net.make_context(ExecMode::kInference, precision);
          runtime::ThreadPool pool(threads);
          const std::vector<float> out =
              ctx.forward(input, pool).to_vector();
          if (first) {
            ref = out;
            first = false;
          } else {
            EXPECT_EQ(out, ref)
                << "precision=" << static_cast<int>(precision)
                << " fuse=" << fuse << " memplan=" << memplan
                << " threads=" << threads;
          }
        }
      }
    }
  }
}

// --- (b) Edge-aware fusion and deterministic fan-in ------------------

TEST(GraphFusion, RefusesMultiConsumerAndPinnedProducers) {
  // d1 feeds both its activation and a second head directly: fusing
  // the activation into d1 would change what the second consumer reads.
  {
    dnn::Network net;
    net.set_fuse_eltwise(true);
    NodeId d1 = net.emplace_node<dnn::Dense>({kGraphInput}, "d1", 8, 8);
    NodeId a = net.emplace_node<dnn::LeakyRelu>({d1}, "a", 0.01f);
    NodeId h1 = net.emplace_node<dnn::Dense>({a}, "h1", 8, 3);
    NodeId h2 = net.emplace_node<dnn::Dense>({d1}, "h2", 8, 2);
    net.set_heads({h1, h2});
    net.finalize(Shape{8});
    EXPECT_EQ(net.fused_pairs(), 0u);
    EXPECT_EQ(net.layer_count(), 4u);
  }
  // d1 is itself a head: its pre-activation values are an output and
  // must survive, so the activation stays standalone.
  {
    dnn::Network net;
    net.set_fuse_eltwise(true);
    NodeId d1 = net.emplace_node<dnn::Dense>({kGraphInput}, "d1", 8, 8);
    NodeId a = net.emplace_node<dnn::LeakyRelu>({d1}, "a", 0.01f);
    NodeId h1 = net.emplace_node<dnn::Dense>({a}, "h1", 8, 3);
    net.set_heads({h1, d1});
    net.finalize(Shape{8});
    EXPECT_EQ(net.fused_pairs(), 0u);
  }
  // Sole-consumer activation on a non-head producer fuses as before.
  {
    dnn::Network net;
    net.set_fuse_eltwise(true);
    NodeId d1 = net.emplace_node<dnn::Dense>({kGraphInput}, "d1", 8, 8);
    NodeId a = net.emplace_node<dnn::LeakyRelu>({d1}, "a", 0.01f);
    NodeId h1 = net.emplace_node<dnn::Dense>({a}, "h1", 8, 3);
    net.set_heads({h1});
    net.finalize(Shape{8});
    EXPECT_EQ(net.fused_pairs(), 1u);
    EXPECT_EQ(net.layer_count(), 2u);
  }
}

TEST(GraphFanIn, DuplicateEdgesSumInOrder) {
  // Add(d, d) must read the same producer twice: forward is exactly
  // 2 * d(x) (exact in fp32), and d's gradient is twice the single-edge
  // contribution. Add(d, d, d) merges two contributions into d's diff
  // within one node: forward is 3 * d(x) (one rounding either way), and
  // the diff (dl + dl) + dl rounds exactly like 3 * dl, so d's gradient
  // equals that of the single-edge network fed 3 * dloss (three times
  // the single-edge gradient would round differently).
  for (const std::size_t arity : {std::size_t{2}, std::size_t{3}}) {
    dnn::Network multi;
    NodeId d = multi.emplace_node<dnn::Dense>({kGraphInput}, "d", 4, 4);
    multi.emplace_node<dnn::Add>(std::vector<NodeId>(arity, d), "add",
                                 arity);
    multi.finalize(Shape{4});

    dnn::Network once;
    once.emplace_node<dnn::Dense>({kGraphInput}, "d", 4, 4);
    once.finalize(Shape{4});

    const std::vector<float> params =
        random_vector(multi.param_arena().size(), 3);
    multi.set_params_from(params);
    once.set_params_from(params);

    const Tensor input = random_input(Shape{4}, 4);
    runtime::ThreadPool pool(1);
    dnn::ExecContext ctxn = multi.make_context(ExecMode::kTraining);
    dnn::ExecContext ctx1 = once.make_context(ExecMode::kTraining);
    const Tensor& outn = ctxn.forward(input, pool);
    const Tensor& out1 = ctx1.forward(input, pool);
    const float edges = static_cast<float>(arity);
    for (std::size_t i = 0; i < outn.size(); ++i) {
      EXPECT_EQ(outn.data()[i], edges * out1.data()[i])
          << "arity " << arity << " elem " << i;
    }

    Tensor dloss(Shape{4});
    for (std::size_t i = 0; i < dloss.size(); ++i) {
      dloss.data()[i] = 1.0f + static_cast<float>(i);
    }
    Tensor dloss1 = dloss.clone();
    if (arity == 3) tensor::scale(dloss1.values(), 3.0f);
    ctxn.zero_grads();
    ctxn.backward(dloss, pool);
    ctx1.zero_grads();
    ctx1.backward(dloss1, pool);
    std::vector<float> gn(multi.param_arena().size());
    std::vector<float> g1(once.param_arena().size());
    ctxn.copy_grads_to(gn);
    ctx1.copy_grads_to(g1);
    for (std::size_t i = 0; i < gn.size(); ++i) {
      if (arity == 2) {
        EXPECT_EQ(gn[i], 2.0f * g1[i]) << i;
      } else {
        EXPECT_EQ(gn[i], g1[i]) << "arity 3 elem " << i;
      }
    }
  }
}

TEST(GraphFanIn, AccumulationIsDeterministicAndPlanInvariant) {
  // Diamond: d0 fans out to two dense branches merged by Add — d0's
  // diff receives two contributions. Bitwise-identical gradients across
  // repeated runs, planner settings, and thread counts.
  const auto build = [](bool memplan) {
    dnn::Network net;
    net.set_memory_planning(memplan);
    NodeId d0 = net.emplace_node<dnn::Dense>({kGraphInput}, "d0", 4, 8);
    NodeId b1 = net.emplace_node<dnn::Dense>({d0}, "b1", 8, 8);
    NodeId b2 = net.emplace_node<dnn::Dense>({d0}, "b2", 8, 8);
    NodeId sum = net.emplace_node<dnn::Add>({b1, b2}, "add");
    net.emplace_node<dnn::Dense>({sum}, "out", 8, 3);
    net.finalize(Shape{4});
    return net;
  };
  dnn::Network probe = build(true);
  const std::vector<float> params =
      random_vector(probe.param_arena().size(), 17);
  const Tensor input = random_input(Shape{4}, 18);
  const std::vector<float> dloss_v = random_vector(3, 19);

  std::vector<float> ref;
  bool first = true;
  for (const bool memplan : {true, false}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        dnn::Network net = build(memplan);
        net.set_params_from(params);
        dnn::ExecContext ctx = net.make_context(ExecMode::kTraining);
        runtime::ThreadPool pool(threads);
        ctx.forward(input, pool);
        Tensor dloss(Shape{3});
        std::copy(dloss_v.begin(), dloss_v.end(), dloss.data());
        ctx.zero_grads();
        ctx.backward(dloss, pool);
        std::vector<float> grads(net.param_arena().size());
        ctx.copy_grads_to(grads);
        if (first) {
          ref = grads;
          first = false;
        } else {
          EXPECT_EQ(grads, ref) << "memplan=" << memplan
                                << " threads=" << threads
                                << " repeat=" << repeat;
        }
      }
    }
  }
}

// --- (c) Residual multi-head topology: gradcheck, train, serve -------

core::ResidualTopologyConfig tiny_residual(std::int64_t dhw) {
  core::ResidualTopologyConfig config;
  config.input_dhw = dhw;
  config.width = 16;
  config.trunk = 8;
  config.head_outputs = {2, 1};
  return config;
}

TEST(GraphResidual, GradientMatchesFiniteDifferences) {
  const core::ResidualTopologyConfig config = tiny_residual(4);
  dnn::Network net = core::build_residual_network(config, 7);
  EXPECT_EQ(net.head_count(), 2u);  // one head per head_outputs entry
  const Tensor input = random_input(core::input_shape(config), 23);
  const std::size_t out_n =
      static_cast<std::size_t>(net.output_shape().numel());
  const std::vector<float> w = random_vector(out_n, 29);
  runtime::ThreadPool pool(1);

  // L(theta) = sum_k w_k out_k(theta, x), accumulated in double.
  const auto loss = [&]() {
    dnn::ExecContext ctx = net.make_context(ExecMode::kInference);
    const Tensor& out = ctx.forward(input, pool);
    double acc = 0.0;
    for (std::size_t k = 0; k < out_n; ++k) {
      acc += static_cast<double>(w[k]) *
             static_cast<double>(out.data()[k]);
    }
    return acc;
  };

  dnn::ExecContext ctx = net.make_context(ExecMode::kTraining);
  ctx.forward(input, pool);
  Tensor dloss(net.output_shape());
  std::copy(w.begin(), w.end(), dloss.data());
  ctx.zero_grads();
  ctx.backward(dloss, pool);
  std::vector<float> grads(net.param_arena().size());
  ctx.copy_grads_to(grads);

  std::span<float> params = net.param_arena();
  const std::size_t stride = params.size() / 25 + 1;
  const float eps = 1e-2f;
  for (std::size_t i = 0; i < params.size(); i += stride) {
    const float saved = params[i];
    params[i] = saved + eps;
    const double up = loss();
    params[i] = saved - eps;
    const double down = loss();
    params[i] = saved;
    const double fd = (up - down) / (2.0 * static_cast<double>(eps));
    const double g = static_cast<double>(grads[i]);
    const double tol = 1e-3 + 0.05 * std::max(std::abs(g), std::abs(fd));
    EXPECT_NEAR(g, fd, tol) << "param " << i;
  }
}

TEST(GraphResidual, TrainsAndServes) {
  const core::ResidualTopologyConfig config = tiny_residual(8);
  auto net = std::make_shared<dnn::Network>(
      core::build_residual_network(config, 13));
  runtime::ThreadPool pool(2);
  const std::size_t out_n =
      static_cast<std::size_t>(net->output_shape().numel());

  // A small regression task: map 4 fixed volumes to fixed multi-head
  // targets; the loss must drop under Adam.
  std::vector<Tensor> inputs;
  std::vector<std::vector<float>> targets;
  for (int s = 0; s < 4; ++s) {
    inputs.push_back(random_input(net->input_shape(), 200 + s));
    targets.push_back(random_vector(out_n, 300 + s));
  }
  dnn::ExecContext ctx = net->make_context(ExecMode::kTraining);
  optim::AdamState adam(net->param_arena().size(), optim::AdamConfig{});
  std::vector<float> grads(net->param_arena().size());
  Tensor dloss(net->output_shape());
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int epoch = 0; epoch < 40; ++epoch) {
    float epoch_loss = 0.0f;
    for (std::size_t s = 0; s < inputs.size(); ++s) {
      const Tensor& pred = ctx.forward(inputs[s], pool);
      epoch_loss +=
          dnn::mse_loss({pred.data(), pred.size()}, targets[s]);
      dnn::mse_loss_grad({pred.data(), pred.size()}, targets[s],
                         {dloss.data(), dloss.size()});
      ctx.zero_grads();
      ctx.backward(dloss, pool);
      ctx.copy_grads_to(grads);
      adam.step(net->param_arena(), grads, 1e-2);
    }
    if (epoch == 0) first_loss = epoch_loss;
    last_loss = epoch_loss;
  }
  EXPECT_LT(last_loss, 0.5f * first_loss);

  // Serve the trained residual network through cf::serve and check the
  // served results against a fresh single-stream reference.
  std::vector<std::vector<float>> expected;
  {
    dnn::ExecContext ref = net->make_context(ExecMode::kInference);
    runtime::ThreadPool serial(1);
    for (const Tensor& input : inputs) {
      expected.push_back(ref.forward(input, serial).to_vector());
    }
  }
  serve::ServerConfig server_config;
  server_config.workers = 2;
  server_config.metric_prefix = "graph_serve_test";
  serve::Server server(std::shared_ptr<const dnn::Network>(net),
                       server_config);
  std::vector<std::future<serve::InferenceResult>> futures;
  for (const Tensor& input : inputs) {
    std::future<serve::InferenceResult> future;
    ASSERT_EQ(server.submit(input.clone(), &future),
              serve::SubmitStatus::kAccepted);
    futures.push_back(std::move(future));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::InferenceResult result = futures[i].get();
    EXPECT_EQ(tensor::max_abs_diff(result.output, expected[i]), 0.0f)
        << "request " << i;
  }
  server.shutdown();
}

// --- (d) Per-shape inference contexts --------------------------------

TEST(GraphShapeView, AgreesWithDedicatedSameShapeNetwork) {
  const core::ResidualTopologyConfig parent_cfg = tiny_residual(8);
  dnn::Network parent = core::build_residual_network(parent_cfg, 31);

  // Same seed + same layer/stream order => the dedicated 4^3 network
  // holds bitwise-identical weights; only the planned shapes differ.
  const core::ResidualTopologyConfig small_cfg = tiny_residual(4);
  dnn::Network dedicated = core::build_residual_network(small_cfg, 31);

  std::unique_ptr<dnn::Network> view =
      parent.make_shape_view(core::input_shape(small_cfg));
  EXPECT_TRUE(view->is_shape_view());
  EXPECT_EQ(view->output_shape(), dedicated.output_shape());

  const Tensor input = random_input(core::input_shape(small_cfg), 41);
  runtime::ThreadPool pool(1);
  dnn::ExecContext view_ctx = view->make_context(ExecMode::kInference);
  dnn::ExecContext ded_ctx = dedicated.make_context(ExecMode::kInference);
  EXPECT_EQ(view_ctx.forward(input, pool).to_vector(),
            ded_ctx.forward(input, pool).to_vector());

  // A view at the parent's own shape reproduces the parent bitwise.
  std::unique_ptr<dnn::Network> same =
      parent.make_shape_view(parent.input_shape());
  const Tensor big = random_input(parent.input_shape(), 43);
  dnn::ExecContext same_ctx = same->make_context(ExecMode::kInference);
  dnn::ExecContext parent_ctx = parent.make_context(ExecMode::kInference);
  EXPECT_EQ(same_ctx.forward(big, pool).to_vector(),
            parent_ctx.forward(big, pool).to_vector());

  // Weight sharing is by reference: a parent update is visible through
  // the view without any re-sync call.
  std::vector<float> params(parent.param_arena().size());
  parent.copy_params_to(params);
  for (float& p : params) p *= 0.5f;
  parent.set_params_from(params);
  dnn::Network fresh = core::build_residual_network(small_cfg, 31);
  fresh.set_params_from(params);
  dnn::ExecContext fresh_ctx = fresh.make_context(ExecMode::kInference);
  dnn::ExecContext view_ctx2 = view->make_context(ExecMode::kInference);
  EXPECT_EQ(view_ctx2.forward(input, pool).to_vector(),
            fresh_ctx.forward(input, pool).to_vector());
}

TEST(GraphShapeView, ViewsAreInferenceOnly) {
  dnn::Network parent =
      core::build_residual_network(tiny_residual(8), 47);
  std::unique_ptr<dnn::Network> view =
      parent.make_shape_view(Shape{1, 4, 4, 4});
  EXPECT_THROW(view->make_context(ExecMode::kTraining), std::logic_error);
  EXPECT_THROW(view->param_arena(), std::logic_error);
  std::vector<float> buf(static_cast<std::size_t>(view->param_count()));
  EXPECT_THROW(view->copy_params_to(buf), std::logic_error);
  EXPECT_THROW(view->set_params_from(buf), std::logic_error);
  EXPECT_THROW(view->make_shape_view(Shape{1, 4, 4, 4}),
               std::logic_error);
  EXPECT_THROW(view->prepare_inference_precision(Precision::kBf16),
               std::logic_error);
}

TEST(GraphShapeView, FixedFeatureDenseHeadIsRejected) {
  // Flatten -> Dense bakes the voxel count into the weight shape; a
  // view at another input size must throw, not mis-plan.
  dnn::Network net =
      core::build_network(core::cosmoflow_scaled(8), 3);
  EXPECT_THROW(net.make_shape_view(Shape{1, 16, 16, 16}),
               std::invalid_argument);
}

TEST(GraphShapeView, ConcurrentPerShapeInference) {
  // TSan leg: one parent, two shape views, three threads hammering
  // inference concurrently over the shared weight arena.
  dnn::Network parent =
      core::build_residual_network(tiny_residual(8), 53);
  std::unique_ptr<dnn::Network> small =
      parent.make_shape_view(Shape{1, 4, 4, 4});
  std::unique_ptr<dnn::Network> large =
      parent.make_shape_view(Shape{1, 12, 12, 12});

  const Tensor in8 = random_input(parent.input_shape(), 61);
  const Tensor in4 = random_input(Shape{1, 4, 4, 4}, 62);
  const Tensor in12 = random_input(Shape{1, 12, 12, 12}, 63);
  const auto reference = [](const dnn::Network& net, const Tensor& in) {
    dnn::ExecContext ctx = net.make_context(ExecMode::kInference);
    runtime::ThreadPool pool(1);
    return ctx.forward(in, pool).to_vector();
  };
  const std::vector<float> ref8 = reference(parent, in8);
  const std::vector<float> ref4 = reference(*small, in4);
  const std::vector<float> ref12 = reference(*large, in12);

  const auto hammer = [](const dnn::Network& net, const Tensor& in,
                         const std::vector<float>& expect) {
    dnn::ExecContext ctx = net.make_context(ExecMode::kInference);
    runtime::ThreadPool pool(1);
    for (int r = 0; r < 8; ++r) {
      EXPECT_EQ(ctx.forward(in, pool).to_vector(), expect);
    }
  };
  std::thread t1(hammer, std::cref(parent), std::cref(in8),
                 std::cref(ref8));
  std::thread t2(hammer, std::cref(*small), std::cref(in4),
                 std::cref(ref4));
  std::thread t3(hammer, std::cref(*large), std::cref(in12),
                 std::cref(ref12));
  t1.join();
  t2.join();
  t3.join();
}

// --- Multi-head output layout ---------------------------------------

TEST(GraphMultiHead, OutputConcatenatesHeadsInOrder) {
  // The same node set with a single head selected must reproduce the
  // matching slice of the multi-head output (identical weights: heads
  // only change what is returned, not what is planned or initialized).
  const core::ResidualTopologyConfig config = tiny_residual(4);
  dnn::Network multi = core::build_residual_network(config, 71);
  ASSERT_EQ(multi.head_count(), 2u);
  EXPECT_EQ(multi.output_shape().numel(), 3);
  EXPECT_EQ(multi.head_offset(0), 0u);
  EXPECT_EQ(multi.head_offset(1), 2u);

  const Tensor input = random_input(core::input_shape(config), 73);
  runtime::ThreadPool pool(1);
  dnn::ExecContext ctx = multi.make_context(ExecMode::kInference);
  const std::vector<float> out = ctx.forward(input, pool).to_vector();
  ASSERT_EQ(out.size(), 3u);

  // Dropping the second head leaves every shared layer's RNG stream
  // (and so its weights) untouched, and the single-head network returns
  // its head activation directly — it must equal slice [0, 2) of the
  // concatenated multi-head output bitwise.
  core::ResidualTopologyConfig single_cfg = config;
  single_cfg.head_outputs = {config.head_outputs[0]};
  dnn::Network single = core::build_residual_network(single_cfg, 71);
  dnn::ExecContext sctx = single.make_context(ExecMode::kInference);
  const std::vector<float> head_a = sctx.forward(input, pool).to_vector();
  ASSERT_EQ(head_a.size(), 2u);
  EXPECT_EQ(head_a[0], out[0]);
  EXPECT_EQ(head_a[1], out[1]);
}

}  // namespace
}  // namespace cf
