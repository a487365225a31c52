// dnn::Network as the paper's chain (DESIGN.md §2.8).
//
// Pins the construction contract of the layer list and that the chain
// stays bitwise identical across fusion x memory-planning x precision
// x thread counts — the plan passes are placement-only.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/topology.hpp"
#include "dnn/dense.hpp"
#include "dnn/loss.hpp"
#include "dnn/network.hpp"
#include "optim/adam.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/tensor_ops.hpp"

namespace cf {
namespace {

using dnn::ExecMode;
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

// --- Construction contract ------------------------------------------

TEST(Graph, RejectsMalformedTopologies) {
  // A null layer.
  {
    dnn::Network net;
    EXPECT_THROW(net.add(nullptr), std::invalid_argument);
  }
  // finalize with no layers.
  {
    dnn::Network net;
    EXPECT_THROW(net.finalize(Shape{4}), std::logic_error);
  }
  // No mutation after finalize.
  {
    dnn::Network net;
    net.emplace<dnn::Dense>("d", 4, 4);
    net.finalize(Shape{4});
    EXPECT_THROW(net.emplace<dnn::Dense>("late", 4, 2), std::logic_error);
  }
}

// --- The chain is bitwise plan-invariant ----------------------------

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

}  // namespace
}  // namespace cf
