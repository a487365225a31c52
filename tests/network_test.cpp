// Network container tests: wiring, flat parameter interface, error
// handling, and end-to-end gradient checks through a full conv ->
// pool -> dense stack and through a fused, planned build_network chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/topology.hpp"
#include "dnn/activations.hpp"
#include "dnn/avgpool3d.hpp"
#include "dnn/conv3d.hpp"
#include "dnn/dense.hpp"
#include "dnn/flatten.hpp"
#include "dnn/loss.hpp"
#include "dnn/network.hpp"
#include "runtime/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace cf::dnn {
namespace {

using tensor::Shape;
using tensor::Tensor;

Network make_small_network(std::uint64_t seed) {
  Network net;
  auto& conv1 = net.emplace<Conv3d>(
      "conv1", Conv3dConfig{1, 16, 3, 1, Padding::kSame});
  net.emplace<LeakyRelu>("act1", 0.01f);
  net.emplace<AvgPool3d>("pool1", AvgPool3dConfig{2, 2});
  auto& conv2 = net.emplace<Conv3d>(
      "conv2", Conv3dConfig{16, 16, 3, 2, Padding::kSame});
  net.emplace<LeakyRelu>("act2", 0.01f);
  net.emplace<Flatten>("flatten", 16);
  auto& fc = net.emplace<Dense>("fc", 16 * 2 * 2 * 2, 3);
  net.finalize(Shape{1, 8, 8, 8});
  runtime::Rng rng(seed);
  conv1.init_he(rng);
  conv2.init_he(rng);
  fc.init_xavier(rng);
  return net;
}

TEST(Network, ForwardProducesExpectedShapes) {
  Network net = make_small_network(1);
  EXPECT_EQ(net.input_shape(), Shape({1, 8, 8, 8}));
  EXPECT_EQ(net.output_shape(), Shape({3}));
  EXPECT_EQ(net.layer_count(), 7u);

  runtime::ThreadPool pool(2);
  Tensor input(net.input_shape());
  runtime::Rng rng(2);
  tensor::fill_normal(input, rng, 0.0f, 1.0f);
  ExecContext ctx = net.make_context(ExecMode::kTraining);
  const Tensor& out = ctx.forward(input, pool);
  EXPECT_EQ(out.shape(), Shape({3}));
  for (const float v : out.values()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Network, MisuseThrows) {
  Network empty;
  EXPECT_THROW(empty.finalize(Shape{1, 8, 8, 8}), std::logic_error);
  EXPECT_THROW(empty.make_context(ExecMode::kTraining), std::logic_error);

  Network net = make_small_network(3);
  EXPECT_THROW(net.finalize(Shape{1, 8, 8, 8}), std::logic_error);
  EXPECT_THROW(net.add(std::make_unique<LeakyRelu>("late", 0.01f)),
               std::logic_error);

  runtime::ThreadPool pool(1);
  ExecContext ctx = net.make_context(ExecMode::kTraining);
  Tensor dloss(Shape{3});
  EXPECT_THROW(ctx.backward(dloss, pool), std::logic_error);  // no forward

  Tensor bad_input(Shape{1, 4, 4, 4});
  EXPECT_THROW(ctx.forward(bad_input, pool), std::invalid_argument);
}

TEST(Network, FlatParamRoundTrip) {
  Network a = make_small_network(4);
  Network b = make_small_network(5);
  const std::size_t n = static_cast<std::size_t>(a.param_count());
  ASSERT_EQ(n, static_cast<std::size_t>(b.param_count()));

  std::vector<float> params(n);
  a.copy_params_to(params);
  b.set_params_from(params);
  std::vector<float> check(n);
  b.copy_params_to(check);
  EXPECT_EQ(tensor::max_abs_diff(params, check), 0.0f);

  // Identical parameters -> identical predictions (one stream runs
  // forward-only, exercising the inference-lean context).
  runtime::ThreadPool pool(1);
  Tensor input(a.input_shape());
  runtime::Rng rng(6);
  tensor::fill_normal(input, rng, 0.0f, 1.0f);
  ExecContext ca = a.make_context(ExecMode::kTraining);
  ExecContext cb = b.make_context(ExecMode::kInference);
  const std::vector<float> ya = ca.forward(input, pool).to_vector();
  const std::vector<float> yb = cb.forward(input, pool).to_vector();
  EXPECT_EQ(tensor::max_abs_diff(ya, yb), 0.0f);

  std::vector<float> wrong(n + 1);
  EXPECT_THROW(a.set_params_from(wrong), std::invalid_argument);
}

TEST(Network, FlatGradRoundTrip) {
  Network net = make_small_network(7);
  runtime::ThreadPool pool(1);
  Tensor input(net.input_shape());
  runtime::Rng rng(8);
  tensor::fill_normal(input, rng, 0.0f, 1.0f);
  ExecContext ctx = net.make_context(ExecMode::kTraining);
  ctx.forward(input, pool);
  Tensor dloss(Shape{3});
  dloss.fill(1.0f);
  ctx.zero_grads();
  ctx.backward(dloss, pool);

  const std::size_t n = static_cast<std::size_t>(net.param_count());
  std::vector<float> grads(n);
  ctx.copy_grads_to(grads);
  EXPECT_GT(tensor::max_abs(grads), 0.0f);

  ctx.zero_grads();
  std::vector<float> zeros(n);
  ctx.copy_grads_to(zeros);
  EXPECT_EQ(tensor::max_abs(zeros), 0.0f);

  ctx.set_grads_from(grads);
  std::vector<float> check(n);
  ctx.copy_grads_to(check);
  EXPECT_EQ(tensor::max_abs_diff(grads, check), 0.0f);
}

TEST(Network, EndToEndGradientCheck) {
  Network net = make_small_network(9);
  runtime::ThreadPool pool(1);
  Tensor input(net.input_shape());
  runtime::Rng rng(10);
  tensor::fill_normal(input, rng, 0.0f, 1.0f);
  const std::vector<float> target{0.3f, -0.2f, 0.7f};
  ExecContext ctx = net.make_context(ExecMode::kTraining);

  const auto loss = [&] {
    const Tensor& out = ctx.forward(input, pool);
    return mse_loss(out.values(), target);
  };

  loss();
  const Tensor& out = ctx.forward(input, pool);
  Tensor dloss(Shape{3});
  mse_loss_grad(out.values(), target, dloss.values());
  ctx.zero_grads();
  ctx.backward(dloss, pool);

  const std::size_t n = static_cast<std::size_t>(net.param_count());
  std::vector<float> grads(n);
  ctx.copy_grads_to(grads);
  std::vector<float> params(n);
  net.copy_params_to(params);

  const float eps = 1e-2f;
  runtime::Rng pick(11);
  int checked = 0;
  for (int trial = 0; trial < 60 && checked < 20; ++trial) {
    const std::size_t i = pick.uniform_index(n);
    if (std::fabs(grads[i]) < 1e-5f) continue;  // avoid noise-dominated
    std::vector<float> perturbed = params;
    perturbed[i] += eps;
    net.set_params_from(perturbed);
    const double up = loss();
    perturbed[i] -= 2 * eps;
    net.set_params_from(perturbed);
    const double down = loss();
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(grads[i], numeric,
                5e-2 * std::max(0.05, std::fabs(numeric)))
        << "param " << i;
    ++checked;
  }
  EXPECT_GE(checked, 10);
  net.set_params_from(params);
}

TEST(Network, GradientMatchesFiniteDifferences) {
  // The whole backward of a stock preset — fused and memory-planned, as
  // every workload builds it — against central finite differences.
  Network net = core::build_network(core::cosmoflow_scaled(8), 7);
  ASSERT_GT(net.fused_pairs(), 0u);
  ASSERT_TRUE(net.memory_planning());
  Tensor input(net.input_shape());
  runtime::Rng input_rng(23);
  tensor::fill_normal(input, input_rng, 0.0f, 1.0f);
  const std::size_t out_n =
      static_cast<std::size_t>(net.output_shape().numel());
  std::vector<float> w(out_n);
  runtime::Rng w_rng(29);
  for (float& x : w) x = w_rng.normal(0.0f, 1.0f);
  runtime::ThreadPool pool(1);

  // L(theta) = sum_k w_k out_k(theta, x), accumulated in double.
  const auto loss = [&]() {
    ExecContext ctx = net.make_context(ExecMode::kInference);
    const Tensor& out = ctx.forward(input, pool);
    double acc = 0.0;
    for (std::size_t k = 0; k < out_n; ++k) {
      acc += static_cast<double>(w[k]) *
             static_cast<double>(out.data()[k]);
    }
    return acc;
  };

  ExecContext ctx = net.make_context(ExecMode::kTraining);
  ctx.forward(input, pool);
  Tensor dloss(net.output_shape());
  std::copy(w.begin(), w.end(), dloss.data());
  ctx.zero_grads();
  ctx.backward(dloss, pool);
  std::vector<float> grads(net.param_arena().size());
  ctx.copy_grads_to(grads);

  std::span<float> params = net.param_arena();
  const std::size_t stride = params.size() / 25 + 1;
  // The probe of conv2's param 5905 sits within 1e-3 of a LeakyRelu
  // kink: a step of 1e-3 or more straddles it, and the difference
  // quotient then mixes the two slopes. 3e-4 clears it, and is still
  // far above the fp32 rounding noise of the loss.
  const float eps = 3e-4f;
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

TEST(Network, FlopAggregationMatchesLayerSum) {
  Network net = make_small_network(12);
  FlopCounts manual;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    FlopCounts f = net.layer(i).flops();
    if (i == 0) f.bwd_data = 0;
    manual += f;
  }
  EXPECT_EQ(net.flops(true).total(), manual.total());
  EXPECT_GT(net.flops(false).total(), net.flops(true).total());
}

TEST(Network, ProfilesAccumulateAndReset) {
  Network net = make_small_network(13);
  runtime::ThreadPool pool(1);
  Tensor input(net.input_shape());
  runtime::Rng rng(14);
  tensor::fill_normal(input, rng, 0.0f, 1.0f);
  ExecContext ctx = net.make_context(ExecMode::kTraining);
  ctx.forward(input, pool);
  ctx.forward(input, pool);
  auto profiles = ctx.profiles();
  EXPECT_EQ(profiles.front().fwd.count(), 2u);
  ctx.reset_profiles();
  profiles = ctx.profiles();
  EXPECT_EQ(profiles.front().fwd.count(), 0u);

  // N training steps: every node times its forward once per step; conv
  // and dense rows time a Bww pass, parameterless rows none; the node
  // reading the graph input has no data gradient, so no Bwd sample.
  constexpr std::size_t kSteps = 3;
  Tensor dloss(net.output_shape());
  dloss.fill(1.0f);
  for (std::size_t step = 0; step < kSteps; ++step) {
    ctx.forward(input, pool);
    ctx.zero_grads();
    ctx.backward(dloss, pool);
  }
  ASSERT_EQ(ctx.profiles().size(), net.layer_count());
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const LayerProfile& row = ctx.profiles()[i];
    const bool has_params = row.kind == "conv" || row.kind == "dense";
    EXPECT_EQ(row.fwd.count(), kSteps) << row.name;
    EXPECT_EQ(row.bwd_weights.count(), has_params ? kSteps : 0u)
        << row.name;
    EXPECT_EQ(row.bwd_data.count(), i == 0 ? 0u : kSteps) << row.name;
  }
  EXPECT_EQ(ctx.profiles().front().name, "conv1");

  // Timers are per-stream: a second context starts clean.
  ExecContext other = net.make_context(ExecMode::kTraining);
  EXPECT_EQ(other.profiles().front().fwd.count(), 0u);
}

}  // namespace
}  // namespace cf::dnn
