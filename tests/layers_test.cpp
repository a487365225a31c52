// Unit tests for pooling, dense, activation, flatten and loss layers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "dnn/activations.hpp"
#include "dnn/avgpool3d.hpp"
#include "dnn/dense.hpp"
#include "dnn/flatten.hpp"
#include "dnn/loss.hpp"
#include "dnn/standalone_exec.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/layout.hpp"
#include "tensor/tensor_ops.hpp"

namespace cf::dnn {
namespace {

using tensor::Shape;
using tensor::Tensor;

struct PoolCase {
  std::int64_t channels, dhw, kernel, stride;
};

class AvgPoolVsReference : public ::testing::TestWithParam<PoolCase> {};

TEST_P(AvgPoolVsReference, ForwardMatches) {
  const PoolCase& c = GetParam();
  runtime::Rng rng(21, static_cast<std::uint64_t>(c.channels));
  runtime::ThreadPool pool(3);

  Tensor plain(Shape{c.channels, c.dhw, c.dhw, c.dhw});
  tensor::fill_normal(plain, rng, 0.0f, 1.0f);

  AvgPool3d layer("pool", AvgPool3dConfig{c.kernel, c.stride});
  const Tensor src = tensor::to_blocked_activation(plain);
  layer.plan(src.shape());
  StandaloneExec exec(layer);
  Tensor dst(layer.output_shape());
  exec.forward(src, dst, pool);

  const std::int64_t out =
      tensor::conv_out_dim(c.dhw, c.kernel, c.stride, 0);
  Tensor ref(Shape{c.channels, out, out, out});
  avgpool3d_forward_reference(plain, c.kernel, c.stride, ref);

  const Tensor plain_out = tensor::from_blocked_activation(dst, c.channels);
  EXPECT_TRUE(
      tensor::allclose(plain_out.values(), ref.values(), 1e-5f, 1e-6f));
}

INSTANTIATE_TEST_SUITE_P(Sweep, AvgPoolVsReference,
                         ::testing::Values(PoolCase{16, 8, 2, 2},
                                           PoolCase{32, 6, 2, 2},
                                           PoolCase{16, 9, 3, 3},
                                           PoolCase{16, 8, 3, 1},
                                           PoolCase{16, 7, 2, 1},
                                           PoolCase{48, 4, 2, 2}));

TEST(AvgPool3d, BackwardDistributesMassExactly) {
  // Sum of dsrc must equal sum of ddst: pooling conserves the total
  // difference signal (each window average redistributes 1/k^3 to k^3
  // voxels).
  runtime::Rng rng(22);
  runtime::ThreadPool pool(2);
  AvgPool3d layer("pool", AvgPool3dConfig{2, 2});
  layer.plan(Shape{1, 6, 6, 6, 16});
  StandaloneExec exec(layer);
  Tensor src(layer.input_shape());
  Tensor dst(layer.output_shape());
  Tensor ddst(layer.output_shape());
  tensor::fill_normal(ddst, rng, 0.0f, 1.0f);
  Tensor dsrc(layer.input_shape());
  exec.backward(src, dst, ddst, &dsrc, pool);
  EXPECT_NEAR(tensor::sum(dsrc.values()), tensor::sum(ddst.values()), 1e-3);
}

TEST(AvgPool3d, BackwardGradCheck) {
  runtime::Rng rng(23);
  runtime::ThreadPool pool(2);
  AvgPool3d layer("pool", AvgPool3dConfig{3, 2});
  layer.plan(Shape{1, 7, 7, 7, 16});
  StandaloneExec exec(layer);
  Tensor src(layer.input_shape());
  tensor::fill_normal(src, rng, 0.0f, 1.0f);
  Tensor dst(layer.output_shape());
  Tensor direction(layer.output_shape());
  tensor::fill_normal(direction, rng, 0.0f, 1.0f);

  const auto loss = [&] {
    exec.forward(src, dst, pool);
    return tensor::dot(dst.values(), direction.values());
  };
  loss();
  Tensor dsrc(layer.input_shape());
  exec.backward(src, dst, direction, &dsrc, pool);

  const float eps = 1e-2f;
  runtime::Rng pick(24);
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t i = pick.uniform_index(src.size());
    const float original = src[i];
    src[i] = original + eps;
    const double up = loss();
    src[i] = original - eps;
    const double down = loss();
    src[i] = original;
    EXPECT_NEAR(dsrc[i], (up - down) / (2 * eps), 1e-3) << "index " << i;
  }
}

TEST(AvgPool3d, RejectsPlainInput) {
  AvgPool3d layer("pool", AvgPool3dConfig{2, 2});
  EXPECT_THROW(layer.plan(Shape{16, 8, 8, 8}),
               std::invalid_argument);
}

TEST(Dense, ForwardMatchesManualGemv) {
  Dense layer("fc", 3, 2);
  layer.plan(Shape{3});
  // w(i, o): rows are inputs.
  layer.weights() = Tensor(Shape{3, 2}, std::vector<float>{1, 2,   //
                                                           3, 4,   //
                                                           5, 6});
  layer.bias() = Tensor(Shape{2}, std::vector<float>{0.5f, -0.5f});
  runtime::ThreadPool pool(2);
  Tensor src(Shape{3}, std::vector<float>{1.0f, 0.5f, -1.0f});
  Tensor dst(Shape{2});
  StandaloneExec(layer).forward(src, dst, pool);
  EXPECT_FLOAT_EQ(dst[0], 1 * 1 + 0.5f * 3 - 1 * 5 + 0.5f);
  EXPECT_FLOAT_EQ(dst[1], 1 * 2 + 0.5f * 4 - 1 * 6 - 0.5f);
}

TEST(Dense, GradCheck) {
  runtime::Rng rng(31);
  runtime::ThreadPool pool(2);
  Dense layer("fc", 20, 7);
  layer.plan(Shape{20});
  layer.init_xavier(rng);
  StandaloneExec exec(layer);

  Tensor src(Shape{20});
  tensor::fill_normal(src, rng, 0.0f, 1.0f);
  Tensor dst(Shape{7});
  Tensor direction(Shape{7});
  tensor::fill_normal(direction, rng, 0.0f, 1.0f);

  const auto loss = [&] {
    exec.forward(src, dst, pool);
    return tensor::dot(dst.values(), direction.values());
  };
  loss();
  Tensor dsrc(Shape{20});
  exec.backward(src, dst, direction, &dsrc, pool);
  const Tensor& dw = exec.state.grads[0];
  const Tensor& db = exec.state.grads[1];

  const float eps = 1e-2f;
  runtime::Rng pick(32);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t i = pick.uniform_index(layer.weights().size());
    const float original = layer.weights()[i];
    layer.weights()[i] = original + eps;
    const double up = loss();
    layer.weights()[i] = original - eps;
    const double down = loss();
    layer.weights()[i] = original;
    EXPECT_NEAR(dw[i], (up - down) / (2 * eps), 1e-3);
  }
  for (std::size_t i = 0; i < 7; ++i) {
    const float original = layer.bias()[i];
    layer.bias()[i] = original + eps;
    const double up = loss();
    layer.bias()[i] = original - eps;
    const double down = loss();
    layer.bias()[i] = original;
    EXPECT_NEAR(db[i], (up - down) / (2 * eps), 1e-3);
  }
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t i = pick.uniform_index(src.size());
    const float original = src[i];
    src[i] = original + eps;
    const double up = loss();
    src[i] = original - eps;
    const double down = loss();
    src[i] = original;
    EXPECT_NEAR(dsrc[i], (up - down) / (2 * eps), 1e-3);
  }
}

TEST(Dense, ForwardWorkspaceIsCheckedAndZeroedEachCall) {
  runtime::Rng rng(33);
  runtime::ThreadPool pool(2);
  Dense layer("fc", 40, 9);
  layer.plan(Shape{40});
  layer.init_xavier(rng);
  Tensor src(Shape{40});
  tensor::fill_normal(src, rng, 0.0f, 1.0f);
  Tensor want(Shape{9});
  StandaloneExec(layer).forward(src, want, pool);

  // The chunk accumulators live in the stream's workspace; an
  // inference context shares that region with other layers, so a
  // dirty workspace must not change the output bits.
  StandaloneExec exec(layer);
  const std::size_t need = layer.forward_workspace_floats();
  ASSERT_GT(need, 0u);
  for (float& v : exec.state.workspace) v = 1e30f;
  Tensor dst(Shape{9});
  exec.forward(src, dst, pool);
  EXPECT_EQ(std::memcmp(dst.data(), want.data(), 9 * sizeof(float)), 0);

  exec.state.workspace = exec.state.workspace.first(need - 1);
  EXPECT_THROW(exec.forward(src, dst, pool), std::logic_error);
}

TEST(Dense, FlopAndParamCounts) {
  Dense layer("fc", 100, 30);
  layer.plan(Shape{100});
  EXPECT_EQ(layer.flops().fwd, 2 * 100 * 30);
  EXPECT_EQ(layer.param_count(), 100 * 30 + 30);
}

TEST(LeakyRelu, ForwardAppliesSlope) {
  LeakyRelu layer("act", 0.1f);
  layer.plan(Shape{4});
  runtime::ThreadPool pool(1);
  Tensor src(Shape{4}, std::vector<float>{-2.0f, -0.5f, 0.0f, 3.0f});
  Tensor dst(Shape{4});
  StandaloneExec(layer).forward(src, dst, pool);
  EXPECT_FLOAT_EQ(dst[0], -0.2f);
  EXPECT_FLOAT_EQ(dst[1], -0.05f);
  EXPECT_FLOAT_EQ(dst[2], 0.0f);
  EXPECT_FLOAT_EQ(dst[3], 3.0f);
}

TEST(LeakyRelu, BackwardUsesInputSign) {
  LeakyRelu layer("act", 0.25f);
  layer.plan(Shape{3});
  runtime::ThreadPool pool(1);
  Tensor src(Shape{3}, std::vector<float>{-1.0f, 2.0f, -3.0f});
  Tensor ddst(Shape{3}, std::vector<float>{1.0f, 1.0f, 2.0f});
  Tensor dst(Shape{3});
  Tensor dsrc(Shape{3});
  StandaloneExec(layer).backward(src, dst, ddst, &dsrc, pool);
  EXPECT_FLOAT_EQ(dsrc[0], 0.25f);
  EXPECT_FLOAT_EQ(dsrc[1], 1.0f);
  EXPECT_FLOAT_EQ(dsrc[2], 0.5f);
}

TEST(LeakyRelu, RejectsBadSlope) {
  EXPECT_THROW(LeakyRelu("a", -0.1f), std::invalid_argument);
  EXPECT_THROW(LeakyRelu("a", 1.0f), std::invalid_argument);
}

TEST(Flatten, MatchesPlainFlattening) {
  runtime::Rng rng(41);
  runtime::ThreadPool pool(2);
  Tensor plain(Shape{32, 3, 4, 5});
  tensor::fill_normal(plain, rng, 0.0f, 1.0f);
  const Tensor blocked = tensor::to_blocked_activation(plain);

  Flatten layer("flat", 32);
  layer.plan(blocked.shape());
  EXPECT_EQ(layer.output_shape(), Shape({32 * 3 * 4 * 5}));
  Tensor dst(layer.output_shape());
  StandaloneExec(layer).forward(blocked, dst, pool);
  EXPECT_EQ(tensor::max_abs_diff(dst.values(), plain.values()), 0.0f);
}

TEST(Flatten, BackwardRestoresBlockedLayout) {
  runtime::Rng rng(42);
  runtime::ThreadPool pool(2);
  Flatten layer("flat", 16);
  layer.plan(Shape{1, 2, 2, 2, 16});
  StandaloneExec exec(layer);
  Tensor ddst(layer.output_shape());
  tensor::fill_normal(ddst, rng, 0.0f, 1.0f);
  Tensor dsrc(layer.input_shape());
  Tensor src(layer.input_shape());
  Tensor dst(layer.output_shape());
  exec.backward(src, dst, ddst, &dsrc, pool);

  // Forward of the recovered dsrc must reproduce ddst.
  Tensor roundtrip(layer.output_shape());
  exec.forward(dsrc, roundtrip, pool);
  EXPECT_EQ(tensor::max_abs_diff(roundtrip.values(), ddst.values()), 0.0f);
}

TEST(Flatten, RejectsChannelMismatch) {
  Flatten layer("flat", 32);
  EXPECT_THROW(layer.plan(Shape{1, 2, 2, 2, 16}),
               std::invalid_argument);
}

TEST(MseLoss, ValueAndGradient) {
  const std::vector<float> pred{1.0f, 2.0f, 3.0f};
  const std::vector<float> target{1.5f, 2.0f, 1.0f};
  // ((0.5)^2 + 0 + 2^2) / 3
  EXPECT_NEAR(mse_loss(pred, target), (0.25 + 4.0) / 3.0, 1e-6);
  std::vector<float> grad(3);
  mse_loss_grad(pred, target, grad);
  EXPECT_NEAR(grad[0], 2.0 / 3.0 * -0.5, 1e-6);
  EXPECT_NEAR(grad[1], 0.0, 1e-6);
  EXPECT_NEAR(grad[2], 2.0 / 3.0 * 2.0, 1e-6);
}

TEST(MseLoss, GradMatchesNumericalDerivative) {
  std::vector<float> pred{0.3f, -0.2f, 0.9f, 0.1f};
  const std::vector<float> target{0.0f, 0.5f, 1.0f, -0.5f};
  std::vector<float> grad(4);
  mse_loss_grad(pred, target, grad);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    pred[i] += eps;
    const float up = mse_loss(pred, target);
    pred[i] -= 2 * eps;
    const float down = mse_loss(pred, target);
    pred[i] += eps;
    EXPECT_NEAR(grad[i], (up - down) / (2 * eps), 1e-3);
  }
}

TEST(MseLoss, RejectsBadInputs) {
  const std::vector<float> a{1.0f};
  const std::vector<float> b{1.0f, 2.0f};
  std::vector<float> g(1);
  EXPECT_THROW(mse_loss(a, b), std::invalid_argument);
  EXPECT_THROW(mse_loss({}, {}), std::invalid_argument);
  EXPECT_THROW(mse_loss_grad(a, b, g), std::invalid_argument);
}

}  // namespace
}  // namespace cf::dnn
