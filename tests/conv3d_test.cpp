// Validation of the blocked 3D convolution engine (Algorithm 1)
// against the plain-layout reference kernels and against numerical
// gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "dnn/conv3d.hpp"
#include "dnn/standalone_exec.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/layout.hpp"
#include "tensor/tensor_ops.hpp"

namespace cf::dnn {
namespace {

using tensor::Shape;
using tensor::Tensor;

struct ConvCase {
  std::int64_t ic, oc, dhw, kernel, stride;
  Padding padding;
};

std::string case_name(const ::testing::TestParamInfo<ConvCase>& info) {
  const ConvCase& c = info.param;
  return "ic" + std::to_string(c.ic) + "_oc" + std::to_string(c.oc) + "_s" +
         std::to_string(c.dhw) + "_k" + std::to_string(c.kernel) + "_st" +
         std::to_string(c.stride) +
         (c.padding == Padding::kSame ? "_same" : "_valid");
}

class BlockedConvVsReference : public ::testing::TestWithParam<ConvCase> {
 protected:
  void SetUp() override {
    const ConvCase& c = GetParam();
    config_ = Conv3dConfig{c.ic, c.oc, c.kernel, c.stride, c.padding};
    conv_ = std::make_unique<Conv3d>("conv", config_);

    runtime::Rng rng(42, static_cast<std::uint64_t>(c.ic * 1000 + c.oc));
    plain_src_ = Tensor(Shape{c.ic, c.dhw, c.dhw, c.dhw});
    tensor::fill_normal(plain_src_, rng, 0.0f, 1.0f);
    plain_weights_ =
        Tensor(Shape{c.oc, c.ic, c.kernel, c.kernel, c.kernel});
    tensor::fill_normal(plain_weights_, rng, 0.0f, 0.5f);
    bias_ = Tensor(Shape{c.oc});
    tensor::fill_normal(bias_, rng, 0.0f, 0.1f);

    const Shape in_shape = conv_->input_is_plain()
                               ? plain_src_.shape()
                               : Shape{c.ic / 16, c.dhw, c.dhw, c.dhw, 16};
    conv_->plan(in_shape);
    conv_->set_plain_weights(plain_weights_, bias_);
    exec_ = std::make_unique<StandaloneExec>(*conv_);

    pd_ = resolve_pad(c.padding, c.dhw, c.kernel, c.stride);
    const std::int64_t out =
        tensor::conv_out_dim(c.dhw, c.kernel, c.stride, pd_.total());
    ref_dst_ = Tensor(Shape{c.oc, out, out, out});
    conv3d_forward_reference(plain_src_, plain_weights_, bias_, c.stride,
                             pd_, pd_, pd_, ref_dst_);

    src_ = conv_->input_is_plain() ? plain_src_.clone()
                                   : tensor::to_blocked_activation(plain_src_);
    dst_ = Tensor(conv_->output_shape());
  }

  Tensor blocked_output_as_plain() const {
    return tensor::from_blocked_activation(dst_, config_.out_channels);
  }

  Conv3dConfig config_;
  std::unique_ptr<Conv3d> conv_;
  std::unique_ptr<StandaloneExec> exec_;
  Tensor plain_src_, plain_weights_, bias_;
  Tensor src_, dst_, ref_dst_;
  PadSpec pd_;
  runtime::ThreadPool pool_{3};
};

TEST_P(BlockedConvVsReference, ForwardMatches) {
  exec_->forward(src_, dst_, pool_);
  const Tensor plain_out = blocked_output_as_plain();
  EXPECT_TRUE(tensor::allclose(plain_out.values(), ref_dst_.values(), 1e-4f,
                               1e-4f))
      << "max diff "
      << tensor::max_abs_diff(plain_out.values(), ref_dst_.values());
}

TEST_P(BlockedConvVsReference, BackwardWeightsMatches) {
  const ConvCase& c = GetParam();
  exec_->forward(src_, dst_, pool_);

  runtime::Rng rng(7);
  Tensor plain_ddst(ref_dst_.shape());
  tensor::fill_normal(plain_ddst, rng, 0.0f, 1.0f);

  Tensor ref_dw(plain_weights_.shape());
  Tensor ref_db(Shape{c.oc});
  conv3d_backward_weights_reference(plain_src_, plain_ddst, c.stride, pd_,
                                    pd_, pd_, ref_dw, ref_db);

  Tensor ddst = tensor::to_blocked_activation(plain_ddst);
  exec_->backward(src_, dst_, ddst, /*dsrc=*/nullptr, pool_);

  const Tensor dw = conv_->to_plain_weights(exec_->state.grads[0]);
  EXPECT_TRUE(tensor::allclose(dw.values(), ref_dw.values(), 1e-3f, 1e-3f))
      << "max dw diff "
      << tensor::max_abs_diff(dw.values(), ref_dw.values());
  EXPECT_TRUE(tensor::allclose(exec_->state.grads[1].values(),
                               ref_db.values(), 1e-3f, 1e-3f));
}

TEST_P(BlockedConvVsReference, BackwardDataMatches) {
  const ConvCase& c = GetParam();
  exec_->forward(src_, dst_, pool_);

  runtime::Rng rng(8);
  Tensor plain_ddst(ref_dst_.shape());
  tensor::fill_normal(plain_ddst, rng, 0.0f, 1.0f);

  Tensor ref_dsrc(plain_src_.shape());
  conv3d_backward_data_reference(plain_ddst, plain_weights_, c.stride, pd_,
                                 pd_, pd_, ref_dsrc);

  Tensor ddst = tensor::to_blocked_activation(plain_ddst);
  Tensor dsrc(conv_->input_shape());
  exec_->backward(src_, dst_, ddst, &dsrc, pool_);

  const Tensor plain_dsrc =
      conv_->input_is_plain()
          ? dsrc.clone()
          : tensor::from_blocked_activation(dsrc, c.ic);
  EXPECT_TRUE(tensor::allclose(plain_dsrc.values(), ref_dsrc.values(), 1e-3f,
                               1e-3f))
      << "max dsrc diff "
      << tensor::max_abs_diff(plain_dsrc.values(), ref_dsrc.values());
}

// A static array, so each case's 4 padding bytes are zero: gtest prints
// the raw bytes of the parameter into the ctest name, and temporaries
// would leak stack or heap bytes there, renaming the tests per build.
constexpr ConvCase kConvCases[] = {
    // Blocked-source cases (IC multiple of 16).
    {16, 16, 6, 3, 1, Padding::kSame},
    {16, 16, 6, 3, 1, Padding::kValid},
    {16, 32, 8, 3, 2, Padding::kSame},
    {32, 16, 5, 3, 1, Padding::kSame},
    {16, 16, 8, 4, 1, Padding::kSame},   // even kernel, asym pad
    {16, 16, 9, 4, 2, Padding::kValid},
    {32, 32, 6, 2, 2, Padding::kValid},
    {16, 48, 6, 3, 1, Padding::kSame},
    {16, 16, 7, 5, 1, Padding::kSame},   // k > stride coverage
    {16, 16, 6, 3, 3, Padding::kValid},  // stride == kernel
    // Plain-source cases (first layer, IC < 16).
    {1, 16, 8, 3, 1, Padding::kSame},
    {1, 32, 8, 3, 1, Padding::kValid},
    {2, 16, 6, 4, 2, Padding::kSame},
    {4, 16, 6, 2, 1, Padding::kValid},
};

INSTANTIATE_TEST_SUITE_P(Sweep, BlockedConvVsReference,
                         ::testing::ValuesIn(kConvCases), case_name);

TEST(Conv3d, RejectsBadConfigs) {
  EXPECT_THROW(Conv3d("c", Conv3dConfig{16, 20, 3, 1, Padding::kSame}),
               std::invalid_argument);  // OC not multiple of 16
  EXPECT_THROW(Conv3d("c", Conv3dConfig{24, 16, 3, 1, Padding::kSame}),
               std::invalid_argument);  // IC 16 < x not multiple of 16
  EXPECT_THROW(Conv3d("c", Conv3dConfig{16, 16, 0, 1, Padding::kSame}),
               std::invalid_argument);
  EXPECT_THROW(Conv3d("c", Conv3dConfig{0, 16, 3, 1, Padding::kSame}),
               std::invalid_argument);
}

TEST(Conv3d, PlanRejectsMismatchedInput) {
  Conv3d conv("c", Conv3dConfig{16, 16, 3, 1, Padding::kSame});
  EXPECT_THROW(conv.plan(Shape{16, 6, 6, 6}), std::invalid_argument);
  EXPECT_THROW(conv.plan(Shape{2, 6, 6, 6, 16}),
               std::invalid_argument);
  Conv3d first("c", Conv3dConfig{1, 16, 3, 1, Padding::kSame});
  EXPECT_THROW(first.plan(Shape{2, 6, 6, 6}), std::invalid_argument);
}

TEST(Conv3d, ForwardValidatesShapes) {
  Conv3d conv("c", Conv3dConfig{16, 16, 3, 1, Padding::kSame});
  conv.plan(Shape{1, 4, 4, 4, 16});
  StandaloneExec exec(conv);
  runtime::ThreadPool pool(1);
  Tensor bad_src(Shape{1, 5, 4, 4, 16});
  Tensor dst(conv.output_shape());
  EXPECT_THROW(exec.forward(bad_src, dst, pool), std::invalid_argument);
}

TEST(Conv3d, FlopCountMatchesFormula) {
  Conv3d conv("c", Conv3dConfig{16, 32, 3, 1, Padding::kSame});
  conv.plan(Shape{1, 8, 8, 8, 16});
  const FlopCounts f = conv.flops();
  // 2 * 8^3 * 32 * 16 * 27
  EXPECT_EQ(f.fwd, 2LL * 512 * 32 * 16 * 27);
  EXPECT_EQ(f.bwd_data, f.fwd);
  EXPECT_EQ(f.bwd_weights, f.fwd);
}

TEST(Conv3d, ParamCountIncludesBias) {
  Conv3d conv("c", Conv3dConfig{16, 32, 3, 1, Padding::kSame});
  conv.plan(Shape{1, 8, 8, 8, 16});
  EXPECT_EQ(conv.param_count(), 32 * 16 * 27 + 32);
}

TEST(Conv3d, GradsAccumulateAcrossBackwardCalls) {
  Conv3d conv("c", Conv3dConfig{16, 16, 3, 1, Padding::kSame});
  conv.plan(Shape{1, 4, 4, 4, 16});
  runtime::Rng rng(3);
  conv.init_he(rng);
  StandaloneExec exec(conv);
  runtime::ThreadPool pool(2);

  Tensor src(conv.input_shape());
  tensor::fill_normal(src, rng, 0.0f, 1.0f);
  Tensor dst(conv.output_shape());
  Tensor ddst(conv.output_shape());
  tensor::fill_normal(ddst, rng, 0.0f, 1.0f);

  exec.forward(src, dst, pool);
  exec.backward(src, dst, ddst, nullptr, pool);
  const Tensor once = conv.to_plain_weights(exec.state.grads[0]);
  exec.backward(src, dst, ddst, nullptr, pool);
  const Tensor twice = conv.to_plain_weights(exec.state.grads[0]);

  Tensor doubled = once.clone();
  tensor::scale(doubled.values(), 2.0f);
  EXPECT_TRUE(
      tensor::allclose(twice.values(), doubled.values(), 1e-4f, 1e-4f));
}

// Central-difference gradient check through the blocked engine: for a
// loss L = sum(R * conv(src)), dL/dw must match the analytic backward.
TEST(Conv3dGradCheck, WeightsAndBiasAndData) {
  const Conv3dConfig config{16, 16, 3, 2, Padding::kSame};
  Conv3d conv("c", config);
  conv.plan(Shape{1, 5, 5, 5, 16});
  StandaloneExec exec(conv);
  runtime::ThreadPool pool(2);
  runtime::Rng rng(11);

  Tensor weights(Shape{16, 16, 3, 3, 3});
  tensor::fill_normal(weights, rng, 0.0f, 0.3f);
  Tensor bias(Shape{16});
  tensor::fill_normal(bias, rng, 0.0f, 0.1f);
  conv.set_plain_weights(weights, bias);

  Tensor src(conv.input_shape());
  tensor::fill_normal(src, rng, 0.0f, 1.0f);
  Tensor direction(conv.output_shape());
  tensor::fill_normal(direction, rng, 0.0f, 1.0f);

  Tensor dst(conv.output_shape());
  const auto loss = [&] {
    exec.forward(src, dst, pool);
    return tensor::dot(dst.values(), direction.values());
  };

  loss();
  Tensor dsrc(conv.input_shape());
  exec.backward(src, dst, direction, &dsrc, pool);
  const Tensor analytic_dw = conv.to_plain_weights(exec.state.grads[0]);
  const Tensor analytic_db = exec.state.grads[1].clone();
  const Tensor analytic_dsrc = dsrc.clone();

  const float eps = 1e-2f;
  runtime::Rng pick(13);
  // Sampled weight coordinates.
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t i = pick.uniform_index(weights.size());
    Tensor perturbed = weights.clone();
    perturbed[i] += eps;
    conv.set_plain_weights(perturbed, bias);
    const double up = loss();
    perturbed[i] -= 2 * eps;
    conv.set_plain_weights(perturbed, bias);
    const double down = loss();
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic_dw[i], numeric,
                2e-2 * std::max(1.0, std::fabs(numeric)))
        << "weight index " << i;
  }
  conv.set_plain_weights(weights, bias);
  // Sampled bias coordinates.
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t i = pick.uniform_index(bias.size());
    Tensor perturbed = bias.clone();
    perturbed[i] += eps;
    conv.set_plain_weights(weights, perturbed);
    const double up = loss();
    perturbed[i] -= 2 * eps;
    conv.set_plain_weights(weights, perturbed);
    const double down = loss();
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic_db[i], numeric,
                2e-2 * std::max(1.0, std::fabs(numeric)))
        << "bias index " << i;
  }
  conv.set_plain_weights(weights, bias);
  // Sampled input coordinates.
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t i = pick.uniform_index(src.size());
    const float original = src[i];
    src[i] = original + eps;
    const double up = loss();
    src[i] = original - eps;
    const double down = loss();
    src[i] = original;
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic_dsrc[i], numeric,
                2e-2 * std::max(1.0, std::fabs(numeric)))
        << "src index " << i;
  }
}

}  // namespace
}  // namespace cf::dnn
