// Reduced-precision inference (DESIGN.md §2.5): conversion kernels,
// the network-level side arena, and the accuracy-tolerance gate that
// licenses bf16 serving.
//
// The tolerance tests run the SAME fixture (core::precision_eval) the
// precision ablation bench reports on, with hard MAE thresholds: a
// kernel change that degrades reduced-precision accuracy fails here
// before it ships a bench number. fp32 stays the reference — nothing
// in this suite permits it to change bits.
//
// Bit-exactness cases avoid denormal inputs deliberately: with native
// AVX512BF16 the vectorized narrow flushes denormals to zero while the
// scalar path round-trips them, and the network never produces them
// (precision.hpp documents the divergence).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/precision_eval.hpp"
#include "core/topology.hpp"
#include "dnn/network.hpp"
#include "dnn/precision.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "tensor/tensor_ops.hpp"

namespace cf {
namespace {

using dnn::bf16_t;
using tensor::Tensor;

// --- Conversion kernels ----------------------------------------------

TEST(Precision, Bf16RoundTripIsExactForRepresentableValues) {
  // Values whose mantissa fits in 8 bits survive the round trip
  // bit-for-bit, including signs and signed zero.
  for (const float v : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, -2.5f, 256.0f,
                        -3.140625f, 1.0f / 1024.0f}) {
    const float back = dnn::bf16_to_float(dnn::float_to_bf16(v));
    EXPECT_EQ(dnn::f32_bits(back), dnn::f32_bits(v)) << "v=" << v;
  }
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(dnn::bf16_to_float(dnn::float_to_bf16(inf)), inf);
  EXPECT_EQ(dnn::bf16_to_float(dnn::float_to_bf16(-inf)), -inf);
}

TEST(Precision, Bf16RoundsToNearestEven) {
  // 1.0 + 2^-9 sits exactly halfway between bf16(1.0) = 0x3f80 and
  // its successor 0x3f81; the keep bit is even, so RNE rounds down.
  EXPECT_EQ(dnn::float_to_bf16(dnn::bits_f32(0x3f808000u)), 0x3f80);
  // The next halfway point (keep bit odd) rounds up to even 0x3f82.
  EXPECT_EQ(dnn::float_to_bf16(dnn::bits_f32(0x3f818000u)), 0x3f82);
  // Just above / below halfway round to nearest regardless of parity.
  EXPECT_EQ(dnn::float_to_bf16(dnn::bits_f32(0x3f808001u)), 0x3f81);
  EXPECT_EQ(dnn::float_to_bf16(dnn::bits_f32(0x3f807fffu)), 0x3f80);
  // Mantissa carry propagates into the exponent: 1.9999... -> 2.0.
  EXPECT_EQ(dnn::float_to_bf16(dnn::bits_f32(0x3fffffffu)), 0x4000);
}

TEST(Precision, Bf16QuietsNaNAndNeverMakesInfinity) {
  // A signalling NaN whose payload lives entirely in the truncated
  // bits would become an infinity under plain truncation; the
  // converter forces the quiet bit instead.
  const float snan = dnn::bits_f32(0x7f800001u);
  const bf16_t h = dnn::float_to_bf16(snan);
  EXPECT_TRUE(std::isnan(dnn::bf16_to_float(h)));
  EXPECT_EQ(h & 0x0040u, 0x0040u);
  EXPECT_TRUE(std::isnan(
      dnn::bf16_to_float(dnn::float_to_bf16(std::nanf("")))));
}

TEST(Precision, Bf16ArrayConvertersMatchScalarBits) {
  // The vectorized converters (AVX-512 when available) must produce
  // the scalar helper's bits on every lane, across vector-width
  // boundaries and the remainder tail.
  runtime::Rng rng(17);
  std::vector<float> src(67);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = rng.normal() * std::pow(10.0f, static_cast<float>(i % 9) - 4.0f);
  }
  src[3] = 0.0f;
  src[19] = -std::numeric_limits<float>::infinity();
  src[33] = std::nanf("");
  std::vector<bf16_t> narrowed(src.size());
  dnn::bf16_from_f32(src.data(), narrowed.data(), src.size());
  std::vector<float> widened(src.size());
  dnn::f32_from_bf16(narrowed.data(), widened.data(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(narrowed[i], dnn::float_to_bf16(src[i])) << "lane " << i;
    EXPECT_EQ(dnn::f32_bits(widened[i]),
              dnn::f32_bits(dnn::bf16_to_float(narrowed[i])))
        << "lane " << i;
  }
}

// --- Shared eval fixture ---------------------------------------------

TEST(Precision, EvalFixtureIsDeterministicAndStreamStable) {
  const tensor::Shape shape{1, 4, 4, 4};
  const auto a = core::precision_eval_inputs(shape, 3);
  const auto b = core::precision_eval_inputs(shape, 3);
  ASSERT_EQ(a.size(), 3u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(tensor::max_abs_diff(a[i].to_vector(), b[i].to_vector()),
              0.0f);
  }
  // Per-input Philox streams: a longer set extends, never reshuffles.
  const auto c = core::precision_eval_inputs(shape, 5);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(tensor::max_abs_diff(a[i].to_vector(), c[i].to_vector()),
              0.0f);
  }
}

// --- Network-level arenas and context creation -----------------------

TEST(Precision, PrepareBuildsArenasAndRepacksOnReload) {
  dnn::Network net = core::build_network(core::cosmoflow_scaled(8), 7);
  EXPECT_TRUE(net.precision_prepared(dnn::Precision::kFp32));
  EXPECT_FALSE(net.precision_prepared(dnn::Precision::kBf16));

  net.prepare_inference_precision(dnn::Precision::kBf16);
  ASSERT_TRUE(net.precision_prepared(dnn::Precision::kBf16));
  // Conv segments keep the plain elementwise RNE image (the kernels
  // widen on load); dense segments are repacked into vdpbf16ps tiles,
  // so only their contents — not their layout — are the fp32 image.
  bool checked_conv = false;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (net.layer(i).name().rfind("conv", 0) != 0) continue;
    checked_conv = true;
    const auto fp32 = net.param_segment(i);
    const auto packed = net.bf16_param_segment(i);
    ASSERT_EQ(fp32.size(), packed.size());
    for (std::size_t j = 0; j < fp32.size(); ++j) {
      ASSERT_EQ(packed[j], dnn::float_to_bf16(fp32[j]))
          << "layer " << i << " elem " << j;
    }
  }
  EXPECT_TRUE(checked_conv);

  // Re-pack after a weight change: the image follows the new values.
  std::vector<float> params(static_cast<std::size_t>(net.param_count()));
  net.copy_params_to(params);
  for (float& p : params) p *= 2.0f;
  net.set_params_from(params);
  net.prepare_inference_precision(dnn::Precision::kBf16);
  const auto seg0 = net.param_segment(0);
  const auto packed0 = net.bf16_param_segment(0);
  for (std::size_t j = 0; j < seg0.size(); ++j) {
    ASSERT_EQ(packed0[j], dnn::float_to_bf16(seg0[j]));
  }
}

TEST(Precision, MakeContextRejectsUnpreparedAndTraining) {
  dnn::Network net = core::build_network(core::cosmoflow_scaled(8), 7);
  // Unprepared reduced precision is a hard error, not a silent fp32.
  EXPECT_THROW(
      net.make_context(dnn::ExecMode::kInference, dnn::Precision::kBf16),
      std::logic_error);
  net.prepare_inference_precision(dnn::Precision::kBf16);
  // Training contexts are fp32-only even when bf16 is prepared.
  EXPECT_THROW(
      net.make_context(dnn::ExecMode::kTraining, dnn::Precision::kBf16),
      std::logic_error);
  dnn::ExecContext ctx =
      net.make_context(dnn::ExecMode::kInference, dnn::Precision::kBf16);
  EXPECT_EQ(ctx.precision(), dnn::Precision::kBf16);
}

// --- Determinism: each precision is bitwise stable against itself. ---

TEST(Precision, Bf16ForwardIsDeterministicAcrossContextsAndPools) {
  dnn::Network net = core::build_network(core::cosmoflow_scaled(16), 7);
  net.prepare_inference_precision(dnn::Precision::kBf16);
  const auto inputs = core::precision_eval_inputs(net.input_shape(), 2);

  runtime::ThreadPool pool1(1);
  dnn::ExecContext ref =
      net.make_context(dnn::ExecMode::kInference, dnn::Precision::kBf16);
  std::vector<std::vector<float>> expected;
  for (const Tensor& in : inputs) {
    expected.push_back(ref.forward(in, pool1).to_vector());
  }

  // Fresh context, wider pool: identical bits (the partitioner never
  // changes per-row summation order — DESIGN.md §2.4 holds per mode).
  runtime::ThreadPool pool3(3);
  dnn::ExecContext other =
      net.make_context(dnn::ExecMode::kInference, dnn::Precision::kBf16);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(tensor::max_abs_diff(
                  other.forward(inputs[i], pool3).to_vector(),
                  expected[i]),
              0.0f);
  }
}

// --- The accuracy-tolerance gate -------------------------------------

// MAE of `precision` predictions against fp32 over the shared fixture.
// Thresholds below are hard: measured at these exact settings
// (cosmoflow_scaled(16), seed 7, 12 inputs) and set ~4x above the
// observed value, so drift well past rounding noise fails the build.
double mae_vs_fp32(dnn::Network& net, dnn::Precision precision,
                   double* mean_abs_fp32 = nullptr) {
  const auto inputs = core::precision_eval_inputs(net.input_shape(), 12);
  runtime::ThreadPool pool(1);
  dnn::ExecContext fp32_ctx = net.make_context(dnn::ExecMode::kInference);
  dnn::ExecContext rp_ctx =
      net.make_context(dnn::ExecMode::kInference, precision);
  std::vector<float> ref, got;
  for (const Tensor& in : inputs) {
    const auto r = fp32_ctx.forward(in, pool).to_vector();
    const auto g = rp_ctx.forward(in, pool).to_vector();
    ref.insert(ref.end(), r.begin(), r.end());
    got.insert(got.end(), g.begin(), g.end());
  }
  if (mean_abs_fp32 != nullptr) {
    double total = 0.0;
    for (const float v : ref) total += std::abs(v);
    *mean_abs_fp32 = total / static_cast<double>(ref.size());
  }
  return core::prediction_mae(got, ref);
}

TEST(Precision, Bf16PredictionsWithinTolerance) {
  dnn::Network net = core::build_network(core::cosmoflow_scaled(16), 7);
  net.prepare_inference_precision(dnn::Precision::kBf16);
  double mean_abs = 0.0;
  const double mae = mae_vs_fp32(net, dnn::Precision::kBf16, &mean_abs);
  // bf16 is not fp32 — a zero MAE would mean the fast path silently
  // fell back to the reference kernels.
  EXPECT_GT(mae, 0.0);
  EXPECT_LT(mae, 8e-3);
  // And the error must be small relative to the prediction scale.
  EXPECT_LT(mae, 0.05 * mean_abs);
}

// --- Serving integration ---------------------------------------------

TEST(Precision, ServerRejectsUnpreparedPrecision) {
  const auto network = std::make_shared<const dnn::Network>(
      core::build_network(core::cosmoflow_scaled(8), 7));
  serve::ServerConfig config;
  config.workers = 1;
  config.precision = dnn::Precision::kBf16;
  EXPECT_THROW(serve::Server(network, config), std::invalid_argument);
}

TEST(Precision, ServedBf16MatchesSerialBf16Bits) {
  auto mutable_net = std::make_shared<dnn::Network>(
      core::build_network(core::cosmoflow_scaled(8), 7));
  mutable_net->prepare_inference_precision(dnn::Precision::kBf16);
  const std::shared_ptr<const dnn::Network> network = mutable_net;

  const auto inputs = core::precision_eval_inputs(network->input_shape(), 4);
  runtime::ThreadPool pool(1);
  dnn::ExecContext ref = network->make_context(
      dnn::ExecMode::kInference, dnn::Precision::kBf16);
  std::vector<std::vector<float>> expected;
  for (const Tensor& in : inputs) {
    expected.push_back(ref.forward(in, pool).to_vector());
  }

  serve::ServerConfig config;
  config.workers = 2;
  config.precision = dnn::Precision::kBf16;
  serve::Server server(network, config);
  EXPECT_EQ(server.config().precision, dnn::Precision::kBf16);
  std::vector<std::future<serve::InferenceResult>> futures(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_EQ(server.submit(inputs[i].clone(), &futures[i]),
              serve::SubmitStatus::kAccepted);
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const serve::InferenceResult r = futures[i].get();
    EXPECT_EQ(tensor::max_abs_diff(r.output, expected[i]), 0.0f);
  }
  server.shutdown();
}

}  // namespace
}  // namespace cf
