// The load-bearing property of the conv/dense → LeakyReLU epilogue
// fusion: the fused graph must be *bitwise identical* to the unfused
// one. The epilogue applies the same `v > 0 ? v : slope*v` expression
// to the same accumulator values the standalone layer would have read,
// and the backward mask keys off the sign of the fused output — which
// equals the pre-activation sign for slope in [0, 1) — so fwd, bwd and
// whole training trajectories may not differ in a single bit.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/dataset_gen.hpp"
#include "core/topology.hpp"
#include "core/trainer.hpp"
#include "dnn/activations.hpp"
#include "dnn/conv3d.hpp"
#include "dnn/dense.hpp"
#include "dnn/network.hpp"
#include "dnn/standalone_exec.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/layout.hpp"
#include "tensor/tensor_ops.hpp"

namespace cf {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr float kSlope = 0.01f;

// --- Layer-level: one fused Conv3d vs conv + standalone LeakyRelu. ---

struct FusedConvCase {
  std::int64_t ic, oc, dhw, kernel, stride;
};

class FusedConvVsUnfused : public ::testing::TestWithParam<FusedConvCase> {};

TEST_P(FusedConvVsUnfused, ForwardAndBackwardBitIdentical) {
  const FusedConvCase& c = GetParam();
  const dnn::Conv3dConfig config{c.ic, c.oc, c.kernel, c.stride,
                                 dnn::Padding::kSame};
  dnn::Conv3d plain("conv", config);
  dnn::Conv3d fused("conv", config);
  ASSERT_TRUE(fused.fuse_leaky_relu(kSlope));
  ASSERT_TRUE(fused.fused());
  // Out-of-range slopes must be rejected (sign equivalence breaks).
  dnn::Conv3d reject("conv", config);
  EXPECT_FALSE(reject.fuse_leaky_relu(1.0f));
  EXPECT_FALSE(reject.fuse_leaky_relu(-0.1f));

  runtime::Rng rng(42, static_cast<std::uint64_t>(c.ic * 100 + c.oc));
  Tensor plain_src(Shape{c.ic, c.dhw, c.dhw, c.dhw});
  tensor::fill_normal(plain_src, rng, 0.0f, 1.0f);
  Tensor weights(Shape{c.oc, c.ic, c.kernel, c.kernel, c.kernel});
  tensor::fill_normal(weights, rng, 0.0f, 0.5f);
  Tensor bias(Shape{c.oc});
  tensor::fill_normal(bias, rng, 0.0f, 0.1f);

  const Shape in_shape = plain.input_is_plain()
                             ? plain_src.shape()
                             : Shape{c.ic / 16, c.dhw, c.dhw, c.dhw, 16};
  plain.plan(in_shape);
  fused.plan(in_shape);
  plain.set_plain_weights(weights, bias);
  fused.set_plain_weights(weights, bias);

  dnn::LeakyRelu act("act", kSlope);
  act.plan(plain.output_shape());
  dnn::StandaloneExec plain_exec(plain);
  dnn::StandaloneExec fused_exec(fused);
  dnn::StandaloneExec act_exec(act);

  runtime::ThreadPool pool(3);
  const Tensor src = plain.input_is_plain()
                         ? plain_src.clone()
                         : tensor::to_blocked_activation(plain_src);

  Tensor conv_out(plain.output_shape());
  Tensor act_out(plain.output_shape());
  Tensor fused_out(fused.output_shape());
  plain_exec.forward(src, conv_out, pool);
  act_exec.forward(conv_out, act_out, pool);
  fused_exec.forward(src, fused_out, pool);
  EXPECT_EQ(tensor::max_abs_diff(fused_out.values(), act_out.values()),
            0.0f);

  Tensor ddst(plain.output_shape());
  tensor::fill_normal(ddst, rng, 0.0f, 1.0f);

  // Unfused chain: activation backward, then the conv backward.
  Tensor dact(plain.output_shape());
  act_exec.backward(conv_out, act_out, ddst, &dact, pool);
  Tensor dsrc_plain(plain.input_shape());
  plain_exec.backward(src, conv_out, dact, &dsrc_plain, pool);

  // Fused: one call, the mask recovered from the forward output.
  Tensor dsrc_fused(fused.input_shape());
  fused_exec.backward(src, fused_out, ddst, &dsrc_fused, pool);

  EXPECT_EQ(tensor::max_abs_diff(dsrc_fused.values(), dsrc_plain.values()),
            0.0f);
  const Tensor dw_plain = plain.to_plain_weights(plain_exec.state.grads[0]);
  const Tensor dw_fused = fused.to_plain_weights(fused_exec.state.grads[0]);
  EXPECT_EQ(tensor::max_abs_diff(dw_fused.values(), dw_plain.values()),
            0.0f);
  EXPECT_EQ(tensor::max_abs_diff(fused_exec.state.grads[1].values(),
                                 plain_exec.state.grads[1].values()),
            0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FusedConvVsUnfused,
    ::testing::Values(FusedConvCase{1, 16, 8, 3, 1},   // plain-input path
                      FusedConvCase{16, 32, 8, 3, 1},  // blocked path
                      FusedConvCase{32, 64, 8, 3, 2},  // strided
                      FusedConvCase{16, 32, 7, 4, 1}), // odd size, even k
    [](const ::testing::TestParamInfo<FusedConvCase>& info) {
      const FusedConvCase& c = info.param;
      return "ic" + std::to_string(c.ic) + "_oc" + std::to_string(c.oc) +
             "_s" + std::to_string(c.dhw) + "_k" +
             std::to_string(c.kernel) + "_st" + std::to_string(c.stride);
    });

TEST(FusedDenseVsUnfused, ForwardAndBackwardBitIdentical) {
  const std::vector<std::pair<std::int64_t, std::int64_t>> shapes{
      {512, 128}, {128, 32}, {33, 7}};
  for (const auto& [in, out] : shapes) {
    dnn::Dense plain("fc", in, out);
    dnn::Dense fused("fc", in, out);
    ASSERT_TRUE(fused.fuse_leaky_relu(kSlope));
    plain.plan(Shape{in});
    fused.plan(Shape{in});
    runtime::Rng rng(7, static_cast<std::uint64_t>(in));
    plain.init_xavier(rng);
    fused.weights() = plain.weights().clone();
    fused.bias() = plain.bias().clone();
    dnn::StandaloneExec plain_exec(plain);
    dnn::StandaloneExec fused_exec(fused);

    runtime::ThreadPool pool(3);
    Tensor src(Shape{in});
    tensor::fill_normal(src, rng, 0.0f, 1.0f);

    dnn::LeakyRelu act("act", kSlope);
    act.plan(Shape{out});
    dnn::StandaloneExec act_exec(act);
    Tensor fc_out{Shape{out}}, act_out{Shape{out}}, fused_out{Shape{out}};
    plain_exec.forward(src, fc_out, pool);
    act_exec.forward(fc_out, act_out, pool);
    fused_exec.forward(src, fused_out, pool);
    EXPECT_EQ(tensor::max_abs_diff(fused_out.values(), act_out.values()),
              0.0f);

    Tensor ddst(Shape{out});
    tensor::fill_normal(ddst, rng, 0.0f, 1.0f);
    Tensor dact{Shape{out}}, dsrc_plain{Shape{in}}, dsrc_fused{Shape{in}};
    act_exec.backward(fc_out, act_out, ddst, &dact, pool);
    plain_exec.backward(src, fc_out, dact, &dsrc_plain, pool);
    fused_exec.backward(src, fused_out, ddst, &dsrc_fused, pool);

    EXPECT_EQ(
        tensor::max_abs_diff(dsrc_fused.values(), dsrc_plain.values()),
        0.0f);
    const std::vector<Tensor>& plain_grads = plain_exec.state.grads;
    const std::vector<Tensor>& fused_grads = fused_exec.state.grads;
    ASSERT_EQ(plain_grads.size(), fused_grads.size());
    for (std::size_t p = 0; p < plain_grads.size(); ++p) {
      EXPECT_EQ(tensor::max_abs_diff(fused_grads[p].values(),
                                     plain_grads[p].values()),
                0.0f)
          << "param " << plain.param_specs()[p].name;
    }
  }
}

// --- Network-level: the fusion pass collapses pairs and preserves
// every bit of the forward/backward results. ---

TEST(FusionPass, CollapsesConvAndDensePairsAndPreservesBits) {
  for (const std::int64_t dhw : {std::int64_t{16}, std::int64_t{32}}) {
    const core::TopologyConfig topo = core::cosmoflow_scaled(dhw);
    dnn::Network fused = core::build_network(topo, /*seed=*/9);
    dnn::Network plain =
        core::build_network(topo, /*seed=*/9, /*fuse_eltwise=*/false);

    // One absorbed LeakyRelu per conv and per hidden dense; the output
    // layer keeps no activation.
    const std::size_t pairs =
        topo.convs.size() + topo.dense_hidden.size();
    EXPECT_EQ(fused.fused_pairs(), pairs);
    EXPECT_EQ(plain.fused_pairs(), 0u);
    EXPECT_EQ(fused.layer_count() + pairs, plain.layer_count());
    ASSERT_EQ(fused.param_count(), plain.param_count());

    runtime::ThreadPool pool(4);
    runtime::Rng rng(11, static_cast<std::uint64_t>(dhw));
    Tensor input(core::input_shape(topo));
    tensor::fill_normal(input, rng, 0.0f, 1.0f);

    dnn::ExecContext ctx_fused =
        fused.make_context(dnn::ExecMode::kTraining);
    dnn::ExecContext ctx_plain =
        plain.make_context(dnn::ExecMode::kTraining);
    const Tensor& out_fused = ctx_fused.forward(input, pool);
    const Tensor& out_plain = ctx_plain.forward(input, pool);
    EXPECT_EQ(
        tensor::max_abs_diff(out_fused.values(), out_plain.values()),
        0.0f);

    Tensor dloss(fused.output_shape());
    tensor::fill_normal(dloss, rng, 0.0f, 1.0f);
    ctx_fused.backward(dloss, pool);
    ctx_plain.backward(dloss, pool);
    std::vector<float> grads_fused(
        static_cast<std::size_t>(fused.param_count()));
    std::vector<float> grads_plain(grads_fused.size());
    ctx_fused.copy_grads_to(grads_fused);
    ctx_plain.copy_grads_to(grads_plain);
    EXPECT_EQ(tensor::max_abs_diff(grads_fused, grads_plain), 0.0f);
  }
}

// --- End-to-end: whole training trajectories match. ---

TEST(FusionE2E, LossTrajectoryIdenticalAcrossRankCounts) {
  runtime::ThreadPool gen_pool;
  core::DatasetGenConfig gen;
  gen.simulations = 6;
  gen.sim.grid = {16, 64.0};
  gen.sim.voxels = 16;
  gen.seed = 53;
  core::GeneratedDataset dataset = core::generate_dataset(gen, gen_pool);
  const data::InMemorySource train(std::move(dataset.train));
  const data::InMemorySource val(std::move(dataset.val));

  for (const int nranks : {1, 4}) {
    const auto run = [&](bool fuse) {
      core::TrainerConfig config;
      config.nranks = nranks;
      config.epochs = 2;
      config.fuse_eltwise = fuse;
      core::Trainer trainer(core::cosmoflow_scaled(8), train, val, config);
      return trainer.run();
    };
    const auto fused = run(true);
    const auto plain = run(false);
    ASSERT_EQ(fused.size(), plain.size());
    for (std::size_t e = 0; e < fused.size(); ++e) {
      EXPECT_EQ(fused[e].train_loss, plain[e].train_loss)
          << "nranks " << nranks << " epoch " << e;
      EXPECT_EQ(fused[e].val_loss, plain[e].val_loss)
          << "nranks " << nranks << " epoch " << e;
    }
  }
}

}  // namespace
}  // namespace cf
