// The load-bearing property of the memory planner (DESIGN.md §2.2):
// rebinding every difference tensor onto the two parity ping-pong
// buffers and serving all backward scratch from one shared arena is a
// *placement-only* transformation — the planned step must be bitwise
// identical to the unplanned one, over whole training trajectories,
// with and without eltwise fusion, at any rank count. The zero-free
// backward kernels this rests on (conv gather, pool direct-write) must
// fully overwrite their dsrc, so reused buffers full of stale garbage
// must not leak a single bit into the results.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/dataset_gen.hpp"
#include "core/topology.hpp"
#include "core/trainer.hpp"
#include "dnn/avgpool3d.hpp"
#include "dnn/conv3d.hpp"
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

constexpr std::int64_t kB = tensor::kChannelBlock;

// --- Planner aliasing: parity classes share storage, live pairs don't. ---

TEST(MemplanPlanner, DiffsSharePingPongBuffersByParity) {
  dnn::Network net = core::build_network(core::cosmoflow_scaled(8), 5);
  ASSERT_TRUE(net.memory_planning());
  ASSERT_GE(net.layer_count(), 3u);
  dnn::ExecContext ctx = net.make_context(dnn::ExecMode::kTraining);

  const float* even_base = ctx.diff(0).data();
  const float* odd_base = ctx.diff(1).data();
  std::size_t max_even = 0;
  std::size_t max_odd = 0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    // Planned diffs are views into the context's arena, not owners.
    EXPECT_FALSE(ctx.diff(i).owns_storage()) << "layer " << i;
    // Every diff of a parity class starts at that class's buffer.
    EXPECT_EQ(ctx.diff(i).data(), i % 2 == 0 ? even_base : odd_base)
        << "layer " << i;
    std::size_t& slot = i % 2 == 0 ? max_even : max_odd;
    slot = std::max(slot, static_cast<std::size_t>(ctx.diff(i).size()));
  }
  // The two buffers back a live (ddst, dsrc) pair — they must not
  // overlap: the odd buffer starts past the even buffer's extent.
  EXPECT_GE(odd_base, even_base + max_even);
  EXPECT_EQ(net.diff_arena_bytes(), (max_even + max_odd) * sizeof(float));
  // The context allocated exactly what the network planned.
  EXPECT_EQ(ctx.diff_arena_bytes(), net.diff_arena_bytes());

  // A second stream gets its own arena — no storage shared between
  // contexts, only the (read-only) weights.
  dnn::ExecContext other = net.make_context(dnn::ExecMode::kTraining);
  EXPECT_NE(other.diff(0).data(), ctx.diff(0).data());
}

TEST(MemplanPlanner, UnplannedDiffsKeepPrivateStorage) {
  dnn::Network net = core::build_network(core::cosmoflow_scaled(8), 5,
                                         /*fuse_eltwise=*/true,
                                         /*memplan=*/false);
  ASSERT_FALSE(net.memory_planning());
  dnn::ExecContext ctx = net.make_context(dnn::ExecMode::kTraining);
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    EXPECT_TRUE(ctx.diff(i).owns_storage()) << "layer " << i;
    for (std::size_t j = i + 1; j < net.layer_count(); ++j) {
      EXPECT_NE(ctx.diff(i).data(), ctx.diff(j).data());
    }
  }
}

// --- Footprint regression: the exact planned byte budget of the fig3
// configuration (cosmoflow_scaled(32), fused). Any layer growing a new
// persistent stream shows up here. ---

TEST(MemplanPlanner, PeakBytesPinnedForScaled32) {
  dnn::Network planned = core::build_network(core::cosmoflow_scaled(32), 5);
  // Activations: conv1 {1,32,32,32,16} 524288 + pool1 65536 +
  // conv2 131072 + pool2 16384 + conv3 4096 + flatten 4096 +
  // fc 128 + 32 + 3 = 745635 floats.
  EXPECT_EQ(planned.activation_bytes(), 745635u * sizeof(float));
  // Ping-pong: max even diff 524288 (conv1) + max odd diff 65536
  // (pool1) — vs 745635 for the per-layer buffers it replaces.
  EXPECT_EQ(planned.diff_arena_bytes(), 589824u * sizeof(float));
  // Shared scratch: max transposed-weight request = conv3
  // (4 ocb * 2 icb * 27 taps * 256) = 55296 floats.
  EXPECT_EQ(planned.scratch_bytes(), 55296u * sizeof(float));
  EXPECT_EQ(planned.peak_tensor_bytes(),
            (745635u + 589824u + 55296u) * sizeof(float));

  dnn::Network unplanned =
      core::build_network(core::cosmoflow_scaled(32), 5,
                          /*fuse_eltwise=*/true, /*memplan=*/false);
  EXPECT_EQ(unplanned.activation_bytes(), planned.activation_bytes());
  EXPECT_LT(planned.diff_arena_bytes(), unplanned.diff_arena_bytes());
  EXPECT_LT(planned.scratch_bytes(), unplanned.scratch_bytes());
  EXPECT_LT(planned.peak_tensor_bytes(), unplanned.peak_tensor_bytes());
}

// --- Zero-free kernels fully overwrite dsrc: stale garbage in a
// reused buffer must not change a bit of the result. ---

TEST(MemplanCoverage, ConvGatherBackwardIgnoresStaleDsrc) {
  struct Case {
    std::int64_t kernel, stride;
    dnn::Padding pad;
  };
  // k2 s3 valid leaves input rows no output tap reaches (id = 2, 5, ...)
  // — the gather must still store its (zeroed) accumulator there.
  for (const Case& c : {Case{2, 3, dnn::Padding::kValid},
                        Case{3, 1, dnn::Padding::kSame},
                        Case{3, 2, dnn::Padding::kSame}}) {
    const std::int64_t kernel = c.kernel;
    const std::int64_t stride = c.stride;
    dnn::Conv3d conv("c", dnn::Conv3dConfig{16, 16, kernel, stride, c.pad});
    conv.plan(Shape{1, 8, 8, 8, kB});
    runtime::Rng rng(17, static_cast<std::uint64_t>(kernel * 10 + stride));
    conv.init_he(rng);
    dnn::StandaloneExec exec(conv);
    runtime::ThreadPool pool(3);

    Tensor src(conv.input_shape());
    tensor::fill_normal(src, rng, 0.0f, 1.0f);
    Tensor dst(conv.output_shape());
    exec.forward(src, dst, pool);
    Tensor ddst(conv.output_shape());
    tensor::fill_normal(ddst, rng, 0.0f, 1.0f);

    Tensor dsrc_a(conv.input_shape());
    for (std::size_t i = 0; i < dsrc_a.size(); ++i) dsrc_a[i] = 1e9f;
    Tensor ddst_a = ddst.clone();
    exec.backward(src, dst, ddst_a, &dsrc_a, pool);

    Tensor dsrc_b(conv.input_shape());
    for (std::size_t i = 0; i < dsrc_b.size(); ++i) dsrc_b[i] = -7e8f;
    Tensor ddst_b = ddst.clone();
    exec.backward(src, dst, ddst_b, &dsrc_b, pool);

    EXPECT_EQ(tensor::max_abs_diff(dsrc_a.values(), dsrc_b.values()), 0.0f)
        << "k" << kernel << " s" << stride;
  }
}

/// Naive zero-then-accumulate oracle for blocked avg-pool backward.
void pool_backward_reference(const Tensor& ddst, std::int64_t k,
                             std::int64_t s, Tensor& dsrc) {
  dsrc.zero();
  const std::int64_t cb = dsrc.shape()[0];
  const std::int64_t in_d = dsrc.shape()[1];
  const std::int64_t in_h = dsrc.shape()[2];
  const std::int64_t in_w = dsrc.shape()[3];
  const std::int64_t out_d = ddst.shape()[1];
  const std::int64_t out_h = ddst.shape()[2];
  const std::int64_t out_w = ddst.shape()[3];
  const float inv = 1.0f / static_cast<float>(k * k * k);
  for (std::int64_t c = 0; c < cb; ++c) {
    for (std::int64_t od = 0; od < out_d; ++od) {
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        for (std::int64_t ow = 0; ow < out_w; ++ow) {
          const float* d =
              ddst.data() + (((c * out_d + od) * out_h + oh) * out_w + ow) * kB;
          for (std::int64_t kd = 0; kd < k; ++kd) {
            for (std::int64_t kh = 0; kh < k; ++kh) {
              for (std::int64_t kw = 0; kw < k; ++kw) {
                float* t = dsrc.data() +
                           (((c * in_d + od * s + kd) * in_h + oh * s + kh) *
                                in_w +
                            ow * s + kw) *
                               kB;
                for (int l = 0; l < kB; ++l) t[l] += d[l] * inv;
              }
            }
          }
        }
      }
    }
  }
}

TEST(MemplanCoverage, PoolBackwardGapsTailsAndStaleDsrc) {
  struct Case {
    std::int64_t kernel, stride, in;
  };
  // k2 s2: the CosmoFlow case (exact tiling). k2 s3: inter-window gaps.
  // k3 s3 in=10: depth/row/width tails. k2 s2 in=9: odd-input tails.
  // k3 s2: overlapping windows (accumulate fallback).
  for (const Case& c : {Case{2, 2, 8}, Case{2, 3, 8}, Case{3, 3, 10},
                        Case{2, 2, 9}, Case{3, 2, 8}}) {
    dnn::AvgPool3d layer("p", dnn::AvgPool3dConfig{c.kernel, c.stride});
    layer.plan(Shape{2, c.in, c.in, c.in, kB});
    runtime::ThreadPool pool(3);
    runtime::Rng rng(23, static_cast<std::uint64_t>(c.kernel * 100 + c.in));
    Tensor src(layer.input_shape());
    tensor::fill_normal(src, rng, 0.0f, 1.0f);
    Tensor ddst(layer.output_shape());
    tensor::fill_normal(ddst, rng, 0.0f, 1.0f);

    Tensor expected(layer.input_shape());
    pool_backward_reference(ddst, c.kernel, c.stride, expected);

    // Prefill with garbage: the direct-write path must overwrite or
    // zero every element (assignments produce the same bits as the
    // oracle's 0 + d*inv accumulation).
    Tensor dsrc(layer.input_shape());
    for (std::size_t i = 0; i < dsrc.size(); ++i) dsrc[i] = 3e9f;
    Tensor dst(layer.output_shape());
    dnn::StandaloneExec(layer).backward(src, dst, ddst, &dsrc, pool);

    EXPECT_EQ(tensor::max_abs_diff(dsrc.values(), expected.values()), 0.0f)
        << "k" << c.kernel << " s" << c.stride << " in" << c.in;
  }
}

// --- End-to-end: planned and unplanned training trajectories are
// bitwise identical — losses and final parameters — across fusion
// modes and rank counts. ---

TEST(MemplanE2E, TrajectoryBitwiseIdenticalToUnplanned) {
  runtime::ThreadPool gen_pool;
  core::DatasetGenConfig gen;
  gen.simulations = 6;
  gen.sim.grid = {16, 64.0};
  gen.sim.voxels = 16;
  gen.seed = 53;
  core::GeneratedDataset dataset = core::generate_dataset(gen, gen_pool);
  const data::InMemorySource train(std::move(dataset.train));
  const data::InMemorySource val(std::move(dataset.val));

  for (const bool fuse : {true, false}) {
    for (const int nranks : {1, 4}) {
      std::vector<float> params_planned;
      std::vector<float> params_unplanned;
      const auto run = [&](bool plan, std::vector<float>* params) {
        core::TrainerConfig config;
        config.nranks = nranks;
        config.epochs = 2;
        config.fuse_eltwise = fuse;
        config.memplan = plan;
        core::Trainer trainer(core::cosmoflow_scaled(8), train, val,
                              config);
        const auto stats = trainer.run();
        params->resize(
            static_cast<std::size_t>(trainer.network(0).param_count()));
        trainer.network(0).copy_params_to(*params);
        return stats;
      };
      const auto planned = run(true, &params_planned);
      const auto unplanned = run(false, &params_unplanned);
      ASSERT_EQ(planned.size(), unplanned.size());
      for (std::size_t e = 0; e < planned.size(); ++e) {
        EXPECT_EQ(planned[e].train_loss, unplanned[e].train_loss)
            << "fuse " << fuse << " nranks " << nranks << " epoch " << e;
        EXPECT_EQ(planned[e].val_loss, unplanned[e].val_loss)
            << "fuse " << fuse << " nranks " << nranks << " epoch " << e;
      }
      EXPECT_EQ(tensor::max_abs_diff(params_planned, params_unplanned),
                0.0f)
          << "fuse " << fuse << " nranks " << nranks;
    }
  }
}

}  // namespace
}  // namespace cf
