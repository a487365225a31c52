// Cost-model-driven intra-op threading (DESIGN.md §2.6).
//
// The contract under test: a kernel's job grid is fixed by the layer
// geometry, threading and the per-layer grain only re-partition it, and
// per-chunk partials are combined in block order — so any thread count
// and any grain produce bitwise-identical results. On top of that sits
// the CostModel: a roofline + efficiency-curve predictor whose choose()
// must be sane at the degenerate 1-core budget (this VM) and monotone
// as the budget grows. The ThreadPool's nested-dispatch guard (a
// parallel_for issued from inside a parallel_for body runs serially
// instead of deadlocking) is pinned here too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/topology.hpp"
#include "dnn/cost_model.hpp"
#include "dnn/network.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/tensor_ops.hpp"

namespace cf {
namespace {

using tensor::Tensor;

// Forward + backward through the full scaled network, returning every
// bit the step produced: the outputs and the whole gradient arena.
std::vector<float> train_step_bits(int threads, bool fused,
                                   bool cost_model_grains) {
  dnn::Network net =
      core::build_network(core::cosmoflow_scaled(8), 7, fused);
  dnn::ExecContext ctx = net.make_context(dnn::ExecMode::kTraining);
  if (cost_model_grains) {
    const dnn::CostModel cm(net, {}, /*training=*/true);
    dnn::IntraopPlan plan;
    plan.threads_per_stream = static_cast<std::size_t>(threads);
    plan.grains = cm.grains_for(static_cast<std::size_t>(threads));
    plan.predicted_efficiency =
        cm.predicted_efficiency(static_cast<std::size_t>(threads));
    ctx.apply_intraop(plan);
  }
  runtime::ThreadPool pool(static_cast<std::size_t>(threads));
  runtime::Rng rng(17);
  Tensor input(net.input_shape());
  tensor::fill_normal(input, rng, 0.0f, 1.0f);
  std::vector<float> bits = ctx.forward(input, pool).to_vector();
  Tensor dloss(net.output_shape());
  tensor::fill_normal(dloss, rng, 0.0f, 1.0f);
  ctx.backward(dloss, pool);
  const auto grads = ctx.grad_arena();
  bits.insert(bits.end(), grads.begin(), grads.end());
  return bits;
}

class IntraopTrainInvariance
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(IntraopTrainInvariance, ForwardBackwardBitIdentical) {
  const auto [threads, fused] = GetParam();
  const auto serial = train_step_bits(1, fused, false);
  // Same thread count without the plan (default grain 1), and with the
  // cost model's grains: both must reproduce the serial bits.
  const auto threaded = train_step_bits(threads, fused, false);
  const auto planned = train_step_bits(threads, fused, true);
  ASSERT_EQ(serial.size(), threaded.size());
  ASSERT_EQ(serial.size(), planned.size());
  EXPECT_EQ(tensor::max_abs_diff(serial, threaded), 0.0f);
  EXPECT_EQ(tensor::max_abs_diff(serial, planned), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndFusion, IntraopTrainInvariance,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(true, false)));

class IntraopPrecisionInvariance
    : public ::testing::TestWithParam<std::tuple<int, dnn::Precision>> {};

TEST_P(IntraopPrecisionInvariance, InferenceBitIdenticalToSerial) {
  const auto [threads, precision] = GetParam();
  dnn::Network net = core::build_network(core::cosmoflow_scaled(8), 11);
  net.prepare_inference_precision(precision);
  runtime::Rng rng(23);
  Tensor input(net.input_shape());
  tensor::fill_normal(input, rng, 0.0f, 1.0f);

  const auto run = [&](int nthreads, bool planned) {
    dnn::ExecContext ctx =
        net.make_context(dnn::ExecMode::kInference, precision);
    if (planned) {
      const dnn::CostModel cm(net);
      dnn::IntraopPlan plan;
      plan.threads_per_stream = static_cast<std::size_t>(nthreads);
      plan.grains = cm.grains_for(static_cast<std::size_t>(nthreads));
      ctx.apply_intraop(plan);
    }
    runtime::ThreadPool pool(static_cast<std::size_t>(nthreads));
    return ctx.forward(input, pool).to_vector();
  };

  const auto serial = run(1, false);
  EXPECT_EQ(tensor::max_abs_diff(serial, run(threads, false)), 0.0f);
  EXPECT_EQ(tensor::max_abs_diff(serial, run(threads, true)), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndPrecision, IntraopPrecisionInvariance,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::Values(dnn::Precision::kFp32,
                                         dnn::Precision::kBf16)));

// --- CostModel unit tests --------------------------------------------

TEST(IntraopCostModel, OneCoreBudgetIsSerial) {
  const dnn::Network net =
      core::build_network(core::cosmoflow_scaled(8), 5);
  const dnn::CostModel cm(net);
  const dnn::IntraopPlan plan = cm.choose(1);
  EXPECT_EQ(plan.streams, 1u);
  EXPECT_EQ(plan.threads_per_stream, 1u);
  ASSERT_EQ(plan.grains.size(), net.layer_count());
  for (const std::size_t g : plan.grains) EXPECT_EQ(g, 1u);
  EXPECT_EQ(plan.predicted_efficiency, 1.0);
}

TEST(IntraopCostModel, PredictedSecondsNonIncreasingInThreads) {
  const dnn::Network net =
      core::build_network(core::cosmoflow_scaled(8), 5);
  const dnn::CostModel cm(net);
  double prev = cm.predicted_seconds(1);
  EXPECT_GT(prev, 0.0);
  for (std::size_t t = 2; t <= 16; ++t) {
    const double now = cm.predicted_seconds(t);
    EXPECT_LE(now, prev) << "threads " << t;
    prev = now;
  }
}

TEST(IntraopCostModel, ChooseIsMonotoneInBudget) {
  const dnn::Network net =
      core::build_network(core::cosmoflow_scaled(8), 5);
  const dnn::CostModel cm(net);
  std::size_t prev_cores = 0;
  double prev_rate = 0.0;
  for (std::size_t budget = 1; budget <= 16; ++budget) {
    const dnn::IntraopPlan plan = cm.choose(budget);
    const std::size_t cores = plan.streams * plan.threads_per_stream;
    EXPECT_GE(plan.streams, 1u);
    EXPECT_GE(plan.threads_per_stream, 1u);
    EXPECT_LE(cores, budget) << "budget " << budget;
    EXPECT_GE(cores, prev_cores) << "budget " << budget;
    // Predicted throughput never drops when the budget grows.
    const double rate = static_cast<double>(plan.streams) /
                        cm.predicted_seconds(plan.threads_per_stream);
    EXPECT_GE(rate, prev_rate) << "budget " << budget;
    prev_cores = cores;
    prev_rate = rate;
  }
}

TEST(IntraopCostModel, ChooseRespectsStreamCap) {
  const dnn::Network net =
      core::build_network(core::cosmoflow_scaled(8), 5);
  const dnn::CostModel cm(net);
  for (std::size_t cap = 1; cap <= 4; ++cap) {
    const dnn::IntraopPlan plan = cm.choose(16, cap);
    EXPECT_LE(plan.streams, cap);
  }
}

TEST(IntraopCostModel, GrainsStayWithinJobGrid) {
  const dnn::Network net =
      core::build_network(core::cosmoflow_scaled(8), 5);
  const dnn::CostModel cm(net);
  ASSERT_EQ(cm.layer_costs().size(), net.layer_count());
  for (const std::size_t t : {std::size_t{1}, std::size_t{4}}) {
    const std::vector<std::size_t> grains = cm.grains_for(t);
    ASSERT_EQ(grains.size(), net.layer_count());
    for (std::size_t i = 0; i < grains.size(); ++i) {
      EXPECT_GE(grains[i], 1u);
      EXPECT_LE(grains[i], cm.layer_costs()[i].jobs);
      if (t <= 1) EXPECT_EQ(grains[i], 1u);
    }
  }
}

TEST(IntraopCostModel, ApplyIntraopRejectsMismatchedPlan) {
  dnn::Network net = core::build_network(core::cosmoflow_scaled(8), 5);
  dnn::ExecContext ctx = net.make_context(dnn::ExecMode::kInference);
  dnn::IntraopPlan plan;
  plan.grains.assign(net.layer_count() + 1, 1);
  EXPECT_THROW(ctx.apply_intraop(plan), std::invalid_argument);
}

TEST(IntraopCostModel, RequiresFinalizedNetwork) {
  const dnn::Network net;
  EXPECT_THROW(dnn::CostModel cm(net), std::logic_error);
}

// --- ThreadPool nested-dispatch guard --------------------------------

TEST(IntraopNestedGuard, RegionFlagTracksParallelBody) {
  EXPECT_FALSE(runtime::ThreadPool::in_parallel_region());
  runtime::ThreadPool pool(2);
  std::atomic<int> inside{0};
  pool.parallel_for(8, [&](std::size_t, std::size_t, std::size_t) {
    if (runtime::ThreadPool::in_parallel_region()) inside.fetch_add(1);
  });
  EXPECT_GT(inside.load(), 0);
  EXPECT_FALSE(runtime::ThreadPool::in_parallel_region());
}

#ifdef NDEBUG
// In debug builds the nested dispatch trips an assert by design; the
// release-mode contract is graceful serial fallback with full coverage
// of the inner range.
TEST(IntraopNestedGuard, NestedDispatchFallsBackToSerial) {
  runtime::ThreadPool pool(4);
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(
      kOuter,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t o = begin; o < end; ++o) {
          // Nested dispatch: must run inline on this worker, once per
          // inner item, instead of deadlocking on the shared pool.
          pool.parallel_for(
              kInner, [&, o](std::size_t b, std::size_t e, std::size_t) {
                for (std::size_t i = b; i < e; ++i) {
                  hits[o * kInner + i].fetch_add(1);
                }
              });
        }
      },
      /*grain_threshold=*/1);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "item " << i;
  }
}
#endif  // NDEBUG

}  // namespace
}  // namespace cf
