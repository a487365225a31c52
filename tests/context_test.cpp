// The model/stream split (DESIGN.md §2.3): a finalized Network is
// immutable, every mutable buffer lives in an ExecContext. The
// properties pinned here are the contract of the split — training
// through a context is bitwise stable across fusion×memplan modes,
// inference contexts allocate no backward state at all, and N
// concurrent inference streams over one shared Network reproduce the
// serial results bit for bit (the TSan gate runs this suite).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset_gen.hpp"
#include "core/topology.hpp"
#include "core/trainer.hpp"
#include "dnn/network.hpp"
#include "obs/telemetry.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/tensor_ops.hpp"

namespace cf {
namespace {

using tensor::Tensor;

// --- The inference-lean guarantee: no diff, no scratch, no grads. ---

TEST(Context, InferenceContextAllocatesForwardStateOnly) {
  dnn::Network net = core::build_network(core::cosmoflow_scaled(32), 5);
  dnn::ExecContext ctx = net.make_context(dnn::ExecMode::kInference);

  EXPECT_EQ(ctx.mode(), dnn::ExecMode::kInference);
  EXPECT_EQ(ctx.diff_arena_bytes(), 0u);
  EXPECT_EQ(ctx.scratch_bytes(), 0u);
  EXPECT_EQ(ctx.grad_bytes(), 0u);
  EXPECT_TRUE(ctx.grad_arena().empty());
  // Ping-pong activations: far below the per-layer training sum.
  EXPECT_GT(ctx.activation_bytes(), 0u);
  EXPECT_LT(ctx.activation_bytes(), net.activation_bytes());
  EXPECT_LT(ctx.peak_tensor_bytes(), net.peak_tensor_bytes());
  // Everything it holds: the input staging copy, the activations and
  // the staging workspace — nothing backward-side.
  EXPECT_EQ(ctx.total_bytes(),
            static_cast<std::size_t>(net.input_shape().numel()) *
                    sizeof(float) +
                ctx.activation_bytes() + ctx.workspace_bytes());

  // Backward-side entry points are hard errors, not silent no-ops.
  runtime::ThreadPool pool(1);
  Tensor input(net.input_shape());
  runtime::Rng rng(3);
  tensor::fill_normal(input, rng, 0.0f, 1.0f);
  ctx.forward(input, pool);
  Tensor dloss(net.output_shape());
  dloss.fill(1.0f);
  EXPECT_THROW(ctx.backward(dloss, pool), std::logic_error);
  EXPECT_THROW(ctx.params(), std::logic_error);
}

TEST(Context, TrainingContextMatchesPlannedFootprint) {
  for (const bool plan : {true, false}) {
    dnn::Network net =
        core::build_network(core::cosmoflow_scaled(16), 5,
                            /*fuse_eltwise=*/true, /*memplan=*/plan);
    dnn::ExecContext ctx = net.make_context(dnn::ExecMode::kTraining);
    // What the context actually allocated is exactly what the network
    // planned at finalize (nothing was allocated at finalize).
    EXPECT_EQ(ctx.activation_bytes(), net.activation_bytes());
    EXPECT_EQ(ctx.diff_arena_bytes(), net.diff_arena_bytes());
    EXPECT_EQ(ctx.scratch_bytes(), net.scratch_bytes());
    EXPECT_EQ(ctx.peak_tensor_bytes(), net.peak_tensor_bytes());
    EXPECT_EQ(ctx.grad_bytes(), net.param_bytes());
    EXPECT_EQ(ctx.mode(), dnn::ExecMode::kTraining);
  }
}

// --- Inference placement is invisible in the bits: the collapsed
// ping-pong activations produce the training context's outputs. ---

TEST(Context, InferenceForwardBitwiseMatchesTraining) {
  dnn::Network net = core::build_network(core::cosmoflow_scaled(16), 7);
  dnn::ExecContext train_ctx = net.make_context(dnn::ExecMode::kTraining);
  dnn::ExecContext infer_ctx =
      net.make_context(dnn::ExecMode::kInference);
  runtime::ThreadPool pool(3);
  runtime::Rng rng(11);
  for (int rep = 0; rep < 3; ++rep) {
    Tensor input(net.input_shape());
    tensor::fill_normal(input, rng, 0.0f, 1.0f);
    const std::vector<float> a =
        train_ctx.forward(input, pool).to_vector();
    const std::vector<float> b =
        infer_ctx.forward(input, pool).to_vector();
    EXPECT_EQ(tensor::max_abs_diff(a, b), 0.0f) << "rep " << rep;
  }
}

// --- K concurrent streams over one shared Network == serial. The
// TSan gate (scripts/check_sanitizers.sh tsan) runs this test: any
// hidden mutable state left in the Network shows up as a race on the
// shared weight arena. ---

TEST(Context, ConcurrentInferenceStreamsMatchSerial) {
  constexpr int kStreams = 4;
  constexpr int kRepsPerStream = 2;
  dnn::Network net = core::build_network(core::cosmoflow_scaled(16), 13);

  // Distinct input per (stream, rep) so streams genuinely diverge.
  std::vector<std::vector<Tensor>> inputs(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    runtime::Rng rng(29, static_cast<std::uint64_t>(s));
    for (int r = 0; r < kRepsPerStream; ++r) {
      Tensor input(net.input_shape());
      tensor::fill_normal(input, rng, 0.0f, 1.0f);
      inputs[s].push_back(std::move(input));
    }
  }

  // Serial reference: one stream processes everything.
  std::vector<std::vector<std::vector<float>>> expected(kStreams);
  {
    dnn::ExecContext ctx = net.make_context(dnn::ExecMode::kInference);
    runtime::ThreadPool pool(1);
    for (int s = 0; s < kStreams; ++s) {
      for (const Tensor& input : inputs[s]) {
        expected[s].push_back(ctx.forward(input, pool).to_vector());
      }
    }
  }

  // Concurrent: one thread per stream, each with its own context and
  // its own worker pool, all sharing the Network's weights. Each
  // stream's profile rows count its own forwards only.
  std::vector<std::vector<std::vector<float>>> actual(kStreams);
  std::vector<std::vector<std::size_t>> fwd_counts(kStreams);
  {
    std::vector<std::thread> threads;
    threads.reserve(kStreams);
    for (int s = 0; s < kStreams; ++s) {
      threads.emplace_back([&net, &inputs, &actual, &fwd_counts, s] {
        dnn::ExecContext ctx =
            net.make_context(dnn::ExecMode::kInference);
        runtime::ThreadPool pool(2);
        for (const Tensor& input : inputs[s]) {
          actual[s].push_back(ctx.forward(input, pool).to_vector());
        }
        for (const dnn::LayerProfile& row : ctx.profiles()) {
          fwd_counts[s].push_back(row.fwd.count());
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  for (int s = 0; s < kStreams; ++s) {
    ASSERT_EQ(fwd_counts[s].size(), net.layer_count()) << "stream " << s;
    for (const std::size_t count : fwd_counts[s]) {
      EXPECT_EQ(count, static_cast<std::size_t>(kRepsPerStream))
          << "stream " << s;
    }
    ASSERT_EQ(actual[s].size(), expected[s].size()) << "stream " << s;
    for (std::size_t r = 0; r < expected[s].size(); ++r) {
      EXPECT_EQ(tensor::max_abs_diff(actual[s][r], expected[s][r]), 0.0f)
          << "stream " << s << " rep " << r;
    }
  }
}

// --- One timing site: the schedule loop's two clock readings around a
// pass feed both the node's profile row and the pass's trace span, so
// the two agree to the nanosecond. ---

TEST(Context, ProfilesAndSpansAreOneMeasurement) {
  if (!obs::kTelemetryEnabled) {
    GTEST_SKIP() << "spans compiled out (COSMOFLOW_TELEMETRY=OFF)";
  }
  dnn::Network net = core::build_network(core::cosmoflow_scaled(8), 3);
  dnn::ExecContext ctx = net.make_context(dnn::ExecMode::kTraining);
  runtime::ThreadPool pool(2);
  Tensor input(net.input_shape());
  runtime::Rng rng(5);
  tensor::fill_normal(input, rng, 0.0f, 1.0f);
  Tensor dloss(net.output_shape());
  dloss.fill(1.0f);

  obs::Tracer& tracer = obs::Tracer::global();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(true);
  tracer.clear();
  ctx.forward(input, pool);
  ctx.zero_grads();
  ctx.backward(dloss, pool);
  const std::vector<obs::TraceEvent> events = tracer.snapshot();
  tracer.set_enabled(was_enabled);

  std::map<std::string, std::vector<std::uint64_t>> spans;
  for (const obs::TraceEvent& event : events) {
    spans[event.name].push_back(event.dur_ns);
  }
  std::size_t passes = 0;
  const auto expect_one_measurement = [&](const std::string& label,
                                          const runtime::TimeStats& stats) {
    const std::vector<std::uint64_t>& durations = spans[label];
    ASSERT_EQ(durations.size(), stats.count()) << label;
    if (durations.empty()) return;
    EXPECT_EQ(1e-9 * static_cast<double>(durations[0]), stats.total())
        << label;
    ++passes;
  };
  for (const dnn::LayerProfile& row : ctx.profiles()) {
    EXPECT_EQ(row.fwd.count(), 1u) << row.name;
    expect_one_measurement(row.fwd_label, row.fwd);
    expect_one_measurement(row.bww_label, row.bwd_weights);
    expect_one_measurement(row.bwd_data_label, row.bwd_data);
  }
  // Every forward, every parameterized node's Bww, and every Bwd but
  // the first node's (it reads the graph input).
  std::size_t parameterized = 0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (net.segment_size(i) > 0) ++parameterized;
  }
  EXPECT_EQ(passes, 2 * net.layer_count() - 1 + parameterized);
}

// --- The split does not move a single training bit: whole
// trajectories (losses + final params) are identical across every
// fusion×memplan combination. ---

TEST(ContextE2E, TrainingTrajectoryBitwiseAcrossModes) {
  runtime::ThreadPool gen_pool;
  core::DatasetGenConfig gen;
  gen.simulations = 6;
  gen.sim.grid = {16, 64.0};
  gen.sim.voxels = 16;
  gen.seed = 53;
  core::GeneratedDataset dataset = core::generate_dataset(gen, gen_pool);
  const data::InMemorySource train(std::move(dataset.train));
  const data::InMemorySource val(std::move(dataset.val));

  std::vector<float> reference_params;
  std::vector<double> reference_losses;
  for (const bool fuse : {true, false}) {
    for (const bool plan : {true, false}) {
      core::TrainerConfig config;
      config.nranks = 2;
      config.epochs = 2;
      config.fuse_eltwise = fuse;
      config.memplan = plan;
      core::Trainer trainer(core::cosmoflow_scaled(8), train, val,
                            config);
      const auto stats = trainer.run();
      std::vector<float> params(
          static_cast<std::size_t>(trainer.network(0).param_count()));
      trainer.network(0).copy_params_to(params);
      std::vector<double> losses;
      for (const auto& epoch : stats) {
        losses.push_back(epoch.train_loss);
        losses.push_back(epoch.val_loss);
      }
      if (reference_params.empty()) {
        reference_params = std::move(params);
        reference_losses = std::move(losses);
        continue;
      }
      EXPECT_EQ(tensor::max_abs_diff(reference_params, params), 0.0f)
          << "fuse " << fuse << " plan " << plan;
      EXPECT_EQ(reference_losses, losses)
          << "fuse " << fuse << " plan " << plan;
    }
  }
}

}  // namespace
}  // namespace cf
