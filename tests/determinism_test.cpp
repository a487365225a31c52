// Cross-cutting determinism properties.
//
// Synchronous data-parallel training is only correct if every replica
// applies bit-identical updates, which requires every kernel in the
// chain — convolution, pooling, reduction, optimizer — to be
// deterministic regardless of the thread count it runs with. These
// tests pin that invariant at each level of the stack.
#include <gtest/gtest.h>

#include "core/dataset_gen.hpp"
#include "core/topology.hpp"
#include "core/trainer.hpp"
#include "dnn/conv3d.hpp"
#include "dnn/standalone_exec.hpp"
#include "runtime/rng.hpp"
#include "tensor/layout.hpp"
#include "tensor/tensor_ops.hpp"

namespace cf {
namespace {

using tensor::Shape;
using tensor::Tensor;

class ConvThreadInvariance : public ::testing::TestWithParam<int> {};

TEST_P(ConvThreadInvariance, ForwardAndBackwardBitIdentical) {
  const int threads = GetParam();
  const dnn::Conv3dConfig config{16, 32, 3, 1, dnn::Padding::kSame};

  const auto run = [&](int nthreads) {
    dnn::Conv3d conv("conv", config);
    conv.plan(Shape{1, 6, 6, 6, 16});
    runtime::Rng rng(3);
    conv.init_he(rng);
    dnn::StandaloneExec exec(conv);
    runtime::ThreadPool pool(static_cast<std::size_t>(nthreads));
    Tensor src(conv.input_shape());
    tensor::fill_normal(src, rng, 0.0f, 1.0f);
    Tensor dst(conv.output_shape());
    exec.forward(src, dst, pool);
    Tensor ddst(conv.output_shape());
    tensor::fill_normal(ddst, rng, 0.0f, 1.0f);
    Tensor dsrc(conv.input_shape());
    exec.backward(src, dst, ddst, &dsrc, pool);
    std::vector<float> all = dst.to_vector();
    const auto dw = conv.to_plain_weights(exec.state.grads[0]).to_vector();
    all.insert(all.end(), dw.begin(), dw.end());
    const auto ds = dsrc.to_vector();
    all.insert(all.end(), ds.begin(), ds.end());
    return all;
  };

  const auto serial = run(1);
  const auto threaded = run(threads);
  ASSERT_EQ(serial.size(), threaded.size());
  EXPECT_EQ(tensor::max_abs_diff(serial, threaded), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Threads, ConvThreadInvariance,
                         ::testing::Values(2, 3, 5, 8));

TEST(NetworkThreadInvariance, FullForwardBitIdentical) {
  const auto run = [&](int nthreads) {
    dnn::Network net = core::build_network(core::cosmoflow_scaled(16), 9);
    dnn::ExecContext ctx = net.make_context(dnn::ExecMode::kTraining);
    runtime::ThreadPool pool(static_cast<std::size_t>(nthreads));
    Tensor input(net.input_shape());
    runtime::Rng rng(10);
    tensor::fill_normal(input, rng, 0.0f, 1.0f);
    return ctx.forward(input, pool).to_vector();
  };
  EXPECT_EQ(tensor::max_abs_diff(run(1), run(4)), 0.0f);
}

TEST(TrainerDeterminism, IoThreadCountDoesNotChangeTraining) {
  // Prefetch parallelism must not change *what* is trained on, only
  // when it arrives.
  const auto run = [&](std::size_t io_threads) {
    runtime::ThreadPool pool;
    core::DatasetGenConfig gen;
    gen.simulations = 6;
    gen.sim.grid = {16, 64.0};
    gen.sim.voxels = 16;
    gen.seed = 20;
    core::GeneratedDataset dataset = core::generate_dataset(gen, pool);
    data::InMemorySource train(std::move(dataset.train));
    data::InMemorySource val(std::move(dataset.val));
    core::TrainerConfig config;
    config.nranks = 2;
    config.epochs = 2;
    config.pipeline.io_threads = io_threads;
    core::Trainer trainer(core::cosmoflow_scaled(8), train, val, config);
    return trainer.run().back().train_loss;
  };
  EXPECT_EQ(run(1), run(3));
}

TEST(TrainerDeterminism, RankCountChangesTrajectoryButNotValidity) {
  // Different rank counts legitimately produce different trajectories
  // (different global batch); both must stay finite and reproducible.
  const auto run = [&](int ranks) {
    runtime::ThreadPool pool;
    core::DatasetGenConfig gen;
    gen.simulations = 6;
    gen.sim.grid = {16, 64.0};
    gen.sim.voxels = 16;
    gen.seed = 21;
    core::GeneratedDataset dataset = core::generate_dataset(gen, pool);
    data::InMemorySource train(std::move(dataset.train));
    data::InMemorySource val(std::move(dataset.val));
    core::TrainerConfig config;
    config.nranks = ranks;
    config.epochs = 2;
    core::Trainer trainer(core::cosmoflow_scaled(8), train, val, config);
    return trainer.run().back().train_loss;
  };
  const double two_a = run(2);
  const double two_b = run(2);
  const double four = run(4);
  EXPECT_EQ(two_a, two_b);
  EXPECT_TRUE(std::isfinite(four));
  EXPECT_NE(two_a, four);
}

TEST(DatasetDeterminism, GenerationIsThreadCountInvariant) {
  const auto run = [&](std::size_t threads) {
    runtime::ThreadPool pool(threads);
    core::DatasetGenConfig gen;
    gen.simulations = 3;
    gen.sim.grid = {16, 64.0};
    gen.sim.voxels = 16;
    gen.seed = 22;
    return core::generate_dataset(gen, pool);
  };
  const auto a = run(1);
  const auto b = run(4);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    ASSERT_EQ(tensor::max_abs_diff(a.train[i].volume.values(),
                                   b.train[i].volume.values()),
              0.0f)
        << "sample " << i;
  }
}

}  // namespace
}  // namespace cf
