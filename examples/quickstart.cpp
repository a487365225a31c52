// Quickstart: the whole CosmoFlow loop in one minute on one core.
//
//   1. simulate a handful of universes with different (OmegaM, sigma8,
//      ns) — the MUSIC + pycola substitute;
//   2. train the (scaled-down) CosmoFlow network with synchronous
//      data-parallel Adam + LARC across 2 thread-ranks;
//   3. predict the parameters of held-out universes.
//
//   ./examples/quickstart [--sims=12] [--epochs=6] [--ranks=2]
#include <cstdio>

#include "core/dataset_gen.hpp"
#include "core/metrics.hpp"
#include "core/topology.hpp"
#include "core/trainer.hpp"
#include "examples/example_utils.hpp"

int main(int argc, char** argv) {
  using namespace cf;
  const examples::Flags flags(
      argc, argv,
      "usage: quickstart [--sims=N] [--epochs=N] [--ranks=N]",
      {"sims", "ranks", "epochs"});

  // 1. Simulate.
  core::DatasetGenConfig gen;
  gen.simulations = static_cast<std::size_t>(flags.get_int("sims", 12));
  gen.sim.grid = {64, 128.0};  // 64^3 particles in a 128 Mpc/h box
  gen.sim.voxels = 32;         // mean count 8 (the paper's 512^3->256^3
                               // density), split to 8 x 16^3 samples
  gen.seed = 42;
  gen.val_fraction = 0.2;
  gen.test_fraction = 0.2;

  runtime::ThreadPool pool;
  std::printf("simulating %zu universes (%lld^3 particles each)...\n",
              gen.simulations, static_cast<long long>(gen.sim.grid.n));
  core::GeneratedDataset dataset = core::generate_dataset(gen, pool);
  std::printf("  train %zu / val %zu / test %zu sub-volumes\n",
              dataset.train.size(), dataset.val.size(),
              dataset.test.size());

  // 2. Train.
  data::InMemorySource train(std::move(dataset.train));
  data::InMemorySource val(std::move(dataset.val));

  core::TrainerConfig config;
  config.nranks = static_cast<int>(flags.get_int("ranks", 2));
  config.epochs = static_cast<int>(flags.get_int("epochs", 6));
  config.base_lr = 4e-3;

  core::Trainer trainer(core::cosmoflow_scaled(16), train, val, config);
  std::printf("training %s on %d thread-ranks, %d epochs...\n",
              trainer.topology().name.c_str(), config.nranks,
              config.epochs);
  for (const core::EpochStats& epoch : trainer.run()) {
    std::printf("  epoch %2d  train loss %.5f  val loss %.5f  (%.2fs)\n",
                epoch.epoch, epoch.train_loss, epoch.val_loss,
                epoch.epoch_seconds);
  }

  // 3. Predict on held-out universes.
  data::InMemorySource test(std::move(dataset.test));
  const auto predictions = trainer.evaluate(test);
  const auto rel = core::mean_relative_error(predictions);
  std::printf("\nheld-out relative errors:  OmegaM %.4f   sigma8 %.4f   "
              "ns %.4f\n",
              rel[0], rel[1], rel[2]);
  std::printf("(paper, full-scale 2048-node run: 0.0022 / 0.0094 / "
              "0.0096)\n");
  std::printf("\nsample predictions (predicted vs true):\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(4, predictions.size());
       ++i) {
    const auto& p = predictions[i];
    std::printf("  OmegaM %.3f/%.3f  sigma8 %.3f/%.3f  ns %.3f/%.3f\n",
                p.predicted[0], p.truth[0], p.predicted[1], p.truth[1],
                p.predicted[2], p.truth[2]);
  }
  return 0;
}
