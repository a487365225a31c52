// Full training driver: synchronous data-parallel Adam + LARC training
// from cfrecord shards, with checkpointing — the §III stack end to end.
//
//   ./examples/generate_dataset --out=/tmp/cosmoflow_data
//   ./examples/train_cosmoflow --data=/tmp/cosmoflow_data
//       [--ranks=4] [--epochs=8] [--base-lr=2e-3] [--min-lr=1e-4]
//       [--checkpoint=/tmp/cosmoflow.ckpt] [--optimizer=adamlarc|adam|sgd]
//       [--trace=trace.json] [--step-log=steps.jsonl]
//       [--no-overlap] [--no-memplan] [--bucket-kb=4096]
//
// --trace writes a chrome://tracing/Perfetto-loadable span trace,
// --step-log a JSONL record per training step (see OBSERVABILITY.md).
// Gradient aggregation is overlapped with backprop by default
// (bucketed async allreduce, bitwise identical to the synchronous
// path); --no-overlap is the escape hatch and --bucket-kb tunes the
// coalescing bucket size.
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "core/topology.hpp"
#include "core/trainer.hpp"
#include "examples/example_utils.hpp"
#include "obs/telemetry.hpp"

namespace {

std::vector<std::string> find_shards(const std::string& dir,
                                     const std::string& prefix) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 &&
        name.find(".cfrecord") != std::string::npos) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cf;
  const examples::Flags flags(
      argc, argv,
      "usage: train_cosmoflow --data=DIR [--preset=NAME] [--ranks=N] "
      "[--epochs=N] [--base-lr=F] [--min-lr=F] [--checkpoint=PATH] "
      "[--optimizer=adamlarc|adam|sgd] [--trace=PATH] "
      "[--step-log=PATH] [--no-overlap] [--no-memplan] [--bucket-kb=N]",
      {"data", "preset", "ranks", "epochs", "base-lr", "min-lr",
       "checkpoint", "optimizer", "trace", "step-log", "no-overlap",
       "no-memplan", "bucket-kb"});

  const std::string dir = flags.get_string("data", "/tmp/cosmoflow_data");
  const auto train_shards = find_shards(dir, "train");
  const auto val_shards = find_shards(dir, "val");
  if (train_shards.empty() || val_shards.empty()) {
    std::fprintf(stderr,
                 "no train/val shards under %s — run generate_dataset "
                 "first\n",
                 dir.c_str());
    return 1;
  }

  const data::CfrecordSource train(train_shards);
  const data::CfrecordSource val(val_shards);
  std::printf("dataset: %zu training / %zu validation samples in %zu + "
              "%zu shards\n",
              train.size(), val.size(), train_shards.size(),
              val_shards.size());

  // Infer the input size from the first sample.
  const data::Sample first = train.make_reader()->get(0);
  const std::int64_t dhw = first.volume.shape()[1];

  core::TrainerConfig config;
  config.nranks = static_cast<int>(flags.get_int("ranks", 4));
  config.epochs = static_cast<int>(flags.get_int("epochs", 8));
  config.base_lr = flags.get_double("base-lr", 2e-3);
  config.min_lr = flags.get_double("min-lr", 1e-4);
  config.pipeline.io_threads = 2;
  config.overlap_comm = flags.get_int("no-overlap", 0) == 0;
  // Liveness-planned diff/scratch arenas; --no-memplan is the ablation
  // (bitwise identical, per-layer buffers).
  config.memplan = flags.get_int("no-memplan", 0) == 0;
  config.bucket_bytes =
      static_cast<std::size_t>(flags.get_int("bucket-kb", 4096)) * 1024;
  config.step_log_path = flags.get_string("step-log", "");
  const std::string trace_path = flags.get_string("trace", "");
  const std::string optimizer = flags.get_string("optimizer", "adamlarc");
  if (optimizer == "adam") {
    config.optimizer = core::OptimizerKind::kAdam;
  } else if (optimizer == "sgd") {
    config.optimizer = core::OptimizerKind::kSgdMomentum;
  }

  // --preset picks a stock topology by name (cosmoflow-128 for the
  // paper's canonical network); the default infers one from the data's
  // input size. Either way the network must match the shards.
  const std::string preset = flags.get_string("preset", "");
  core::TopologyConfig topology;
  try {
    topology = preset.empty() ? core::topology_for_input(dhw)
                              : core::preset_topology(preset);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  if (topology.input_dhw != dhw) {
    std::fprintf(stderr,
                 "preset %s expects %lld^3 input but the dataset holds "
                 "%lld^3 volumes\n",
                 topology.name.c_str(),
                 static_cast<long long>(topology.input_dhw),
                 static_cast<long long>(dhw));
    return 1;
  }
  {
    dnn::Network probe = core::build_network(topology, 0);
    std::printf("training %s (%lld params, %.2f Gflop/sample) on %d "
                "thread-ranks (global batch %d), optimizer %s\n",
                topology.name.c_str(),
                static_cast<long long>(probe.param_count()),
                static_cast<double>(probe.flops().total()) / 1e9,
                config.nranks, config.nranks, optimizer.c_str());
  }
  core::Trainer trainer(topology, train, val, config);

#if COSMOFLOW_TELEMETRY_ENABLED
  obs::Tracer::global().clear();
#endif
  std::vector<core::EpochStats> stats;
  try {
    stats = trainer.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "training failed: %s\n", e.what());
    return 1;
  }
  for (const core::EpochStats& epoch : stats) {
    std::printf("epoch %3d  train %.5f  val %.5f  %.2fs  "
                "(step mean %.1f ms)\n",
                epoch.epoch, epoch.train_loss, epoch.val_loss,
                epoch.epoch_seconds, epoch.step_time.mean() * 1e3);
  }

  const auto breakdown = trainer.breakdown();
  std::printf("\nstage breakdown (rank 0, %.1fs total):\n", breakdown.total);
  for (const auto& [category, seconds] : breakdown.seconds) {
    std::printf("  %-11s %8.2fs\n", category.c_str(), seconds);
  }
  if (config.overlap_comm) {
    std::printf("comm overlap: %.0f%% of allreduce time hidden behind "
                "backprop\n",
                breakdown.overlap_fraction * 100.0);
  }

  if (!trace_path.empty()) {
#if COSMOFLOW_TELEMETRY_ENABLED
    if (obs::Tracer::global().write_chrome_trace(trace_path)) {
      std::printf("\ntrace written to %s (open in chrome://tracing or "
                  "https://ui.perfetto.dev)\n",
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   trace_path.c_str());
      return 1;
    }
#else
    std::printf("\n--trace ignored: built with COSMOFLOW_TELEMETRY=OFF\n");
#endif
  }
  if (!config.step_log_path.empty()) {
    std::printf("step log written to %s\n", config.step_log_path.c_str());
  }

  const std::string ckpt =
      flags.get_string("checkpoint", "/tmp/cosmoflow.ckpt");
  core::save_checkpoint(ckpt, trainer.topology().name, trainer.network(0));
  std::printf("\ncheckpoint written to %s\n", ckpt.c_str());
  std::printf("next: ./examples/predict_params --data=%s "
              "--checkpoint=%s\n",
              dir.c_str(), ckpt.c_str());
  return 0;
}
