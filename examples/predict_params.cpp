// Inference: load a trained checkpoint, run the held-out test set, and
// report the per-parameter relative errors — the paper's Fig 6
// analysis.
//
//   ./examples/predict_params --data=/tmp/cosmoflow_data
//       --checkpoint=/tmp/cosmoflow.ckpt
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "core/checkpoint.hpp"
#include "core/metrics.hpp"
#include "core/topology.hpp"
#include "cosmo/simulation.hpp"
#include "data/dataset.hpp"
#include "dnn/network.hpp"
#include "examples/example_utils.hpp"

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
      "usage: predict_params --data=DIR --checkpoint=PATH",
      {"data", "checkpoint"});

  const std::string dir = flags.get_string("data", "/tmp/cosmoflow_data");
  const std::string ckpt =
      flags.get_string("checkpoint", "/tmp/cosmoflow.ckpt");

  const auto test_shards = find_shards(dir, "test");
  if (test_shards.empty()) {
    std::fprintf(stderr, "no test shards under %s\n", dir.c_str());
    return 1;
  }
  const data::CfrecordSource test(test_shards);
  const data::Sample first = test.make_reader()->get(0);
  const std::int64_t dhw = first.volume.shape()[1];

  const core::TopologyConfig topology = core::topology_for_input(dhw);
  dnn::Network net = core::build_network(topology, 0);
  core::load_checkpoint(ckpt, topology.name, net);
  std::printf("loaded %s (%lld parameters) from %s\n",
              topology.name.c_str(),
              static_cast<long long>(net.param_count()), ckpt.c_str());

  // Forward-only stream: no diff/scratch/grad arenas, activations
  // collapsed onto the ping-pong arena.
  dnn::ExecContext ctx = net.make_context(dnn::ExecMode::kInference);
  std::printf("inference context: %.2f MB peak tensors (%.2f MB total) "
              "vs %.2f MB planned for training\n",
              static_cast<double>(ctx.peak_tensor_bytes()) / 1e6,
              static_cast<double>(ctx.total_bytes()) / 1e6,
              static_cast<double>(net.peak_tensor_bytes()) / 1e6);

  runtime::ThreadPool pool;
  const auto reader = test.make_reader();
  std::vector<core::Prediction> predictions;
  predictions.reserve(test.size());
  std::printf("\n%28s | %28s\n", "predicted", "true");
  std::printf("%9s %9s %8s | %9s %9s %8s\n", "OmegaM", "sigma8", "ns",
              "OmegaM", "sigma8", "ns");
  for (std::size_t i = 0; i < test.size(); ++i) {
    const data::Sample sample = reader->get(i);
    const tensor::Tensor& out = ctx.forward(sample.volume, pool);
    const cosmo::CosmoParams pred =
        cosmo::denormalize_params({out[0], out[1], out[2]});
    const cosmo::CosmoParams truth = cosmo::denormalize_params(
        {sample.target[0], sample.target[1], sample.target[2]});
    core::Prediction p;
    p.predicted = {pred.omega_m, pred.sigma8, pred.ns};
    p.truth = {truth.omega_m, truth.sigma8, truth.ns};
    predictions.push_back(p);
    if (i < 12) {
      std::printf("%9.4f %9.4f %8.4f | %9.4f %9.4f %8.4f\n",
                  p.predicted[0], p.predicted[1], p.predicted[2],
                  p.truth[0], p.truth[1], p.truth[2]);
    }
  }

  const auto rel = core::mean_relative_error(predictions);
  const auto rms = core::rmse(predictions);
  const auto corr = core::correlation(predictions);
  std::printf("\n%zu test samples\n", predictions.size());
  std::printf("mean relative error:  OmegaM %.4f  sigma8 %.4f  ns %.4f\n",
              rel[0], rel[1], rel[2]);
  std::printf("rmse:                 OmegaM %.4f  sigma8 %.4f  ns %.4f\n",
              rms[0], rms[1], rms[2]);
  std::printf("correlation:          OmegaM %.4f  sigma8 %.4f  ns %.4f\n",
              corr[0], corr[1], corr[2]);
  std::printf("\npaper reference (full scale): 2048-node run "
              "(0.0022, 0.0094, 0.0096); 8192-node run "
              "(0.052, 0.014, 0.022)\n");
  return 0;
}
