// Serving: stand up the inference service (SERVING.md) over one
// shared network, submit a handful of concurrent requests,
// and read back predictions plus the server's own request counters and
// latency percentiles.
//
// Uses a freshly initialized network by default so it runs with zero
// setup; pass --checkpoint=PATH (from train_cosmoflow) to serve
// trained weights.
//
//   ./examples/serve_cosmoflow [--dhw=16] [--workers=2] [--requests=8]
//       [--precision=fp32|bf16] [--checkpoint=PATH]
#include <cstdio>
#include <future>
#include <memory>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/topology.hpp"
#include "cosmo/simulation.hpp"
#include "dnn/network.hpp"
#include "examples/example_utils.hpp"
#include "runtime/rng.hpp"
#include "serve/server.hpp"
#include "tensor/tensor_ops.hpp"

int main(int argc, char** argv) {
  using namespace cf;
  const examples::Flags flags(
      argc, argv,
      "usage: serve_cosmoflow [--dhw=16] [--workers=2] [--requests=8] "
      "[--precision=fp32|bf16] [--checkpoint=PATH]");

  const std::int64_t dhw = flags.get_int("dhw", 16);
  const std::string ckpt = flags.get_string("checkpoint", "");
  const std::size_t requests =
      static_cast<std::size_t>(flags.get_int("requests", 8));

  // The model is built (or loaded) once and then shared read-only by
  // every worker stream — a const handle is all the server needs.
  // bf16 serving packs the bf16 side arena here, after the checkpoint
  // load, so the packed weights reflect the weights actually served
  // (DESIGN.md §2.5).
  const dnn::Precision precision =
      dnn::precision_from_string(flags.get_string("precision", "fp32"));
  const core::TopologyConfig topology = core::topology_for_input(dhw);
  auto net = std::make_shared<dnn::Network>(core::build_network(topology, 7));
  if (!ckpt.empty()) {
    core::load_checkpoint(ckpt, topology.name, *net);
    std::printf("loaded %s from %s\n", topology.name.c_str(), ckpt.c_str());
  }
  if (precision != dnn::Precision::kFp32) {
    net->prepare_inference_precision(precision);
  }
  const std::shared_ptr<const dnn::Network> network = net;

  serve::ServerConfig config;
  config.workers = static_cast<std::size_t>(flags.get_int("workers", 2));
  config.precision = precision;
  serve::Server server(network, config);
  std::printf("serving %s: %zu workers, queue %zu, %s inference\n\n",
              topology.name.c_str(), config.workers, config.queue_capacity,
              dnn::to_string(config.precision).data());

  // Fire all requests before reading any result, so the workers run
  // them concurrently.
  std::vector<std::future<serve::InferenceResult>> futures;
  runtime::Rng rng(101);
  for (std::size_t i = 0; i < requests; ++i) {
    tensor::Tensor input(network->input_shape());
    tensor::fill_normal(input, rng, 0.0f, 1.0f);
    std::future<serve::InferenceResult> future;
    const serve::SubmitStatus status =
        server.submit(std::move(input), &future);
    if (status != serve::SubmitStatus::kAccepted) {
      std::printf("request %zu shed: %s\n", i,
                  std::string(serve::to_string(status)).c_str());
      continue;
    }
    futures.push_back(std::move(future));
  }

  std::printf("%4s | %7s %7s %7s | %6s | %12s\n", "req", "OmegaM",
              "sigma8", "ns", "worker", "latency");
  for (auto& future : futures) {
    const serve::InferenceResult r = future.get();
    const cosmo::CosmoParams params = cosmo::denormalize_params(
        {r.output[0], r.output[1], r.output[2]});
    std::printf("%4llu | %7.4f %7.4f %7.4f | %6zu | %9.2f ms\n",
                static_cast<unsigned long long>(r.request_id),
                params.omega_m, params.sigma8, params.ns, r.worker,
                r.total_seconds * 1e3);
  }
  server.shutdown();

  // What the server counted while it ran (OBSERVABILITY.md).
  const obs::HistogramSnapshot latency = server.latency();
  std::printf("\naccepted %lld, rejected %lld, completed %lld, latency p50 "
              "%.2f ms p99 %.2f ms\n",
              static_cast<long long>(server.accepted()),
              static_cast<long long>(server.rejected()),
              static_cast<long long>(server.completed()),
              latency.percentile(0.5) * 1e3,
              latency.percentile(0.99) * 1e3);
  return 0;
}
