// Table I reproduction: per-convolution-layer time and flop rate for
// the forward (Fwd), backward-weights (Bww) and backward-data (Bwd)
// passes of the canonical 128^3 network, batch size 1.
//
// The paper measures a 68-core KNL node (AVX-512, 535 Gflop/s whole-
// net); this runs on the default thread pool (COSMOFLOW_NUM_THREADS,
// else every hardware thread), so absolute times are larger — the
// comparison targets are the *ratios*: conv2 dominates, the last four
// convs are cheap, early layers run much faster than the tail
// (channel-starved) layers.
//
//   ./bench_table1_conv_layers [--iters=N]   (N >= 1, default 3)
//
// Per-pass times are the context's profile rows (ExecContext::
// profiles()), the same measurement the `{layer}/fwd`, `/bww` and
// `/bwd_data` trace spans carry. conv1 reads the graph input, so it has
// no data gradient: its Bwd column reads 0 (the paper's "–").
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/topology.hpp"
#include "runtime/timer.hpp"
#include "tensor/tensor_ops.hpp"

int main(int argc, char** argv) {
  using namespace cf;
  int iters = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--iters=", 8) == 0) {
      iters = std::atoi(argv[i] + 8);
    }
  }
  if (iters < 1) {
    std::fprintf(stderr,
                 "usage: bench_table1_conv_layers [--iters=N] (N >= 1)\n");
    return 2;
  }

  runtime::ThreadPool pool;
  std::printf("=== bench_table1_conv_layers: Table I, canonical 128^3 "
              "network ===\n");
  std::printf("(%d timed iterations after one warm-up; %zu threads)\n\n",
              iters, pool.num_threads());

  dnn::Network net = core::build_network(core::cosmoflow_128(), 7);
  dnn::ExecContext ctx = net.make_context(dnn::ExecMode::kTraining);
  tensor::Tensor input(net.input_shape());
  runtime::Rng rng(7);
  tensor::fill_normal(input, rng, 0.0f, 1.0f);
  tensor::Tensor dloss(net.output_shape());
  dloss.fill(1.0f);

  // Warm-up (also pages in all buffers).
  ctx.forward(input, pool);
  ctx.zero_grads();
  ctx.backward(dloss, pool);
  ctx.reset_profiles();

  const runtime::Stopwatch watch;
  for (int it = 0; it < iters; ++it) {
    ctx.forward(input, pool);
    ctx.zero_grads();
    ctx.backward(dloss, pool);
  }
  const double step = watch.elapsed_seconds() / iters;

  std::printf("%-8s | %8s %8s %8s | %8s %8s %8s\n", "Layer", "Fwd ms",
              "Bww ms", "Bwd ms", "Fwd GF/s", "Bww GF/s", "Bwd GF/s");
  double conv_total_ms = 0.0;
  for (const dnn::LayerProfile& profile : ctx.profiles()) {
    if (profile.kind != "conv") continue;
    const double fwd_ms = profile.fwd.mean() * 1e3;
    const double bww_ms = profile.bwd_weights.mean() * 1e3;
    const double bwd_ms = profile.bwd_data.mean() * 1e3;
    const auto rate = [](double flops, double ms) {
      return ms > 0.0 ? flops / (ms * 1e-3) / 1e9 : 0.0;
    };
    std::printf("%-8s | %8.2f %8.2f %8.2f | %8.1f %8.1f %8.1f\n",
                profile.name.c_str(), fwd_ms, bww_ms, bwd_ms,
                rate(static_cast<double>(profile.flops.fwd), fwd_ms),
                rate(static_cast<double>(profile.flops.bwd_weights),
                     bww_ms),
                rate(static_cast<double>(profile.flops.bwd_data), bwd_ms));
    conv_total_ms += fwd_ms + bww_ms + bwd_ms;
  }
  const double gflop =
      static_cast<double>(net.flops(true).total()) / 1e9;
  std::printf("\nconv total: %.1f ms; full fwd+bwd step: %.1f ms "
              "(%.1f Gflop -> %.1f Gflop/s sustained, %zu threads)\n",
              conv_total_ms, step * 1e3, gflop, gflop / step,
              pool.num_threads());
  std::printf("paper (68-core KNL): conv total 30.3 ms, step 145 ms, "
              "535 Gflop/s/node\n");
  std::printf("shape targets: conv2 dominates every pass; conv4-7 "
              "contribute <5%% of conv time; Table I's largest/smallest "
              "per-layer ratio is O(100x).\n");
  return 0;
}
