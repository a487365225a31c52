// Dataset generation: the paper's §IV-C data path end-to-end.
//
// Runs a suite of LPT dark-matter simulations over sampled
// (OmegaM, sigma8, ns), histograms each box to voxels, splits it into
// 8 sub-volumes, and writes train/val/test cfrecord shards. Also
// renders one sub-volume as ASCII (the Fig 1 stand-in) and prints the
// measured power spectrum of the first box as a sanity check.
//
//   ./examples/generate_dataset --out=/tmp/cosmoflow_data
//       [--sims=24] [--grid=32] [--voxels=32] [--box=256]
//       [--samples-per-shard=16] [--seed=1] [--2lpt]
#include <cstdio>

#include "core/dataset_gen.hpp"
#include "cosmo/gaussian_field.hpp"
#include "examples/example_utils.hpp"

int main(int argc, char** argv) {
  using namespace cf;
  const examples::Flags flags(
      argc, argv,
      "usage: generate_dataset --out=DIR [--sims=N] [--grid=N] "
      "[--voxels=N] [--box=MPC] [--samples-per-shard=N] [--seed=N] "
      "[--2lpt]",
      {"out", "sims", "grid", "box", "voxels", "2lpt", "seed",
       "samples-per-shard"});

  const std::string out = flags.get_string("out", "/tmp/cosmoflow_data");

  core::DatasetGenConfig gen;
  gen.simulations = static_cast<std::size_t>(flags.get_int("sims", 24));
  gen.sim.grid.n = flags.get_int("grid", 64);
  gen.sim.grid.box_size = flags.get_double("box", 128.0);
  gen.sim.voxels = flags.get_int("voxels", 32);
  gen.sim.use_2lpt = flags.get_int("2lpt", 0) != 0;
  gen.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  runtime::ThreadPool pool;
  std::printf("simulating %zu boxes: %lld^3 particles, %.0f Mpc/h, "
              "%lld^3 voxels, %s displacement\n",
              gen.simulations, static_cast<long long>(gen.sim.grid.n),
              gen.sim.grid.box_size,
              static_cast<long long>(gen.sim.voxels),
              gen.sim.use_2lpt ? "2LPT" : "Zel'dovich");

  core::GeneratedDataset dataset = core::generate_dataset(gen, pool);
  std::printf("generated %zu train / %zu val / %zu test sub-volumes of "
              "%lld^3 voxels\n",
              dataset.train.size(), dataset.val.size(),
              dataset.test.size(),
              static_cast<long long>(gen.sim.voxels / 2));

  // Fig 1 stand-in: projected density of one training sub-volume.
  if (!dataset.train.empty()) {
    std::printf("\nprojected density of one sub-volume (log1p counts):\n");
    examples::render_volume_ascii(dataset.train.front().volume);
  }

  // Power-spectrum sanity check of the first cosmology.
  {
    const cosmo::PowerSpectrum ps(dataset.simulation_params.front());
    runtime::Rng rng(gen.seed);
    const auto modes = generate_delta_k(ps, gen.sim.grid, rng, pool);
    std::printf("\nmeasured vs input linear P(k), first cosmology "
                "(OmegaM=%.3f sigma8=%.3f ns=%.3f):\n",
                ps.params().omega_m, ps.params().sigma8, ps.params().ns);
    std::printf("  %10s %14s %14s %8s\n", "k[h/Mpc]", "P_meas", "P_input",
                "modes");
    for (const auto& bin :
         measure_power_spectrum(modes, gen.sim.grid, 8)) {
      if (bin.modes < 10) continue;
      std::printf("  %10.4f %14.2f %14.2f %8lld\n", bin.k, bin.power,
                  ps(bin.k), static_cast<long long>(bin.modes));
    }
  }

  const std::size_t per_shard = static_cast<std::size_t>(
      flags.get_int("samples-per-shard", 16));
  const auto train_shards =
      data::write_shards(dataset.train, out, "train", per_shard, gen.seed);
  const auto val_shards =
      data::write_shards(dataset.val, out, "val", per_shard, gen.seed + 1);
  const auto test_shards =
      data::write_shards(dataset.test, out, "test", per_shard,
                         gen.seed + 2);
  std::printf("\nwrote %zu train / %zu val / %zu test shards under %s\n",
              train_shards.size(), val_shards.size(), test_shards.size(),
              out.c_str());
  std::printf("next: ./examples/train_cosmoflow --data=%s\n", out.c_str());
  return 0;
}
