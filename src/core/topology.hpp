// CosmoFlow network topologies (§III-A).
//
// The canonical 128^3 network: 7 conv layers (channel counts multiples
// of 16 for AVX-512 vectorization), 3 average-pooling stride-2
// down-samplers, 3 dense layers, leaky-ReLU activations everywhere, no
// batch-norm, 3 outputs. The widths below reproduce the paper's
// published aggregates: 7,054,259 parameters (28.2 MB vs the paper's
// "slightly more than seven million" / 28.15 MB) and 68.4 Gflop per
// sample fwd+bwd (vs 69.33) — both pinned by unit tests.
//
// cosmoflow_64_baseline() is the Ravanbakhsh et al. (2017) starting
// point: 64^3 input, two predicted parameters. cosmoflow_scaled()
// shrinks the input for single-core training studies while keeping the
// architecture family identical.
//
// Every topology is a chain, as in the paper (DESIGN.md §2.8): conv and
// pool stages, a flatten, dense layers, then one output layer.
// build_network() appends the layers in that order to a dnn::Network.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dnn/network.hpp"
#include "runtime/rng.hpp"

namespace cf::core {

struct ConvSpec {
  std::int64_t out_channels = 16;
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  bool pool_after = false;  // AvgPool3d k2 s2 following the activation
};

struct TopologyConfig {
  std::string name;
  std::int64_t input_dhw = 128;
  std::vector<ConvSpec> convs;
  /// Hidden dense widths; the output layer is appended automatically.
  std::vector<std::int64_t> dense_hidden;
  std::int64_t outputs = 3;
  float leaky_slope = 0.01f;
};

/// The canonical 128^3 / 3-parameter network of the paper.
TopologyConfig cosmoflow_128();

/// Ravanbakhsh et al. (2017) baseline: 64^3 input, 2 parameters.
TopologyConfig cosmoflow_64_baseline();

/// Architecture-preserving reduction for small inputs (dhw in
/// {8, 16, 32, 64}); used by the convergence/accuracy experiments on
/// this single-core machine.
TopologyConfig cosmoflow_scaled(std::int64_t input_dhw);

/// Picks the topology matching an input size: the canonical network
/// for 128, the scaled variants otherwise.
TopologyConfig topology_for_input(std::int64_t input_dhw);

/// Looks up a stock topology by preset name — the --preset flag of
/// train_cosmoflow: "cosmoflow-128" (the paper's canonical network),
/// "cosmoflow-64" / "-32" / "-16" / "-8" (the scaled variants) or
/// "ravanbakhsh-64". Throws on unknown names.
TopologyConfig preset_topology(const std::string& name);

/// Builds and finalizes the network; parameters are deterministically
/// initialized (He for convs, Xavier for dense) from `seed`. By default
/// the network fuses every Conv3d/Dense → LeakyRelu pair into the
/// producer's epilogue (bitwise identical to the unfused chain);
/// `fuse_eltwise = false` keeps the standalone activation layers.
/// `memplan` likewise defaults to the parity-placed diff arena and
/// shared scratch (placement-only, bitwise identical; DESIGN.md §2.2);
/// `memplan = false` keeps per-layer buffers.
dnn::Network build_network(const TopologyConfig& config, std::uint64_t seed,
                           bool fuse_eltwise = true, bool memplan = true);

/// Input tensor shape of a topology: plain {1, dhw, dhw, dhw}.
tensor::Shape input_shape(const TopologyConfig& config);

}  // namespace cf::core
