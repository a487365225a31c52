#include "core/topology.hpp"

#include <stdexcept>

#include "dnn/activations.hpp"
#include "dnn/avgpool3d.hpp"
#include "dnn/conv3d.hpp"
#include "dnn/dense.hpp"
#include "dnn/flatten.hpp"

namespace cf::core {

TopologyConfig cosmoflow_128() {
  TopologyConfig config;
  config.name = "cosmoflow-128";
  config.input_dhw = 128;
  config.convs = {
      {16, 3, 1, true},    // 128^3 x 16 -> pool -> 64^3
      {32, 4, 1, true},    // 64^3 x 32 -> pool -> 32^3 (dominant layer)
      {64, 3, 1, true},    // 32^3 x 64 -> pool -> 16^3
      {128, 3, 2, false},  // -> 8^3 x 128
      {128, 3, 1, false},
      {128, 3, 2, false},  // -> 4^3 x 128
      {128, 3, 1, false},
  };
  config.dense_hidden = {656, 64};  // 4^3 * 128 = 8192 -> 656 -> 64 -> 3
  config.outputs = 3;
  return config;
}

TopologyConfig cosmoflow_64_baseline() {
  TopologyConfig config;
  config.name = "ravanbakhsh-64";
  config.input_dhw = 64;
  config.convs = {
      {16, 3, 1, true},    // 64^3 -> 32^3
      {32, 4, 1, true},    // -> 16^3
      {64, 3, 1, true},    // -> 8^3
      {128, 3, 2, false},  // -> 4^3
      {128, 3, 1, false},
      {128, 3, 2, false},  // -> 2^3
  };
  config.dense_hidden = {256, 64};  // 2^3 * 128 = 1024 -> 256 -> 64 -> 2
  config.outputs = 2;
  return config;
}

TopologyConfig cosmoflow_scaled(std::int64_t input_dhw) {
  TopologyConfig config;
  config.input_dhw = input_dhw;
  config.outputs = 3;
  switch (input_dhw) {
    case 64:
      config.name = "cosmoflow-64";
      config.convs = {
          {16, 3, 1, true},    // -> 32^3
          {32, 3, 1, true},    // -> 16^3
          {64, 3, 2, false},   // -> 8^3
          {64, 3, 2, false},   // -> 4^3
      };
      config.dense_hidden = {128, 32};  // 4^3 * 64 = 4096
      break;
    case 32:
      config.name = "cosmoflow-32";
      config.convs = {
          {16, 3, 1, true},   // -> 16^3
          {32, 3, 1, true},   // -> 8^3
          {64, 3, 2, false},  // -> 4^3
      };
      config.dense_hidden = {128, 32};  // 4^3 * 64 = 4096
      break;
    case 16:
      config.name = "cosmoflow-16";
      config.convs = {
          {16, 3, 1, true},   // -> 8^3
          {32, 3, 2, false},  // -> 4^3
      };
      config.dense_hidden = {64, 32};  // 4^3 * 32 = 2048
      break;
    case 8:
      config.name = "cosmoflow-8";
      config.convs = {
          {16, 3, 1, true},   // -> 4^3
          {32, 3, 1, false},
      };
      config.dense_hidden = {64, 32};  // 4^3 * 32 = 2048
      break;
    default:
      throw std::invalid_argument(
          "cosmoflow_scaled: supported inputs are 8, 16, 32, 64");
  }
  return config;
}

TopologyConfig topology_for_input(std::int64_t input_dhw) {
  return input_dhw == 128 ? cosmoflow_128() : cosmoflow_scaled(input_dhw);
}

TopologyConfig preset_topology(const std::string& name) {
  if (name == "cosmoflow-128") return cosmoflow_128();
  if (name == "ravanbakhsh-64") return cosmoflow_64_baseline();
  for (const std::int64_t dhw : {std::int64_t{8}, std::int64_t{16},
                                 std::int64_t{32}, std::int64_t{64}}) {
    if (name == "cosmoflow-" + std::to_string(dhw)) {
      return cosmoflow_scaled(dhw);
    }
  }
  throw std::invalid_argument(
      "preset_topology: unknown preset '" + name +
      "' (expected cosmoflow-128, cosmoflow-64, cosmoflow-32, "
      "cosmoflow-16, cosmoflow-8 or ravanbakhsh-64)");
}

tensor::Shape input_shape(const TopologyConfig& config) {
  return tensor::Shape{1, config.input_dhw, config.input_dhw,
                       config.input_dhw};
}

dnn::Network build_network(const TopologyConfig& config, std::uint64_t seed,
                           bool fuse_eltwise, bool memplan) {
  if (config.convs.empty() || config.outputs <= 0) {
    throw std::invalid_argument("build_network: malformed topology");
  }
  dnn::Network net;
  net.set_fuse_eltwise(fuse_eltwise);
  net.set_memory_planning(memplan);
  std::int64_t channels = 1;
  std::int64_t dhw = config.input_dhw;
  int index = 1;
  std::vector<dnn::Conv3d*> convs;
  for (const ConvSpec& spec : config.convs) {
    const std::string id = std::to_string(index++);
    auto& conv = net.emplace<dnn::Conv3d>(
        "conv" + id,
        dnn::Conv3dConfig{channels, spec.out_channels, spec.kernel,
                          spec.stride, dnn::Padding::kSame});
    convs.push_back(&conv);
    net.emplace<dnn::LeakyRelu>("act" + id, config.leaky_slope);
    dhw = (dhw + spec.stride - 1) / spec.stride;  // same padding
    if (spec.pool_after) {
      net.emplace<dnn::AvgPool3d>("pool" + id, dnn::AvgPool3dConfig{2, 2});
      if (dhw % 2 != 0) {
        throw std::invalid_argument(
            "build_network: pooled dimension must be even");
      }
      dhw /= 2;
    }
    channels = spec.out_channels;
  }
  net.emplace<dnn::Flatten>("flatten", channels);

  std::int64_t features = channels * dhw * dhw * dhw;
  int dense_index = 1;
  std::vector<dnn::Dense*> denses;
  for (const std::int64_t width : config.dense_hidden) {
    const std::string id = std::to_string(dense_index++);
    denses.push_back(&net.emplace<dnn::Dense>("fc" + id, features, width));
    net.emplace<dnn::LeakyRelu>("fc_act" + id, config.leaky_slope);
    features = width;
  }
  denses.push_back(&net.emplace<dnn::Dense>(
      "fc" + std::to_string(dense_index), features, config.outputs));

  net.finalize(input_shape(config));

  // Deterministic initialization: one RNG stream per layer.
  std::uint64_t stream = 1;
  for (dnn::Conv3d* conv : convs) {
    runtime::Rng rng(seed, stream++);
    conv->init_he(rng);
  }
  for (dnn::Dense* dense : denses) {
    runtime::Rng rng(seed, stream++);
    dense->init_xavier(rng);
  }
  return net;
}

}  // namespace cf::core
