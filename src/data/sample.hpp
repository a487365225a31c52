// One training sample: a preprocessed sub-volume and its normalized
// target parameters (OmegaM, sigma8, ns), plus the binary
// serialization used inside cfrecord payloads.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace cf::data {

struct Sample {
  /// Network-ready volume, shape {1, D, H, W} (log1p-compressed
  /// counts).
  tensor::Tensor volume;
  /// Targets normalized to [0, 1] over the sampled parameter ranges.
  std::array<float, 3> target{};

  Sample clone() const {
    Sample copy;
    copy.volume = volume.clone();
    copy.target = target;
    return copy;
  }

  /// In-place deep copy: reuses this sample's volume storage when the
  /// shapes match (no allocation), reallocating only on shape change.
  void copy_from(const Sample& other);
};

/// Serializes a sample into a record payload (little-endian, self-
/// describing: magic + version + dims + targets + voxels).
std::vector<std::uint8_t> serialize_sample(const Sample& sample);

/// Inverse of serialize_sample; throws std::invalid_argument on
/// malformed payloads.
Sample deserialize_sample(std::span<const std::uint8_t> payload);

/// Allocation-free inverse of serialize_sample: deserializes into
/// `out`, reusing its volume storage when the shape matches (the
/// steady state of a Pipeline, which recycles its buffers) and
/// allocating only on first use or shape change. The result is
/// byte-identical to deserialize_sample's.
void deserialize_sample_into(std::span<const std::uint8_t> payload,
                             Sample& out);

}  // namespace cf::data
