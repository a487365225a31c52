#include "data/sample.hpp"

#include <cstring>
#include <stdexcept>

#include "data/bytes.hpp"

namespace cf::data {

namespace {

constexpr std::uint32_t kMagic = 0x43464C57u;  // "CFLW"
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeader = 4 + 4 + 3 * 8 + 3 * 4;

}  // namespace

void Sample::copy_from(const Sample& other) {
  if (volume.shape() != other.volume.shape() || !volume.owns_storage()) {
    volume = tensor::Tensor(other.volume.shape());
  }
  std::memcpy(volume.data(), other.volume.data(),
              other.volume.size() * sizeof(float));
  target = other.target;
}

std::vector<std::uint8_t> serialize_sample(const Sample& sample) {
  if (sample.volume.shape().rank() != 4 || sample.volume.shape()[0] != 1) {
    throw std::invalid_argument(
        "serialize_sample: volume must be {1, D, H, W}");
  }
  std::vector<std::uint8_t> out;
  const std::size_t voxel_bytes = sample.volume.size() * sizeof(float);
  out.reserve(kHeader + voxel_bytes);
  append_le<std::uint32_t>(out, kMagic);
  append_le<std::uint32_t>(out, kVersion);
  for (std::size_t axis = 1; axis < 4; ++axis) {
    append_le<std::uint64_t>(
        out, static_cast<std::uint64_t>(sample.volume.shape()[axis]));
  }
  for (const float t : sample.target) {
    std::uint32_t bits;
    std::memcpy(&bits, &t, 4);
    append_le<std::uint32_t>(out, bits);
  }
  const std::size_t payload_start = out.size();
  out.resize(payload_start + voxel_bytes);
  std::memcpy(out.data() + payload_start, sample.volume.data(),
              voxel_bytes);
  return out;
}

void deserialize_sample_into(std::span<const std::uint8_t> payload,
                             Sample& out) {
  if (payload.size() < kHeader) {
    throw std::invalid_argument("deserialize_sample: payload too short");
  }
  const std::uint8_t* p = payload.data();
  if (load_le<std::uint32_t>(p) != kMagic) {
    throw std::invalid_argument("deserialize_sample: bad magic");
  }
  if (load_le<std::uint32_t>(p + 4) != kVersion) {
    throw std::invalid_argument("deserialize_sample: unsupported version");
  }
  std::int64_t dims[3];
  for (int i = 0; i < 3; ++i) {
    dims[i] = static_cast<std::int64_t>(load_le<std::uint64_t>(p + 8 + 8 * i));
    if (dims[i] <= 0 || dims[i] > (1 << 20)) {
      throw std::invalid_argument("deserialize_sample: bad dimension");
    }
  }
  for (int i = 0; i < 3; ++i) {
    const std::uint32_t bits = load_le<std::uint32_t>(p + 32 + 4 * i);
    std::memcpy(&out.target[static_cast<std::size_t>(i)], &bits, 4);
  }
  const std::size_t voxels =
      static_cast<std::size_t>(dims[0] * dims[1] * dims[2]);
  if (payload.size() != kHeader + voxels * sizeof(float)) {
    throw std::invalid_argument("deserialize_sample: size mismatch");
  }
  const tensor::Shape shape{1, dims[0], dims[1], dims[2]};
  // Steady state of the pipeline: the recycled buffer already has a
  // matching shape, so the voxel memcpy is the only byte movement.
  if (out.volume.shape() != shape || !out.volume.owns_storage()) {
    out.volume = tensor::Tensor(shape);
  }
  std::memcpy(out.volume.data(), p + kHeader, voxels * sizeof(float));
  return;
}

Sample deserialize_sample(std::span<const std::uint8_t> payload) {
  Sample sample;
  deserialize_sample_into(payload, sample);
  return sample;
}

}  // namespace cf::data
