#include "data/crc32.hpp"

#include <array>

#include "data/bytes.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define COSMOFLOW_CRC32_X86 1
#include <nmmintrin.h>
#endif

namespace cf::data {

namespace {

std::array<std::uint32_t, 256> build_table() {
  // Reflected CRC32-C polynomial.
  constexpr std::uint32_t kPoly = 0x82F63B78u;
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::uint32_t kMaskDelta = 0xA282EAD8u;

// --- kernels ---------------------------------------------------------
// Each takes and returns the *inverted* running state (~crc), so the
// callers own the single pre/post complement.

std::uint32_t update_table(std::uint32_t crc,
                           std::span<const std::uint8_t> bytes) {
  static const std::array<std::uint32_t, 256> table = build_table();
  for (const std::uint8_t b : bytes) {
    crc = (crc >> 8) ^ table[(crc ^ b) & 0xFFu];
  }
  return crc;
}

#ifdef COSMOFLOW_CRC32_X86
__attribute__((target("sse4.2"))) std::uint32_t update_hardware(
    std::uint32_t crc, std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t state = crc;
  while (n >= 8) {
    state = _mm_crc32_u64(state, load_le<std::uint64_t>(p));
    p += 8;
    n -= 8;
  }
  std::uint32_t crc32 = static_cast<std::uint32_t>(state);
  while (n > 0) {
    crc32 = _mm_crc32_u8(crc32, *p++);
    --n;
  }
  return crc32;
}
#endif

using UpdateFn = std::uint32_t (*)(std::uint32_t,
                                   std::span<const std::uint8_t>);

UpdateFn select_kernel() noexcept {
#ifdef COSMOFLOW_CRC32_X86
  if (__builtin_cpu_supports("sse4.2")) return update_hardware;
#endif
  return update_table;
}

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> bytes) {
  static const UpdateFn kernel = select_kernel();
  return ~kernel(~0u, bytes);
}

std::uint32_t crc32c_table(std::span<const std::uint8_t> bytes) {
  return ~update_table(~0u, bytes);
}

std::uint32_t mask_crc(std::uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

std::uint32_t unmask_crc(std::uint32_t masked) {
  const std::uint32_t rot = masked - kMaskDelta;
  return (rot << 15) | (rot >> 17);
}

}  // namespace cf::data
