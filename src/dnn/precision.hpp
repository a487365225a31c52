// Reduced-precision inference support (DESIGN.md §2.5).
//
// fp32 is the reference numeric format: training, checkpoints and the
// bitwise-determinism contract all live there and nothing in this
// module changes a single fp32 bit. On top of it sits one inference-only
// fast path, tolerance-gated (tests/precision_test.cpp): kBf16, bf16
// storage for weights *and* activations with fp32 accumulation in every
// kernel. A 16-wide nCdhw16c channel block is exactly one 256-bit bf16
// load widened to a __m512 (vpmovzxwd + vpslld), so halving the bytes
// moved needs no layout change.
//
// Conversions are defined here once, with bit-identical scalar and
// AVX-512 forms: fp32 -> bf16 uses round-to-nearest-even via the
// integer bias trick (NaNs are quieted), and the vector narrowing
// deliberately uses the same integer ops (not vcvtneps2bf16) so a
// context produces the same bits with or without the intrinsics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace cf::dnn {

/// Inference numeric mode of an ExecContext. kFp32 is the default and
/// the only mode training contexts accept.
enum class Precision { kFp32 = 0, kBf16 = 1 };

constexpr std::string_view to_string(Precision p) noexcept {
  return p == Precision::kBf16 ? "bf16" : "fp32";
}

/// Parses the CLI spelling ("fp32" | "bf16"); throws
/// std::invalid_argument on anything else.
inline Precision precision_from_string(std::string_view s) {
  if (s == "fp32") return Precision::kFp32;
  if (s == "bf16") return Precision::kBf16;
  throw std::invalid_argument("unknown precision \"" + std::string(s) +
                              "\" (expected fp32 | bf16)");
}

/// Storage type for brain-float16 values: the top 16 bits of an IEEE
/// binary32. Kept as a plain integer so AlignedBuffer/memcpy treat it
/// as raw kernel data.
using bf16_t = std::uint16_t;

inline std::uint32_t f32_bits(float v) noexcept {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline float bits_f32(std::uint32_t bits) noexcept {
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// fp32 -> bf16, round-to-nearest-even (the integer bias trick:
/// add 0x7fff plus the keep-bit's LSB, then truncate). NaNs are
/// quieted so the truncation cannot turn a NaN into an infinity;
/// ±inf and ±0 map exactly.
inline bf16_t float_to_bf16(float v) noexcept {
  const std::uint32_t bits = f32_bits(v);
  if ((bits & 0x7fffffffu) > 0x7f800000u) {
    return static_cast<bf16_t>((bits >> 16) | 0x0040u);
  }
  const std::uint32_t lsb = (bits >> 16) & 1u;
  return static_cast<bf16_t>((bits + 0x7fffu + lsb) >> 16);
}

/// bf16 -> fp32 is exact: shift back into the high half.
inline float bf16_to_float(bf16_t h) noexcept {
  return bits_f32(static_cast<std::uint32_t>(h) << 16);
}

// Array converters (vectorized under __AVX512F__, same bits either
// way).
void bf16_from_f32(const float* src, bf16_t* dst, std::size_t n) noexcept;
void f32_from_bf16(const bf16_t* src, float* dst, std::size_t n) noexcept;

// --- AVX-512 lane helpers ---------------------------------------------
// Shared by the bf16 micro-kernels in dnn/forward_rp.cpp.

#if defined(__AVX512F__)

/// 16 bf16 lanes -> one __m512: vpmovzxwd + vpslld + bitcast. Exact.
inline __m512 bf16_load_16(const bf16_t* p) noexcept {
  const __m256i raw =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  return _mm512_castsi512_ps(
      _mm512_slli_epi32(_mm512_cvtepu16_epi32(raw), 16));
}

/// One __m512 -> 16 bf16 lanes with the same RNE + NaN-quieting bits
/// as float_to_bf16. With AVX512BF16 this is the native narrow
/// (vcvtneps2bf16, one uop — it carries the forward epilogues);
/// otherwise an integer RNE sequence with identical bits for every
/// normal value, zero, inf and NaN. The only divergence between the
/// two (and from the scalar fallback build) is that the native narrow
/// flushes denormals to zero — never produced by the network's
/// normal-range activations.
inline void bf16_store_16(bf16_t* p, __m512 v) noexcept {
#if defined(__AVX512BF16__)
  const __m256bh narrowed = _mm512_cvtneps_pbh(v);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                      reinterpret_cast<const __m256i&>(narrowed));
#else
  const __m512i bits = _mm512_castps_si512(v);
  const __mmask16 is_nan = _mm512_cmp_epu32_mask(
      _mm512_and_si512(bits, _mm512_set1_epi32(0x7fffffff)),
      _mm512_set1_epi32(0x7f800000), _MM_CMPINT_GT);
  const __m512i lsb = _mm512_and_si512(_mm512_srli_epi32(bits, 16),
                                       _mm512_set1_epi32(1));
  __m512i rounded = _mm512_srli_epi32(
      _mm512_add_epi32(_mm512_add_epi32(bits, _mm512_set1_epi32(0x7fff)),
                       lsb),
      16);
  const __m512i quiet_nan = _mm512_or_si512(_mm512_srli_epi32(bits, 16),
                                            _mm512_set1_epi32(0x0040));
  rounded = _mm512_mask_mov_epi32(rounded, is_nan, quiet_nan);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                      _mm512_cvtepi32_epi16(rounded));
#endif  // __AVX512BF16__
}

#endif  // __AVX512F__

}  // namespace cf::dnn
