// Reduced-precision inference forwards (DESIGN.md §2.5).
//
// Every kernel here is a forward-only sibling of the fp32 engines in
// conv3d.cpp / dense.cpp / avgpool3d.cpp / flatten.cpp, kept in one
// translation unit so the fp32 files stay byte-for-byte untouched (the
// precision policy: fp32 is the bitwise reference, these paths are
// tolerance-gated).
//
// Weights and activations are stored as bf16, widened on load
// (vpmovzxwd + vpslld via precision.hpp's bf16_load_16), accumulated in
// fp32 and narrowed with round-to-nearest-even on store. Biases are
// read from the layer's fp32 tensors — they are tiny and keeping them
// fp32 costs nothing while removing one rounding step.
//
// Loop structures and summation orders mirror the fp32 kernels exactly,
// so the serving determinism rule (a context's forward is a pure
// function of weights + input, independent of thread count) holds in
// every precision.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "dnn/activations.hpp"
#include "dnn/avgpool3d.hpp"
#include "dnn/conv3d.hpp"
#include "dnn/dense.hpp"
#include "dnn/flatten.hpp"
#include "dnn/precision.hpp"
#include "tensor/layout.hpp"

// Kernel strategy: on this class of core vdpbf16ps sustains roughly
// half the MAC rate of the two fp32 FMA ports, so a bf16 conv cannot
// win on the MAC engine — the win has to come from bytes moved and
// from port pressure. The conv paths widen the padded source to fp32
// once at staging time (the broadcast operand wants plain floats),
// keep the weights bf16 and widen them on load inside the kernel
// (vpmovzxwd + vpslld — half the cache lines of an fp32 copy, which
// is what keeps a two-block weight slab L1-resident across a row
// sweep), and pair two output-channel blocks per source broadcast:
// each broadcast feeds two FMAs, halving the broadcast-load count per
// MAC that bounds the fp32 kernel. Dense
// keeps a vdpbf16ps tile (pack_weights_bf16) where available: the fc
// layers are weight-bandwidth-bound, so halving the streamed bytes is
// the whole story and the dp issue rate is irrelevant. Everything
// falls back to scalar conversion without __AVX512F__, with identical
// summation order.
#if defined(__AVX512F__) && defined(__AVX512BF16__)
#define CF_BF16_DP 1
#else
#define CF_BF16_DP 0
#endif

namespace cf::dnn {

using tensor::kChannelBlock;
using tensor::Tensor;

namespace {

constexpr std::int64_t kB = kChannelBlock;  // 16
constexpr std::int64_t kOwBlock = 8;        // accumulator rows in flight

#if CF_BF16_DP
/// Broadcast two adjacent bf16 source values as one 32-bit lane pair
/// (low half = *p, the vdpbf16ps b.lo operand).
inline __m512i bcast_pair(const bf16_t* p) noexcept {
  std::uint32_t u;
  std::memcpy(&u, p, sizeof(u));
  return _mm512_set1_epi32(static_cast<int>(u));
}
#endif

/// Fused-epilogue write: identical float ops to conv3d.cpp's
/// store_row_eltwise, applied to the fp32 accumulator row before any
/// narrowing.
inline void eltwise_row(float* __restrict row, std::int64_t n,
                        float slope) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = row[i];
    row[i] = v > 0.0f ? v : slope * v;
  }
}

// --- conv micro-kernels -----------------------------------------------

#if defined(__AVX512F__)

/// One (source row, weight tile pair) tap of a per-row tap list: `s`
/// is the fp32-staged padded source row of this (icb, kd, kh, kw),
/// `w0`/`w1` the two 16x16 bf16 weight tiles of the paired
/// output-channel blocks, read straight from the network's bf16 arena
/// and widened on load (vpmovzxwd + vpslld — exact).
struct PairTap {
  const float* s;
  const bf16_t* w0;
  const bf16_t* w1;
};

/// Fused epilogue of the pair kernels: optional LeakyReLU (identical
/// float ops to eltwise_row) and the RNE narrow, applied while the
/// accumulator is still in a register — the row never round-trips
/// through an fp32 scratch.
inline void narrow_store(bf16_t* p, __m512 v, bool fused, __m512 slope_v,
                         __m512 zero_v) {
  if (fused) {
    v = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(v, zero_v, _CMP_GT_OQ),
                             _mm512_mul_ps(slope_v, v), v);
  }
  bf16_store_16(p, v);
}

/// Paired-ocb held-accumulator kernel: 8 output positions x 2 output
/// channel blocks = 16 fp32 accumulator registers initialized from the
/// bias vectors and held across every tap of the row. Each source
/// broadcast feeds two FMAs (one per ocb tile), halving the
/// broadcast-load count per MAC versus the fp32 kernel, and the bf16
/// weight tiles halve the pair's slab to the point where it stays
/// L1-resident across the row sweep (a 2x16-deep fp32 copy would
/// not fit). `soff` shifts every tap source to the current 8-position
/// block; `dual` is false for the duplicated odd trailing block, whose
/// second accumulator set is computed but not stored.
inline void micro_fwd_row8_pair(bf16_t* __restrict d0, bf16_t* __restrict d1,
                                bool dual, const float* __restrict bias0,
                                const float* __restrict bias1,
                                const PairTap* taps, std::int64_t ntaps,
                                std::int64_t soff, std::int64_t sstep,
                                bool fused, float slope) {
  const __m512 bv0 = _mm512_loadu_ps(bias0);
  const __m512 bv1 = _mm512_loadu_ps(bias1);
  __m512 a0 = bv0, a1 = bv0, a2 = bv0, a3 = bv0;
  __m512 a4 = bv0, a5 = bv0, a6 = bv0, a7 = bv0;
  __m512 b0 = bv1, b1 = bv1, b2 = bv1, b3 = bv1;
  __m512 b4 = bv1, b5 = bv1, b6 = bv1, b7 = bv1;
  for (std::int64_t t = 0; t < ntaps; ++t) {
    const float* s = taps[t].s + soff;
    const bf16_t* w0 = taps[t].w0;
    const bf16_t* w1 = taps[t].w1;
    for (int ic = 0; ic < kB; ++ic) {
      const __m512 wv0 = bf16_load_16(w0 + ic * kB);
      const __m512 wv1 = bf16_load_16(w1 + ic * kB);
      __m512 sv = _mm512_set1_ps(s[0 * sstep + ic]);
      a0 = _mm512_fmadd_ps(wv0, sv, a0);
      b0 = _mm512_fmadd_ps(wv1, sv, b0);
      sv = _mm512_set1_ps(s[1 * sstep + ic]);
      a1 = _mm512_fmadd_ps(wv0, sv, a1);
      b1 = _mm512_fmadd_ps(wv1, sv, b1);
      sv = _mm512_set1_ps(s[2 * sstep + ic]);
      a2 = _mm512_fmadd_ps(wv0, sv, a2);
      b2 = _mm512_fmadd_ps(wv1, sv, b2);
      sv = _mm512_set1_ps(s[3 * sstep + ic]);
      a3 = _mm512_fmadd_ps(wv0, sv, a3);
      b3 = _mm512_fmadd_ps(wv1, sv, b3);
      sv = _mm512_set1_ps(s[4 * sstep + ic]);
      a4 = _mm512_fmadd_ps(wv0, sv, a4);
      b4 = _mm512_fmadd_ps(wv1, sv, b4);
      sv = _mm512_set1_ps(s[5 * sstep + ic]);
      a5 = _mm512_fmadd_ps(wv0, sv, a5);
      b5 = _mm512_fmadd_ps(wv1, sv, b5);
      sv = _mm512_set1_ps(s[6 * sstep + ic]);
      a6 = _mm512_fmadd_ps(wv0, sv, a6);
      b6 = _mm512_fmadd_ps(wv1, sv, b6);
      sv = _mm512_set1_ps(s[7 * sstep + ic]);
      a7 = _mm512_fmadd_ps(wv0, sv, a7);
      b7 = _mm512_fmadd_ps(wv1, sv, b7);
    }
  }
  const __m512 slope_v = _mm512_set1_ps(slope);
  const __m512 zero_v = _mm512_setzero_ps();
  narrow_store(d0 + 0 * kB, a0, fused, slope_v, zero_v);
  narrow_store(d0 + 1 * kB, a1, fused, slope_v, zero_v);
  narrow_store(d0 + 2 * kB, a2, fused, slope_v, zero_v);
  narrow_store(d0 + 3 * kB, a3, fused, slope_v, zero_v);
  narrow_store(d0 + 4 * kB, a4, fused, slope_v, zero_v);
  narrow_store(d0 + 5 * kB, a5, fused, slope_v, zero_v);
  narrow_store(d0 + 6 * kB, a6, fused, slope_v, zero_v);
  narrow_store(d0 + 7 * kB, a7, fused, slope_v, zero_v);
  if (!dual) return;
  narrow_store(d1 + 0 * kB, b0, fused, slope_v, zero_v);
  narrow_store(d1 + 1 * kB, b1, fused, slope_v, zero_v);
  narrow_store(d1 + 2 * kB, b2, fused, slope_v, zero_v);
  narrow_store(d1 + 3 * kB, b3, fused, slope_v, zero_v);
  narrow_store(d1 + 4 * kB, b4, fused, slope_v, zero_v);
  narrow_store(d1 + 5 * kB, b5, fused, slope_v, zero_v);
  narrow_store(d1 + 6 * kB, b6, fused, slope_v, zero_v);
  narrow_store(d1 + 7 * kB, b7, fused, slope_v, zero_v);
}

/// 4-position variant for narrow output rows (the stride-2 conv's
/// out_w = 4 slabs).
inline void micro_fwd_row4_pair(bf16_t* __restrict d0, bf16_t* __restrict d1,
                                bool dual, const float* __restrict bias0,
                                const float* __restrict bias1,
                                const PairTap* taps, std::int64_t ntaps,
                                std::int64_t soff, std::int64_t sstep,
                                bool fused, float slope) {
  const __m512 bv0 = _mm512_loadu_ps(bias0);
  const __m512 bv1 = _mm512_loadu_ps(bias1);
  __m512 a0 = bv0, a1 = bv0, a2 = bv0, a3 = bv0;
  __m512 b0 = bv1, b1 = bv1, b2 = bv1, b3 = bv1;
  for (std::int64_t t = 0; t < ntaps; ++t) {
    const float* s = taps[t].s + soff;
    const bf16_t* w0 = taps[t].w0;
    const bf16_t* w1 = taps[t].w1;
    for (int ic = 0; ic < kB; ++ic) {
      const __m512 wv0 = bf16_load_16(w0 + ic * kB);
      const __m512 wv1 = bf16_load_16(w1 + ic * kB);
      __m512 sv = _mm512_set1_ps(s[0 * sstep + ic]);
      a0 = _mm512_fmadd_ps(wv0, sv, a0);
      b0 = _mm512_fmadd_ps(wv1, sv, b0);
      sv = _mm512_set1_ps(s[1 * sstep + ic]);
      a1 = _mm512_fmadd_ps(wv0, sv, a1);
      b1 = _mm512_fmadd_ps(wv1, sv, b1);
      sv = _mm512_set1_ps(s[2 * sstep + ic]);
      a2 = _mm512_fmadd_ps(wv0, sv, a2);
      b2 = _mm512_fmadd_ps(wv1, sv, b2);
      sv = _mm512_set1_ps(s[3 * sstep + ic]);
      a3 = _mm512_fmadd_ps(wv0, sv, a3);
      b3 = _mm512_fmadd_ps(wv1, sv, b3);
    }
  }
  const __m512 slope_v = _mm512_set1_ps(slope);
  const __m512 zero_v = _mm512_setzero_ps();
  narrow_store(d0 + 0 * kB, a0, fused, slope_v, zero_v);
  narrow_store(d0 + 1 * kB, a1, fused, slope_v, zero_v);
  narrow_store(d0 + 2 * kB, a2, fused, slope_v, zero_v);
  narrow_store(d0 + 3 * kB, a3, fused, slope_v, zero_v);
  if (!dual) return;
  narrow_store(d1 + 0 * kB, b0, fused, slope_v, zero_v);
  narrow_store(d1 + 1 * kB, b1, fused, slope_v, zero_v);
  narrow_store(d1 + 2 * kB, b2, fused, slope_v, zero_v);
  narrow_store(d1 + 3 * kB, b3, fused, slope_v, zero_v);
}

/// Single-position tail (out_w % 4 columns).
inline void micro_fwd_row1_pair(bf16_t* __restrict d0, bf16_t* __restrict d1,
                                bool dual, const float* __restrict bias0,
                                const float* __restrict bias1,
                                const PairTap* taps, std::int64_t ntaps,
                                std::int64_t soff, bool fused, float slope) {
  __m512 a0 = _mm512_loadu_ps(bias0);
  __m512 b0 = _mm512_loadu_ps(bias1);
  for (std::int64_t t = 0; t < ntaps; ++t) {
    const float* s = taps[t].s + soff;
    const bf16_t* w0 = taps[t].w0;
    const bf16_t* w1 = taps[t].w1;
    for (int ic = 0; ic < kB; ++ic) {
      const __m512 sv = _mm512_set1_ps(s[ic]);
      a0 = _mm512_fmadd_ps(bf16_load_16(w0 + ic * kB), sv, a0);
      b0 = _mm512_fmadd_ps(bf16_load_16(w1 + ic * kB), sv, b0);
    }
  }
  const __m512 slope_v = _mm512_set1_ps(slope);
  const __m512 zero_v = _mm512_setzero_ps();
  narrow_store(d0, a0, fused, slope_v, zero_v);
  if (dual) narrow_store(d1, b0, fused, slope_v, zero_v);
}

/// First-layer (IC == 1) kernel: the fp32 micro_fwd_row_ic1 structure
/// (8 x 16-lane register accumulators across the whole window) over
/// the fp32-staged source and widened-on-load bf16 weights, with the
/// fused LeakyReLU and the RNE narrowing applied before the row
/// leaves the registers.
inline void micro_fwd_row_ic1_bf16(bf16_t* __restrict dst_row,
                                   const float* __restrict bias16,
                                   const float* const* splanes,
                                   const bf16_t* const* wtaps,
                                   std::int64_t taps, std::int64_t kernel_w,
                                   std::int64_t count, std::int64_t stride,
                                   bool fused, float slope) {
  const __m512 slope_v = _mm512_set1_ps(slope);
  const __m512 zero_v = _mm512_setzero_ps();
  std::int64_t ow = 0;
  for (; ow + kOwBlock <= count; ow += kOwBlock) {
    const __m512 b = _mm512_loadu_ps(bias16);
    __m512 a0 = b, a1 = b, a2 = b, a3 = b, a4 = b, a5 = b, a6 = b, a7 = b;
    for (std::int64_t tap = 0; tap < taps; ++tap) {
      const float* s = splanes[tap] + ow * stride;
      const bf16_t* w = wtaps[tap];
      for (std::int64_t kw = 0; kw < kernel_w; ++kw) {
        const __m512 wv = bf16_load_16(w + kw * kB);
        a0 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[0 * stride + kw]), a0);
        a1 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[1 * stride + kw]), a1);
        a2 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[2 * stride + kw]), a2);
        a3 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[3 * stride + kw]), a3);
        a4 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[4 * stride + kw]), a4);
        a5 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[5 * stride + kw]), a5);
        a6 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[6 * stride + kw]), a6);
        a7 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[7 * stride + kw]), a7);
      }
    }
    if (fused) {
      // v > 0 ? v : slope * v — float-identical to eltwise_row on the
      // fp32 accumulators.
      a0 = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(a0, zero_v, _CMP_GT_OQ),
                                _mm512_mul_ps(slope_v, a0), a0);
      a1 = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(a1, zero_v, _CMP_GT_OQ),
                                _mm512_mul_ps(slope_v, a1), a1);
      a2 = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(a2, zero_v, _CMP_GT_OQ),
                                _mm512_mul_ps(slope_v, a2), a2);
      a3 = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(a3, zero_v, _CMP_GT_OQ),
                                _mm512_mul_ps(slope_v, a3), a3);
      a4 = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(a4, zero_v, _CMP_GT_OQ),
                                _mm512_mul_ps(slope_v, a4), a4);
      a5 = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(a5, zero_v, _CMP_GT_OQ),
                                _mm512_mul_ps(slope_v, a5), a5);
      a6 = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(a6, zero_v, _CMP_GT_OQ),
                                _mm512_mul_ps(slope_v, a6), a6);
      a7 = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(a7, zero_v, _CMP_GT_OQ),
                                _mm512_mul_ps(slope_v, a7), a7);
    }
    bf16_store_16(dst_row + (ow + 0) * kB, a0);
    bf16_store_16(dst_row + (ow + 1) * kB, a1);
    bf16_store_16(dst_row + (ow + 2) * kB, a2);
    bf16_store_16(dst_row + (ow + 3) * kB, a3);
    bf16_store_16(dst_row + (ow + 4) * kB, a4);
    bf16_store_16(dst_row + (ow + 5) * kB, a5);
    bf16_store_16(dst_row + (ow + 6) * kB, a6);
    bf16_store_16(dst_row + (ow + 7) * kB, a7);
  }
  for (; ow < count; ++ow) {
    __m512 a = _mm512_loadu_ps(bias16);
    for (std::int64_t tap = 0; tap < taps; ++tap) {
      const float* s = splanes[tap] + ow * stride;
      const bf16_t* w = wtaps[tap];
      for (std::int64_t kw = 0; kw < kernel_w; ++kw) {
        a = _mm512_fmadd_ps(bf16_load_16(w + kw * kB),
                            _mm512_set1_ps(s[kw]), a);
      }
    }
    if (fused) {
      a = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(a, zero_v, _CMP_GT_OQ),
                               _mm512_mul_ps(slope_v, a), a);
    }
    bf16_store_16(dst_row + ow * kB, a);
  }
}

#endif  // __AVX512F__ conv micro-kernels

#if !defined(__AVX512F__)  // portable fallback

/// Scalar tier of the paired kernel's work: one tap over the
/// fp32-staged source row against one bf16 weight tile, same
/// (tap, ic, oc) summation order as the vector kernels.
inline void micro_fwd_row_bf16(float* __restrict acc,
                               const float* __restrict src_row,
                               const bf16_t* __restrict w,
                               std::int64_t count, std::int64_t stride) {
  const std::int64_t sstep = stride * kB;
  for (std::int64_t ow = 0; ow < count; ++ow) {
    const float* s = src_row + ow * sstep;
    float* d = acc + ow * kB;
    for (int ic = 0; ic < kB; ++ic) {
      const float sv = s[ic];
      const bf16_t* wrow = w + ic * kB;
      for (int oc = 0; oc < kB; ++oc) d[oc] += bf16_to_float(wrow[oc]) * sv;
    }
  }
}

#endif  // !__AVX512F__

// --- padded staging (bf16 -> fp32) ------------------------------------

/// Widening siblings of conv3d.cpp's copy_padded_* helpers: the bf16
/// activation rows are widened to fp32 as they are staged into the
/// zero-padded workspace, so every kernel tap below reads plain
/// floats and the widening cost is paid once per element instead of
/// once per tap.
void copy_padded_blocked_w(const bf16_t* src, float* padded,
                           std::int64_t cb, std::int64_t d, std::int64_t h,
                           std::int64_t w, const PadSpec& pd,
                           const PadSpec& ph, const PadSpec& pw,
                           std::int64_t hp, std::int64_t wp,
                           runtime::ThreadPool& pool, std::size_t grain) {
  pool.parallel_for(
      static_cast<std::size_t>(cb * d),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t c = static_cast<std::int64_t>(job) / d;
          const std::int64_t dd = static_cast<std::int64_t>(job) % d;
          for (std::int64_t hh = 0; hh < h; ++hh) {
            const bf16_t* s = src + (((c * d + dd) * h + hh) * w) * kB;
            float* t = padded +
                       (((c * (d + pd.total()) + dd + pd.lo) * hp + hh +
                         ph.lo) *
                            wp +
                        pw.lo) *
                           kB;
            f32_from_bf16(s, t, static_cast<std::size_t>(w) * kB);
          }
        }
      },
      grain);
}

void copy_padded_plain_w(const bf16_t* src, float* padded, std::int64_t c,
                         std::int64_t d, std::int64_t h, std::int64_t w,
                         const PadSpec& pd, const PadSpec& ph,
                         const PadSpec& pw, std::int64_t hp, std::int64_t wp,
                         runtime::ThreadPool& pool, std::size_t grain) {
  pool.parallel_for(
      static_cast<std::size_t>(c * d),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t cc = static_cast<std::int64_t>(job) / d;
          const std::int64_t dd = static_cast<std::int64_t>(job) % d;
          for (std::int64_t hh = 0; hh < h; ++hh) {
            const bf16_t* s = src + ((cc * d + dd) * h + hh) * w;
            float* t = padded +
                       ((cc * (d + pd.total()) + dd + pd.lo) * hp + hh +
                        ph.lo) *
                           wp +
                       pw.lo;
            f32_from_bf16(s, t, static_cast<std::size_t>(w));
          }
        }
      },
      grain);
}

}  // namespace

// --- Conv3d -----------------------------------------------------------

void Conv3d::forward_bf16(const bf16_t* src, bf16_t* dst,
                          std::span<const bf16_t> params,
                          LayerExecState& exec,
                          runtime::ThreadPool& pool) const {
  if (params.size() !=
      static_cast<std::size_t>(weights_.size() + bias_.size())) {
    throw std::logic_error("Conv3d::forward_bf16: bad param segment size");
  }
  const std::size_t need = forward_workspace_floats();
  if (exec.workspace.size() < need) {
    throw std::logic_error("Conv3d::forward_bf16: workspace smaller than "
                           "forward_workspace_floats()");
  }
  // Staged as fp32, exactly like the fp32 forward: the bf16 source
  // rows are widened once here so the kernels below broadcast plain
  // floats ("widen once, not per tap" — header comment). The shared
  // re-zero contract matches stage_padded_src.
  float* padded = exec.workspace.data();
  if (exec.workspace_shared) {
    std::memset(padded, 0, need * sizeof(float));
  }
  const std::int64_t ic = config_.in_channels;
  if (plain_input_) {
    copy_padded_plain_w(src, padded, ic, in_d_, in_h_, in_w_, pad_d_,
                        pad_h_, pad_w_, ph_, pw_, pool,
                        exec.intraop_grain);
  } else {
    copy_padded_blocked_w(src, padded, ic / kB, in_d_, in_h_, in_w_,
                          pad_d_, pad_h_, pad_w_, ph_, pw_, pool,
                          exec.intraop_grain);
  }

  const bf16_t* wbase = params.data();  // segment = weights then bias
  const std::int64_t ocb_count = config_.out_channels / kB;
  const std::int64_t k = config_.kernel;
  const std::int64_t stride = config_.stride;
  const std::int64_t dp = pd_, hp = ph_, wp = pw_;
  const bool fused = fused_;
  const float slope = slope_;

  if (plain_input_) {
    // First-layer path (IC < 16). The weight image is tiny
    // (OCb * K^3 * IC * 16) and L1-resident, so the kernels read it as
    // bf16 and widen on load — the fp32 first-layer structures are
    // otherwise unchanged.
    const std::int64_t ic_count = ic;
#if defined(__AVX512F__)
    if (ic_count == 1) {
      // Mirror of the fp32 micro_fwd_row_ic1 dispatch.
      pool.parallel_for(
          static_cast<std::size_t>(ocb_count * out_d_),
          [&](std::size_t begin, std::size_t end, std::size_t) {
            std::vector<const float*> splanes(
                static_cast<std::size_t>(k * k));
            std::vector<const bf16_t*> wtaps(
                static_cast<std::size_t>(k * k));
            for (std::size_t job = begin; job < end; ++job) {
              const std::int64_t ocb =
                  static_cast<std::int64_t>(job) / out_d_;
              const std::int64_t od =
                  static_cast<std::int64_t>(job) % out_d_;
              for (std::int64_t oh = 0; oh < out_h_; ++oh) {
                std::int64_t tap = 0;
                for (std::int64_t kd = 0; kd < k; ++kd) {
                  const std::int64_t id = od * stride + kd;
                  for (std::int64_t kh = 0; kh < k; ++kh, ++tap) {
                    const std::int64_t ih = oh * stride + kh;
                    splanes[static_cast<std::size_t>(tap)] =
                        padded + (id * hp + ih) * wp;
                    wtaps[static_cast<std::size_t>(tap)] =
                        wbase + (((ocb * k + kd) * k + kh) * k) * kB;
                  }
                }
                bf16_t* drow =
                    dst +
                    (((ocb * out_d_ + od) * out_h_ + oh) * out_w_) * kB;
                micro_fwd_row_ic1_bf16(drow, bias_.data() + ocb * kB,
                                       splanes.data(), wtaps.data(), k * k,
                                       k, out_w_, stride, fused, slope);
              }
            }
          },
          exec.intraop_grain);
      return;
    }
#endif  // __AVX512F__
    // Generic plain tier (1 < IC < 16): widened once per forward.
    std::vector<float> wf(static_cast<std::size_t>(weights_.size()));
    f32_from_bf16(wbase, wf.data(), wf.size());
    const float* wfbase = wf.data();
    pool.parallel_for(
        static_cast<std::size_t>(ocb_count * out_d_),
        [&](std::size_t begin, std::size_t end, std::size_t) {
          std::vector<float> acc(static_cast<std::size_t>(out_w_) * kB);
          for (std::size_t job = begin; job < end; ++job) {
            const std::int64_t ocb =
                static_cast<std::int64_t>(job) / out_d_;
            const std::int64_t od = static_cast<std::int64_t>(job) % out_d_;
            const float* b = bias_.data() + ocb * kB;
            for (std::int64_t oh = 0; oh < out_h_; ++oh) {
              for (std::int64_t ow = 0; ow < out_w_; ++ow) {
                std::memcpy(acc.data() + ow * kB, b, kB * sizeof(float));
              }
              for (std::int64_t kd = 0; kd < k; ++kd) {
                const std::int64_t id = od * stride + kd;
                for (std::int64_t kh = 0; kh < k; ++kh) {
                  const std::int64_t ih = oh * stride + kh;
                  for (std::int64_t kw = 0; kw < k; ++kw) {
                    const float* wtile =
                        wfbase +
                        ((((ocb * k + kd) * k + kh) * k + kw) * ic_count) *
                            kB;
                    for (std::int64_t ci = 0; ci < ic_count; ++ci) {
                      const float* splane =
                          padded + ((ci * dp + id) * hp + ih) * wp + kw;
#if defined(__AVX512F__)
                      const __m512 wv = _mm512_loadu_ps(wtile + ci * kB);
                      std::int64_t ow = 0;
                      for (; ow + 4 <= out_w_; ow += 4) {
                        float* d = acc.data() + ow * kB;
                        const float* s = splane + ow * stride;
                        __m512 a0 = _mm512_loadu_ps(d + 0 * kB);
                        __m512 a1 = _mm512_loadu_ps(d + 1 * kB);
                        __m512 a2 = _mm512_loadu_ps(d + 2 * kB);
                        __m512 a3 = _mm512_loadu_ps(d + 3 * kB);
                        a0 = _mm512_fmadd_ps(
                            wv, _mm512_set1_ps(s[0 * stride]), a0);
                        a1 = _mm512_fmadd_ps(
                            wv, _mm512_set1_ps(s[1 * stride]), a1);
                        a2 = _mm512_fmadd_ps(
                            wv, _mm512_set1_ps(s[2 * stride]), a2);
                        a3 = _mm512_fmadd_ps(
                            wv, _mm512_set1_ps(s[3 * stride]), a3);
                        _mm512_storeu_ps(d + 0 * kB, a0);
                        _mm512_storeu_ps(d + 1 * kB, a1);
                        _mm512_storeu_ps(d + 2 * kB, a2);
                        _mm512_storeu_ps(d + 3 * kB, a3);
                      }
                      for (; ow < out_w_; ++ow) {
                        float* d = acc.data() + ow * kB;
                        _mm512_storeu_ps(
                            d, _mm512_fmadd_ps(
                                   wv,
                                   _mm512_set1_ps(splane[ow * stride]),
                                   _mm512_loadu_ps(d)));
                      }
#else
                      const float* wrow = wtile + ci * kB;
                      for (std::int64_t ow = 0; ow < out_w_; ++ow) {
                        const float sv = splane[ow * stride];
                        float* d = acc.data() + ow * kB;
                        for (int oc = 0; oc < kB; ++oc) {
                          d[oc] += wrow[oc] * sv;
                        }
                      }
#endif
                    }
                  }
                }
              }
              if (fused) eltwise_row(acc.data(), out_w_ * kB, slope);
              bf16_from_f32(acc.data(),
                            dst + (((ocb * out_d_ + od) * out_h_ + oh) *
                                   out_w_) *
                                      kB,
                            static_cast<std::size_t>(out_w_) * kB);
            }
          }
        },
        exec.intraop_grain);
    return;
  }

  const std::int64_t icb_count = ic / kB;
#if defined(__AVX512F__)
  // Blocked path: jobs over (ocb pair, od). The pair's bf16 weight
  // slabs are read in place from the network's bf16 arena (half the
  // lines of an fp32 copy — the whole pair stays L1-resident across
  // the row sweep); each worker flattens the window into a tap list
  // per output row and runs the paired held-accumulator kernels. An
  // odd trailing ocb is computed with its tile duplicated into both
  // slots and the second accumulator row discarded.
  const std::int64_t pair_count = (ocb_count + 1) / 2;
  const std::int64_t slab = icb_count * k * k * k * kB * kB;
  pool.parallel_for(
      static_cast<std::size_t>(pair_count * out_d_),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<PairTap> taps(
            static_cast<std::size_t>(icb_count * k * k * k));
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t pair = static_cast<std::int64_t>(job) / out_d_;
          const std::int64_t od = static_cast<std::int64_t>(job) % out_d_;
          const std::int64_t ocb0 = pair * 2;
          const std::int64_t ocb1 = std::min(ocb0 + 1, ocb_count - 1);
          const bool dual = ocb1 != ocb0;
          const float* b0 = bias_.data() + ocb0 * kB;
          const float* b1 = bias_.data() + ocb1 * kB;
          const std::int64_t sstep = stride * kB;
          for (std::int64_t oh = 0; oh < out_h_; ++oh) {
            std::int64_t ntaps = 0;
            for (std::int64_t icb = 0; icb < icb_count; ++icb) {
              for (std::int64_t kd = 0; kd < k; ++kd) {
                const std::int64_t id = od * stride + kd;
                for (std::int64_t kh = 0; kh < k; ++kh) {
                  const std::int64_t ih = oh * stride + kh;
                  const float* srow =
                      padded + (((icb * dp + id) * hp + ih) * wp) * kB;
                  const std::int64_t woff =
                      (((icb * k + kd) * k + kh) * k) * kB * kB;
                  const bf16_t* w0 = wbase + ocb0 * slab + woff;
                  const bf16_t* w1 = wbase + ocb1 * slab + woff;
                  for (std::int64_t kw = 0; kw < k; ++kw) {
                    taps[static_cast<std::size_t>(ntaps++)] = {
                        srow + kw * kB, w0 + kw * kB * kB,
                        w1 + kw * kB * kB};
                  }
                }
              }
            }
            bf16_t* d0 =
                dst + (((ocb0 * out_d_ + od) * out_h_ + oh) * out_w_) * kB;
            bf16_t* d1 =
                dst + (((ocb1 * out_d_ + od) * out_h_ + oh) * out_w_) * kB;
            std::int64_t ow = 0;
            for (; ow + 8 <= out_w_; ow += 8) {
              micro_fwd_row8_pair(d0 + ow * kB, d1 + ow * kB, dual, b0, b1,
                                  taps.data(), ntaps, ow * sstep, sstep,
                                  fused, slope);
            }
            for (; ow + 4 <= out_w_; ow += 4) {
              micro_fwd_row4_pair(d0 + ow * kB, d1 + ow * kB, dual, b0, b1,
                                  taps.data(), ntaps, ow * sstep, sstep,
                                  fused, slope);
            }
            for (; ow < out_w_; ++ow) {
              micro_fwd_row1_pair(d0 + ow * kB, d1 + ow * kB, dual, b0, b1,
                                  taps.data(), ntaps, ow * sstep, fused,
                                  slope);
            }
          }
        }
      },
      exec.intraop_grain);
#else
  // Scalar tier: same (icb, kd, kh, kw) tap order over the fp32-staged
  // source, weights widened per access.
  pool.parallel_for(
      static_cast<std::size_t>(ocb_count * out_d_),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<float> acc(static_cast<std::size_t>(out_w_) * kB);
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t ocb = static_cast<std::int64_t>(job) / out_d_;
          const std::int64_t od = static_cast<std::int64_t>(job) % out_d_;
          const float* b = bias_.data() + ocb * kB;
          for (std::int64_t oh = 0; oh < out_h_; ++oh) {
            for (std::int64_t ow = 0; ow < out_w_; ++ow) {
              std::memcpy(acc.data() + ow * kB, b, kB * sizeof(float));
            }
            for (std::int64_t icb = 0; icb < icb_count; ++icb) {
              for (std::int64_t kd = 0; kd < k; ++kd) {
                const std::int64_t id = od * stride + kd;
                for (std::int64_t kh = 0; kh < k; ++kh) {
                  const std::int64_t ih = oh * stride + kh;
                  const float* srow =
                      padded + (((icb * dp + id) * hp + ih) * wp) * kB;
                  const bf16_t* wtile =
                      wbase +
                      ((((ocb * icb_count + icb) * k + kd) * k + kh) * k) *
                          kB * kB;
                  for (std::int64_t kw = 0; kw < k; ++kw) {
                    micro_fwd_row_bf16(acc.data(), srow + kw * kB,
                                       wtile + kw * kB * kB, out_w_,
                                       stride);
                  }
                }
              }
            }
            if (fused) eltwise_row(acc.data(), out_w_ * kB, slope);
            bf16_from_f32(
                acc.data(),
                dst + (((ocb * out_d_ + od) * out_h_ + oh) * out_w_) * kB,
                static_cast<std::size_t>(out_w_) * kB);
          }
        }
      },
      exec.intraop_grain);
#endif  // __AVX512F__
}

// --- Dense ------------------------------------------------------------

void Dense::forward_bf16(const bf16_t* src, bf16_t* dst,
                         std::span<const bf16_t> params,
                         LayerExecState& exec,
                         runtime::ThreadPool& pool) const {
  if (params.size() != static_cast<std::size_t>(in_ * out_ + out_)) {
    throw std::logic_error("Dense::forward_bf16: bad param segment size");
  }
  const bf16_t* wbase = params.data();  // {I, O}, weights then bias
  // Same fixed-chunk deterministic reduction as the fp32 forward.
  constexpr std::int64_t kSerialWorkLimit = 4096;
  const std::size_t chunks = forward_chunks();
  const std::size_t chunk_size =
      (static_cast<std::size_t>(in_) + chunks - 1) / chunks;
#if CF_BF16_DP
  // When the weights were pair-interleaved ({I/2, O, 2} — see
  // Dense::pack_weights_bf16, same condition) each vdpbf16ps retires
  // two input taps per 16 outputs. in_ % 32 == 0 keeps every chunk
  // boundary even, so chunk sums match the tap grouping exactly.
  const bool packed = (in_ % 32 == 0) && (out_ % kB == 0);
#endif
  float* const partial = zeroed_accumulators(exec);
  const std::size_t grain = std::max<std::size_t>(
      in_ * out_ <= kSerialWorkLimit ? chunks : 1, exec.intraop_grain);
  pool.parallel_for(
      chunks,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t chunk = begin; chunk < end; ++chunk) {
          float* acc = partial + chunk * static_cast<std::size_t>(out_);
          const std::size_t lo = chunk * chunk_size;
          const std::size_t hi =
              std::min(static_cast<std::size_t>(in_), lo + chunk_size);
#if CF_BF16_DP
          if (packed) {
            for (std::size_t i = lo; i < hi; i += 2) {
              const __m512bh pv =
                  reinterpret_cast<__m512bh>(bcast_pair(src + i));
              const bf16_t* wrow =
                  wbase + (i / 2) * static_cast<std::size_t>(out_) * 2;
              for (std::int64_t o = 0; o < out_; o += kB) {
                _mm512_storeu_ps(
                    acc + o,
                    _mm512_dpbf16_ps(_mm512_loadu_ps(acc + o),
                                     reinterpret_cast<__m512bh>(
                                         _mm512_loadu_si512(wrow + o * 2)),
                                     pv));
              }
            }
            continue;
          }
#endif
          for (std::size_t i = lo; i < hi; ++i) {
            const float sv = bf16_to_float(src[i]);
            const bf16_t* wrow = wbase + i * static_cast<std::size_t>(out_);
            std::int64_t o = 0;
#if defined(__AVX512F__)
            for (; o + kB <= out_; o += kB) {
              _mm512_storeu_ps(
                  acc + o,
                  _mm512_fmadd_ps(bf16_load_16(wrow + o),
                                  _mm512_set1_ps(sv),
                                  _mm512_loadu_ps(acc + o)));
            }
#endif
            for (; o < out_; ++o) acc[o] += bf16_to_float(wrow[o]) * sv;
          }
        }
      },
      grain);
  // The fp32 output row follows the chunk rows in the workspace.
  float* const out = partial + chunks * static_cast<std::size_t>(out_);
  std::memcpy(out, bias_.data(),
              static_cast<std::size_t>(out_) * sizeof(float));
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    const float* acc = partial + chunk * static_cast<std::size_t>(out_);
    for (std::int64_t o = 0; o < out_; ++o) out[o] += acc[o];
  }
  if (fused_) eltwise_row(out, out_, slope_);
  bf16_from_f32(out, dst, static_cast<std::size_t>(out_));
}

void Dense::pack_weights_bf16(std::span<bf16_t> segment) const {
#if CF_BF16_DP
  const std::size_t wn = static_cast<std::size_t>(in_ * out_);
  if (segment.size() != wn + static_cast<std::size_t>(out_)) {
    throw std::logic_error("Dense::pack_weights_bf16: bad segment size");
  }
  // Condition mirrors forward_bf16's `packed` check: in_ % 32 keeps
  // chunk boundaries even, out_ % 16 keeps rows whole. Layers that
  // fail it (e.g. a narrow head) keep the plain {I, O} image for the
  // widen path.
  if (in_ % 32 != 0 || out_ % kB != 0) return;
  std::vector<bf16_t> plain(segment.begin(), segment.begin() + wn);
  bf16_t* dst = segment.data();
  const std::size_t o_count = static_cast<std::size_t>(out_);
  // {I, O} → {I/2, O, 2}: the pair (w[2p][o], w[2p+1][o]) lands in one
  // 32-bit lane for vdpbf16ps against a broadcast source pair.
  for (std::size_t p = 0; p < static_cast<std::size_t>(in_) / 2; ++p) {
    for (std::size_t o = 0; o < o_count; ++o) {
      dst[(p * o_count + o) * 2 + 0] = plain[(2 * p + 0) * o_count + o];
      dst[(p * o_count + o) * 2 + 1] = plain[(2 * p + 1) * o_count + o];
    }
  }
#else
  static_cast<void>(segment);  // widen/scalar tiers read the plain image
#endif
}

// --- AvgPool3d --------------------------------------------------------

void AvgPool3d::forward_bf16(const bf16_t* src, bf16_t* dst,
                             std::span<const bf16_t> params,
                             LayerExecState& exec,
                             runtime::ThreadPool& pool) const {
  static_cast<void>(params);  // parameterless
  const std::int64_t k = config_.kernel;
  const std::int64_t s = config_.stride;
  const float inv = 1.0f / static_cast<float>(k * k * k);
  pool.parallel_for(
      static_cast<std::size_t>(cb_ * out_d_),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t cb = static_cast<std::int64_t>(job) / out_d_;
          const std::int64_t od = static_cast<std::int64_t>(job) % out_d_;
          for (std::int64_t oh = 0; oh < out_h_; ++oh) {
            bf16_t* drow =
                dst + (((cb * out_d_ + od) * out_h_ + oh) * out_w_) * kB;
            for (std::int64_t ow = 0; ow < out_w_; ++ow) {
#if defined(__AVX512F__)
              __m512 acc = _mm512_setzero_ps();
              for (std::int64_t kd = 0; kd < k; ++kd) {
                for (std::int64_t kh = 0; kh < k; ++kh) {
                  const bf16_t* srow =
                      src +
                      (((cb * in_d_ + od * s + kd) * in_h_ + oh * s + kh) *
                           in_w_ +
                       ow * s) *
                          kB;
                  for (std::int64_t kw = 0; kw < k; ++kw) {
                    acc = _mm512_add_ps(acc, bf16_load_16(srow + kw * kB));
                  }
                }
              }
              bf16_store_16(drow + ow * kB,
                            _mm512_mul_ps(acc, _mm512_set1_ps(inv)));
#else
              float acc[kB] = {};
              for (std::int64_t kd = 0; kd < k; ++kd) {
                for (std::int64_t kh = 0; kh < k; ++kh) {
                  const bf16_t* srow =
                      src +
                      (((cb * in_d_ + od * s + kd) * in_h_ + oh * s + kh) *
                           in_w_ +
                       ow * s) *
                          kB;
                  for (std::int64_t kw = 0; kw < k; ++kw) {
                    const bf16_t* v = srow + kw * kB;
                    for (int c = 0; c < kB; ++c) {
                      acc[c] += bf16_to_float(v[c]);
                    }
                  }
                }
              }
              bf16_t* d = drow + ow * kB;
              for (int c = 0; c < kB; ++c) {
                d[c] = float_to_bf16(acc[c] * inv);
              }
#endif
            }
          }
        }
      },
      exec.intraop_grain);
}

// --- Flatten ----------------------------------------------------------

void Flatten::forward_bf16(const bf16_t* src, bf16_t* dst,
                           std::span<const bf16_t> params,
                           LayerExecState& exec,
                           runtime::ThreadPool& pool) const {
  static_cast<void>(params);  // parameterless
  const std::int64_t spatial = d_ * h_ * w_;
  const std::size_t grain = std::max<std::size_t>(
      channels_ * spatial <= 4096 ? static_cast<std::size_t>(channels_) : 1,
      exec.intraop_grain);
  pool.parallel_for(
      static_cast<std::size_t>(channels_),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t chi = begin; chi < end; ++chi) {
          const std::int64_t ch = static_cast<std::int64_t>(chi);
          const std::int64_t block = ch / kChannelBlock;
          const std::int64_t lane = ch % kChannelBlock;
          const bf16_t* s = src + block * spatial * kChannelBlock + lane;
          bf16_t* d = dst + ch * spatial;
          for (std::int64_t v = 0; v < spatial; ++v) {
            d[v] = s[v * kChannelBlock];
          }
        }
      },
      grain);
}

// --- LeakyRelu --------------------------------------------------------

void LeakyRelu::forward_bf16(const bf16_t* src, bf16_t* dst,
                             std::span<const bf16_t> params,
                             LayerExecState& exec,
                             runtime::ThreadPool& pool) const {
  static_cast<void>(params);  // parameterless
  static_cast<void>(exec);    // no workspace, no grain
  const std::size_t n =
      static_cast<std::size_t>(output_shape().numel());
  const float slope = slope_;
  pool.parallel_for(
      n,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::size_t i = begin;
#if defined(__AVX512F__)
        const __m512 sv = _mm512_set1_ps(slope);
        const __m512 zero = _mm512_setzero_ps();
        for (; i + kB <= end; i += kB) {
          const __m512 v = bf16_load_16(src + i);
          const __mmask16 pos =
              _mm512_cmp_ps_mask(v, zero, _CMP_GT_OQ);
          bf16_store_16(dst + i,
                        _mm512_mask_blend_ps(pos, _mm512_mul_ps(sv, v), v));
        }
#endif
        for (; i < end; ++i) {
          const float v = bf16_to_float(src[i]);
          dst[i] = float_to_bf16(v > 0.0f ? v : slope * v);
        }
      },
      /*grain=*/4096);
}

}  // namespace cf::dnn
