// Blocked 3D convolution engine (Algorithm 1 of the paper).
//
// Layout conventions (see tensor/layout.hpp):
//   src      {ICb, D, H, W, 16}   (or plain {IC, D, H, W} when IC < 16)
//   dst      {OCb, OD, OH, OW, 16}
//   weights  {OCb, ICb, K, K, K, 16ic, 16oc}
//            ({OCb, K, K, K, IC, 16oc} for the plain-source case)
//
// The source is copied once per step into a zero-padded staging
// workspace (owned by the stream's LayerExecState) so every inner loop
// is branch-free; the innermost (ow, ic, oc) loops operate on 16-float
// channel blocks that the compiler lowers to AVX-512 FMAs. Threading
// decomposes the output voxel space in the forward pass, the *input*
// voxel space in the backward-data pass (gather form over transposed
// weight tiles — each dsrc row is produced whole, with no zero-fill or
// scatter traffic), and (ocb, icb, kd) channel-block tiles in the
// backward-weights pass, as described in §III-C.
#include "dnn/conv3d.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "tensor/tensor_ops.hpp"

namespace cf::dnn {

using tensor::kChannelBlock;
using tensor::Shape;
using tensor::Tensor;

namespace {

constexpr std::int64_t kB = kChannelBlock;  // 16

/// dst[ow][oc] += sum_ic w[ic][oc] * src[ow*stride][ic] for a row of
/// `count` output positions; `w` is one 16x16 tile.
///
/// Algorithm 1 keeps many independent accumulator registers in flight
/// so the FMA chains are throughput- rather than latency-bound (the
/// paper blocks 28 output positions; 8 x 16-lane accumulators fill the
/// AVX-512 register file here, with the weight row shared by all of
/// them). The local accumulator arrays stay in registers once the
/// inner loops are unrolled.
constexpr std::int64_t kOwBlock = 8;

#if defined(__AVX512F__)

inline void micro_fwd_row(float* __restrict acc,
                          const float* __restrict src_row,
                          const float* __restrict w, std::int64_t count,
                          std::int64_t stride) {
  std::int64_t ow = 0;
  // 8 independent 16-lane accumulators keep the FMA pipes saturated;
  // one weight row is shared by all 8 output positions.
  for (; ow + kOwBlock <= count; ow += kOwBlock) {
    float* d = acc + ow * kB;
    const float* s = src_row + ow * stride * kB;
    __m512 a0 = _mm512_loadu_ps(d + 0 * kB);
    __m512 a1 = _mm512_loadu_ps(d + 1 * kB);
    __m512 a2 = _mm512_loadu_ps(d + 2 * kB);
    __m512 a3 = _mm512_loadu_ps(d + 3 * kB);
    __m512 a4 = _mm512_loadu_ps(d + 4 * kB);
    __m512 a5 = _mm512_loadu_ps(d + 5 * kB);
    __m512 a6 = _mm512_loadu_ps(d + 6 * kB);
    __m512 a7 = _mm512_loadu_ps(d + 7 * kB);
    const std::int64_t sstep = stride * kB;
    for (int ic = 0; ic < kB; ++ic) {
      const __m512 wv = _mm512_loadu_ps(w + ic * kB);
      a0 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[0 * sstep + ic]), a0);
      a1 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[1 * sstep + ic]), a1);
      a2 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[2 * sstep + ic]), a2);
      a3 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[3 * sstep + ic]), a3);
      a4 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[4 * sstep + ic]), a4);
      a5 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[5 * sstep + ic]), a5);
      a6 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[6 * sstep + ic]), a6);
      a7 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[7 * sstep + ic]), a7);
    }
    _mm512_storeu_ps(d + 0 * kB, a0);
    _mm512_storeu_ps(d + 1 * kB, a1);
    _mm512_storeu_ps(d + 2 * kB, a2);
    _mm512_storeu_ps(d + 3 * kB, a3);
    _mm512_storeu_ps(d + 4 * kB, a4);
    _mm512_storeu_ps(d + 5 * kB, a5);
    _mm512_storeu_ps(d + 6 * kB, a6);
    _mm512_storeu_ps(d + 7 * kB, a7);
  }
  for (; ow < count; ++ow) {
    const float* s = src_row + ow * stride * kB;
    float* d = acc + ow * kB;
    __m512 a = _mm512_loadu_ps(d);
    for (int ic = 0; ic < kB; ++ic) {
      a = _mm512_fmadd_ps(_mm512_loadu_ps(w + ic * kB),
                          _mm512_set1_ps(s[ic]), a);
    }
    _mm512_storeu_ps(d, a);
  }
}

/// acc[ic][oc] += src[ow*stride][ic] * ddst[ow][oc] outer products over
/// a row (backward-weights micro-kernel). The 16x16 accumulator tile
/// lives in 16 zmm registers across the whole row.
inline void micro_bww_row(float* __restrict acc,
                          const float* __restrict src_row,
                          const float* __restrict ddst_row,
                          std::int64_t count, std::int64_t stride) {
  __m512 a[kB];
  for (int ic = 0; ic < kB; ++ic) a[ic] = _mm512_loadu_ps(acc + ic * kB);
  for (std::int64_t ow = 0; ow < count; ++ow) {
    const float* s = src_row + ow * stride * kB;
    const __m512 dv = _mm512_loadu_ps(ddst_row + ow * kB);
    for (int ic = 0; ic < kB; ++ic) {
      a[ic] = _mm512_fmadd_ps(dv, _mm512_set1_ps(s[ic]), a[ic]);
    }
  }
  for (int ic = 0; ic < kB; ++ic) _mm512_storeu_ps(acc + ic * kB, a[ic]);
}

#else  // portable fallback

inline void micro_fwd_row(float* __restrict acc,
                          const float* __restrict src_row,
                          const float* __restrict w, std::int64_t count,
                          std::int64_t stride) {
  std::int64_t ow = 0;
  for (; ow + kOwBlock <= count; ow += kOwBlock) {
    float a[kOwBlock][kB];
    for (int j = 0; j < kOwBlock; ++j) {
      for (int oc = 0; oc < kB; ++oc) a[j][oc] = acc[(ow + j) * kB + oc];
    }
    const float* s = src_row + ow * stride * kB;
    for (int ic = 0; ic < kB; ++ic) {
      const float* wrow = w + ic * kB;
      for (int j = 0; j < kOwBlock; ++j) {
        const float sv = s[j * stride * kB + ic];
        for (int oc = 0; oc < kB; ++oc) a[j][oc] += wrow[oc] * sv;
      }
    }
    for (int j = 0; j < kOwBlock; ++j) {
      for (int oc = 0; oc < kB; ++oc) acc[(ow + j) * kB + oc] = a[j][oc];
    }
  }
  for (; ow < count; ++ow) {
    const float* s = src_row + ow * stride * kB;
    float a[kB];
    for (int oc = 0; oc < kB; ++oc) a[oc] = acc[ow * kB + oc];
    for (int ic = 0; ic < kB; ++ic) {
      const float sv = s[ic];
      const float* wrow = w + ic * kB;
      for (int oc = 0; oc < kB; ++oc) a[oc] += wrow[oc] * sv;
    }
    for (int oc = 0; oc < kB; ++oc) acc[ow * kB + oc] = a[oc];
  }
}

inline void micro_bww_row(float* __restrict acc,
                          const float* __restrict src_row,
                          const float* __restrict ddst_row,
                          std::int64_t count, std::int64_t stride) {
  float local[kB * kB];
  for (int i = 0; i < kB * kB; ++i) local[i] = acc[i];
  for (std::int64_t ow = 0; ow < count; ++ow) {
    const float* s = src_row + ow * stride * kB;
    const float* d = ddst_row + ow * kB;
    for (int ic = 0; ic < kB; ++ic) {
      const float sv = s[ic];
      float* arow = local + ic * kB;
      for (int oc = 0; oc < kB; ++oc) arow[oc] += d[oc] * sv;
    }
  }
  for (int i = 0; i < kB * kB; ++i) acc[i] = local[i];
}

#endif  // __AVX512F__

/// Fused-epilogue output write: dst[i] = lrelu(acc[i]). Same float ops
/// (compare, multiply) the standalone LeakyRelu would apply to the
/// memcpy'd values, so the fused output is bitwise identical.
inline void store_row_eltwise(float* __restrict dst,
                              const float* __restrict acc, std::int64_t n,
                              float slope) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = acc[i];
    dst[i] = v > 0.0f ? v : slope * v;
  }
}

/// In-place variant for kernels that write dst rows directly.
inline void apply_eltwise_row(float* __restrict row, std::int64_t n,
                              float slope) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = row[i];
    row[i] = v > 0.0f ? v : slope * v;
  }
}

/// acc[ow*astride][ic] += sum_oc wt[oc][ic] * ddst[ow][oc] — the
/// backward-data micro-kernel in *gather* form: micro_fwd_row with the
/// src/dst roles swapped. `wt` is one transposed 16oc x 16ic weight
/// tile, ddst is read at unit (16-float) stride and the accumulator row
/// — a local, zero-initialized copy of one unpadded dsrc row — is
/// addressed at `astride` = conv stride. Because each dsrc row is
/// produced whole by a single task, there is no zero-fill pass over a
/// padded volume, no scatter read-modify-write traffic, and no
/// interior copy-out.
#if defined(__AVX512F__)

inline void micro_bwd_gather_row(float* __restrict acc,
                                 const float* __restrict ddst_row,
                                 const float* __restrict wt,
                                 std::int64_t count, std::int64_t astride) {
  std::int64_t ow = 0;
  const std::int64_t astep = astride * kB;
  for (; ow + kOwBlock <= count; ow += kOwBlock) {
    float* a = acc + ow * astep;
    const float* d = ddst_row + ow * kB;
    __m512 a0 = _mm512_loadu_ps(a + 0 * astep);
    __m512 a1 = _mm512_loadu_ps(a + 1 * astep);
    __m512 a2 = _mm512_loadu_ps(a + 2 * astep);
    __m512 a3 = _mm512_loadu_ps(a + 3 * astep);
    __m512 a4 = _mm512_loadu_ps(a + 4 * astep);
    __m512 a5 = _mm512_loadu_ps(a + 5 * astep);
    __m512 a6 = _mm512_loadu_ps(a + 6 * astep);
    __m512 a7 = _mm512_loadu_ps(a + 7 * astep);
    for (int oc = 0; oc < kB; ++oc) {
      const __m512 wv = _mm512_loadu_ps(wt + oc * kB);
      a0 = _mm512_fmadd_ps(wv, _mm512_set1_ps(d[0 * kB + oc]), a0);
      a1 = _mm512_fmadd_ps(wv, _mm512_set1_ps(d[1 * kB + oc]), a1);
      a2 = _mm512_fmadd_ps(wv, _mm512_set1_ps(d[2 * kB + oc]), a2);
      a3 = _mm512_fmadd_ps(wv, _mm512_set1_ps(d[3 * kB + oc]), a3);
      a4 = _mm512_fmadd_ps(wv, _mm512_set1_ps(d[4 * kB + oc]), a4);
      a5 = _mm512_fmadd_ps(wv, _mm512_set1_ps(d[5 * kB + oc]), a5);
      a6 = _mm512_fmadd_ps(wv, _mm512_set1_ps(d[6 * kB + oc]), a6);
      a7 = _mm512_fmadd_ps(wv, _mm512_set1_ps(d[7 * kB + oc]), a7);
    }
    _mm512_storeu_ps(a + 0 * astep, a0);
    _mm512_storeu_ps(a + 1 * astep, a1);
    _mm512_storeu_ps(a + 2 * astep, a2);
    _mm512_storeu_ps(a + 3 * astep, a3);
    _mm512_storeu_ps(a + 4 * astep, a4);
    _mm512_storeu_ps(a + 5 * astep, a5);
    _mm512_storeu_ps(a + 6 * astep, a6);
    _mm512_storeu_ps(a + 7 * astep, a7);
  }
  for (; ow < count; ++ow) {
    const float* d = ddst_row + ow * kB;
    float* a = acc + ow * astep;
    __m512 av = _mm512_loadu_ps(a);
    for (int oc = 0; oc < kB; ++oc) {
      av = _mm512_fmadd_ps(_mm512_loadu_ps(wt + oc * kB),
                           _mm512_set1_ps(d[oc]), av);
    }
    _mm512_storeu_ps(a, av);
  }
}

#else  // portable fallback

inline void micro_bwd_gather_row(float* __restrict acc,
                                 const float* __restrict ddst_row,
                                 const float* __restrict wt,
                                 std::int64_t count, std::int64_t astride) {
  const std::int64_t astep = astride * kB;
  std::int64_t ow = 0;
  for (; ow + kOwBlock <= count; ow += kOwBlock) {
    float a[kOwBlock][kB];
    for (int j = 0; j < kOwBlock; ++j) {
      for (int ic = 0; ic < kB; ++ic) a[j][ic] = acc[(ow + j) * astep + ic];
    }
    const float* d = ddst_row + ow * kB;
    for (int oc = 0; oc < kB; ++oc) {
      const float* wrow = wt + oc * kB;
      for (int j = 0; j < kOwBlock; ++j) {
        const float dv = d[j * kB + oc];
        for (int ic = 0; ic < kB; ++ic) a[j][ic] += wrow[ic] * dv;
      }
    }
    for (int j = 0; j < kOwBlock; ++j) {
      for (int ic = 0; ic < kB; ++ic) acc[(ow + j) * astep + ic] = a[j][ic];
    }
  }
  for (; ow < count; ++ow) {
    const float* d = ddst_row + ow * kB;
    float a[kB];
    for (int ic = 0; ic < kB; ++ic) a[ic] = acc[ow * astep + ic];
    for (int oc = 0; oc < kB; ++oc) {
      const float dv = d[oc];
      const float* wrow = wt + oc * kB;
      for (int ic = 0; ic < kB; ++ic) a[ic] += wrow[ic] * dv;
    }
    for (int ic = 0; ic < kB; ++ic) acc[ow * astep + ic] = a[ic];
  }
}

#endif  // __AVX512F__

}  // namespace

Conv3d::Conv3d(std::string name, Conv3dConfig config)
    : Layer(std::move(name)), config_(config) {
  if (config_.in_channels <= 0 || config_.out_channels <= 0) {
    throw std::invalid_argument("Conv3d: channel counts must be positive");
  }
  if (config_.out_channels % kB != 0) {
    throw std::invalid_argument(
        "Conv3d: out_channels must be a multiple of 16 (blocked engine); "
        "the CosmoFlow topology keeps all channel counts multiples of 16");
  }
  if (config_.in_channels >= kB && config_.in_channels % kB != 0) {
    throw std::invalid_argument(
        "Conv3d: in_channels must be < 16 or a multiple of 16");
  }
  if (config_.kernel <= 0 || config_.stride <= 0) {
    throw std::invalid_argument("Conv3d: bad kernel/stride");
  }
  plain_input_ = config_.in_channels < kB;
}

Shape Conv3d::plan(const Shape& input) {
  const std::int64_t k = config_.kernel;
  if (plain_input_) {
    if (input.rank() != 4 || input[0] != config_.in_channels) {
      throw std::invalid_argument("Conv3d::plan: expected plain {IC,D,H,W}, "
                                  "got " + input.to_string());
    }
    in_d_ = input[1];
    in_h_ = input[2];
    in_w_ = input[3];
  } else {
    if (input.rank() != 5 || input[4] != kB ||
        input[0] != config_.in_channels / kB) {
      throw std::invalid_argument(
          "Conv3d::plan: expected blocked {ICb,D,H,W,16}, got " +
          input.to_string());
    }
    in_d_ = input[1];
    in_h_ = input[2];
    in_w_ = input[3];
  }

  pad_d_ = resolve_pad(config_.padding, in_d_, k, config_.stride);
  pad_h_ = resolve_pad(config_.padding, in_h_, k, config_.stride);
  pad_w_ = resolve_pad(config_.padding, in_w_, k, config_.stride);
  out_d_ = tensor::conv_out_dim(in_d_, k, config_.stride, pad_d_.total());
  out_h_ = tensor::conv_out_dim(in_h_, k, config_.stride, pad_h_.total());
  out_w_ = tensor::conv_out_dim(in_w_, k, config_.stride, pad_w_.total());
  pd_ = in_d_ + pad_d_.total();
  ph_ = in_h_ + pad_h_.total();
  pw_ = in_w_ + pad_w_.total();

  const std::int64_t ocb = config_.out_channels / kB;
  if (plain_input_) {
    weights_ = Tensor(Shape{ocb, k, k, k, config_.in_channels, kB});
  } else {
    weights_ =
        Tensor(Shape{ocb, config_.in_channels / kB, k, k, k, kB, kB});
  }
  bias_ = Tensor(Shape{config_.out_channels});

  const Shape out{ocb, out_d_, out_h_, out_w_, kB};
  set_shapes(input, out);
  return out;
}

std::vector<ParamSpec> Conv3d::param_specs() {
  return {{name() + ".weights", &weights_},
          {name() + ".bias", &bias_}};
}

FlopCounts Conv3d::flops() const {
  const std::int64_t k3 =
      config_.kernel * config_.kernel * config_.kernel;
  const std::int64_t per_pass = 2 * out_d_ * out_h_ * out_w_ *
                                config_.out_channels * config_.in_channels *
                                k3;
  FlopCounts counts;
  counts.fwd = per_pass;
  counts.bwd_data = per_pass;
  counts.bwd_weights = per_pass;
  if (fused_) {
    // The absorbed LeakyReLU: one op per output element in the forward
    // epilogue and one in the backward-entry mask.
    const std::int64_t out_numel =
        config_.out_channels * out_d_ * out_h_ * out_w_;
    counts.fwd += out_numel;
    counts.bwd_weights += out_numel;
  }
  return counts;
}

bool Conv3d::fuse_leaky_relu(float slope) {
  // The sign trick behind the fused backward mask needs slope in
  // [0, 1); LeakyRelu's constructor enforces the same domain.
  if (slope < 0.0f || slope >= 1.0f) return false;
  fused_ = true;
  slope_ = slope;
  return true;
}

void Conv3d::init_he(runtime::Rng& rng) {
  const std::int64_t fan_in =
      config_.in_channels * config_.kernel * config_.kernel * config_.kernel;
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  Tensor plain(Shape{config_.out_channels, config_.in_channels,
                     config_.kernel, config_.kernel, config_.kernel});
  tensor::fill_normal(plain, rng, 0.0f, stddev);
  Tensor bias(Shape{config_.out_channels});
  set_plain_weights(plain, bias);
}

void Conv3d::set_plain_weights(const Tensor& weights, const Tensor& bias) {
  const Shape expected{config_.out_channels, config_.in_channels,
                       config_.kernel, config_.kernel, config_.kernel};
  if (weights.shape() != expected) {
    throw std::invalid_argument("Conv3d::set_plain_weights: bad shape " +
                                weights.shape().to_string());
  }
  if (bias.shape() != Shape{config_.out_channels}) {
    throw std::invalid_argument("Conv3d::set_plain_weights: bad bias shape");
  }
  Tensor blocked = plain_input_ ? tensor::to_blocked_weights_small_ic(weights)
                                : tensor::to_blocked_weights(weights);
  if (weights_.empty()) {
    weights_ = std::move(blocked);
  } else {
    // Write through the existing tensor: after Network::finalize() it
    // is a view into the parameter arena and must stay bound there.
    std::memcpy(weights_.data(), blocked.data(),
                blocked.size() * sizeof(float));
  }
  std::memcpy(bias_.data(), bias.data(),
              static_cast<std::size_t>(bias.size()) * sizeof(float));
}

Tensor Conv3d::to_plain_weights(const Tensor& blocked) const {
  return plain_input_
             ? tensor::from_blocked_weights_small_ic(
                   blocked, config_.out_channels, config_.in_channels)
             : tensor::from_blocked_weights(blocked, config_.out_channels,
                                            config_.in_channels);
}

std::size_t Conv3d::forward_workspace_floats() const {
  const std::int64_t planes = plain_input_
                                  ? config_.in_channels
                                  : (config_.in_channels / kB) * kB;
  return static_cast<std::size_t>(planes * pd_ * ph_ * pw_);
}

std::size_t Conv3d::backward_scratch_floats() const {
  // The blocked gather path transposes every weight tile; the plain
  // first-layer path uses the reference kernel and needs none.
  return plain_input_ ? 0 : weights_.size();
}

namespace {

/// Copies a blocked activation into its zero-padded staging workspace.
/// The border is assumed zero on entry (see Conv3d::stage_padded_src)
/// and interior rows are fully overwritten each call.
void copy_padded_blocked(const Tensor& src, float* padded, const PadSpec& pd,
                         const PadSpec& ph, const PadSpec& pw,
                         std::int64_t hp, std::int64_t wp,
                         runtime::ThreadPool& pool, std::size_t grain) {
  const std::int64_t cb = src.shape()[0];
  const std::int64_t d = src.shape()[1];
  const std::int64_t h = src.shape()[2];
  const std::int64_t w = src.shape()[3];

  pool.parallel_for(
      static_cast<std::size_t>(cb * d),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t c = static_cast<std::int64_t>(job) / d;
          const std::int64_t dd = static_cast<std::int64_t>(job) % d;
          for (std::int64_t hh = 0; hh < h; ++hh) {
            const float* s =
                src.data() + (((c * d + dd) * h + hh) * w) * kB;
            float* t = padded +
                       (((c * (d + pd.total()) + dd + pd.lo) * hp + hh +
                         ph.lo) *
                            wp +
                        pw.lo) *
                           kB;
            std::memcpy(t, s, static_cast<std::size_t>(w) * kB *
                                  sizeof(float));
          }
        }
      },
      grain);
}

/// Plain-layout variant for the first layer.
void copy_padded_plain(const Tensor& src, float* padded, const PadSpec& pd,
                       const PadSpec& ph, const PadSpec& pw, std::int64_t hp,
                       std::int64_t wp, runtime::ThreadPool& pool,
                       std::size_t grain) {
  const std::int64_t c = src.shape()[0];
  const std::int64_t d = src.shape()[1];
  const std::int64_t h = src.shape()[2];
  const std::int64_t w = src.shape()[3];

  pool.parallel_for(
      static_cast<std::size_t>(c * d),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t cc = static_cast<std::int64_t>(job) / d;
          const std::int64_t dd = static_cast<std::int64_t>(job) % d;
          for (std::int64_t hh = 0; hh < h; ++hh) {
            const float* s = src.data() + ((cc * d + dd) * h + hh) * w;
            float* t = padded +
                       ((cc * (d + pd.total()) + dd + pd.lo) * hp + hh +
                        ph.lo) *
                           wp +
                       pw.lo;
            std::memcpy(t, s,
                        static_cast<std::size_t>(w) * sizeof(float));
          }
        }
      },
      grain);
}

}  // namespace

void Conv3d::stage_padded_src(const Tensor& src, LayerExecState& exec,
                              runtime::ThreadPool& pool) const {
  const std::size_t need = forward_workspace_floats();
  if (exec.workspace.size() < need) {
    throw std::logic_error("Conv3d: workspace smaller than "
                           "forward_workspace_floats()");
  }
  if (exec.workspace_shared) {
    // Another layer may have scribbled over this region since the last
    // call; re-establish the zero border. A private region was zeroed
    // once at context creation and only ever rewritten in the interior,
    // so it skips this (the padding values are zeros either way — the
    // kernels see identical bits).
    std::memset(exec.workspace.data(), 0, need * sizeof(float));
  }
  if (plain_input_) {
    copy_padded_plain(src, exec.workspace.data(), pad_d_, pad_h_, pad_w_,
                      ph_, pw_, pool, exec.intraop_grain);
  } else {
    copy_padded_blocked(src, exec.workspace.data(), pad_d_, pad_h_, pad_w_,
                        ph_, pw_, pool, exec.intraop_grain);
  }
}

void Conv3d::forward(const Tensor& src, Tensor& dst, LayerExecState& exec,
                     runtime::ThreadPool& pool) const {
  if (src.shape() != input_shape() || dst.shape() != output_shape()) {
    throw std::invalid_argument("Conv3d::forward: shape mismatch");
  }
  stage_padded_src(src, exec, pool);
  if (plain_input_) {
    forward_plain_src(src, dst, exec.workspace.data(), pool,
                      exec.intraop_grain);
  } else {
    forward_blocked(src, dst, exec.workspace.data(), pool,
                    exec.intraop_grain);
  }
}

void Conv3d::backward_weights(const Tensor& src, const Tensor& dst,
                              Tensor& ddst, LayerExecState& exec,
                              runtime::ThreadPool& pool) const {
  if (src.shape() != input_shape() || ddst.shape() != output_shape()) {
    throw std::invalid_argument("Conv3d::backward_weights: shape mismatch");
  }
  if (exec.grads.size() != 2) {
    throw std::logic_error(
        "Conv3d::backward_weights: exec state has no grads");
  }
  if (fused_) {
    if (dst.shape() != output_shape()) {
      throw std::invalid_argument(
          "Conv3d::backward_weights: dst shape mismatch");
    }
    // One sweep masks ddst with the LeakyReLU derivative *in place*
    // (ddst is consumed — Layer contract) and accumulates the bias
    // gradient from the already-masked values.
    mask_bias_grad_pass(dst, ddst, exec.grads[1], pool, exec.intraop_grain);
  } else {
    bias_grad_pass(ddst, exec.grads[1], pool, exec.intraop_grain);
  }
  // The padded source copy in the stream's workspace is still valid
  // from this stream's forward().
  if (plain_input_) {
    backward_weights_plain_src(ddst, exec.workspace.data(), exec.grads[0],
                               pool, exec.intraop_grain);
  } else {
    backward_weights_blocked(ddst, exec.workspace.data(), exec.grads[0],
                             pool, exec.intraop_grain);
  }
}

void Conv3d::backward_data(const Tensor& /*src*/, const Tensor& /*dst*/,
                           const Tensor& ddst, Tensor& dsrc,
                           LayerExecState& exec,
                           runtime::ThreadPool& pool) const {
  if (ddst.shape() != output_shape() || dsrc.shape() != input_shape()) {
    throw std::invalid_argument("Conv3d::backward_data: shape mismatch");
  }
  if (plain_input_) {
    backward_data_plain_src(ddst, dsrc, pool);
  } else {
    backward_data_blocked(ddst, dsrc, exec.scratch, pool,
                          exec.intraop_grain);
  }
}

void Conv3d::bias_grad_pass(const Tensor& ddst, Tensor& bias_grad,
                            runtime::ThreadPool& pool,
                            std::size_t grain) const {
  const std::int64_t ocb_count = config_.out_channels / kB;
  const std::int64_t voxels = out_d_ * out_h_ * out_w_;
  pool.parallel_for(
      static_cast<std::size_t>(ocb_count),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t ocb = begin; ocb < end; ++ocb) {
          double acc[kB] = {};
          const float* base =
              ddst.data() +
              static_cast<std::int64_t>(ocb) * voxels * kB;
          for (std::int64_t v = 0; v < voxels; ++v) {
            for (int oc = 0; oc < kB; ++oc) acc[oc] += base[v * kB + oc];
          }
          float* bg = bias_grad.data() + ocb * kB;
          for (int oc = 0; oc < kB; ++oc) {
            bg[oc] += static_cast<float>(acc[oc]);
          }
        }
      },
      grain);
}

void Conv3d::mask_bias_grad_pass(const Tensor& dst, Tensor& ddst,
                                 Tensor& bias_grad,
                                 runtime::ThreadPool& pool,
                                 std::size_t grain) const {
  const std::int64_t ocb_count = config_.out_channels / kB;
  const std::int64_t voxels = out_d_ * out_h_ * out_w_;
  const float slope = slope_;
  pool.parallel_for(
      static_cast<std::size_t>(ocb_count),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t ocb = begin; ocb < end; ++ocb) {
          const std::int64_t off =
              static_cast<std::int64_t>(ocb) * voxels * kB;
          const float* y = dst.data() + off;
          float* md = ddst.data() + off;
          double acc[kB] = {};
          for (std::int64_t v = 0; v < voxels; ++v) {
            for (int oc = 0; oc < kB; ++oc) {
              const std::int64_t i = v * kB + oc;
              const float m = y[i] > 0.0f ? md[i] : slope * md[i];
              md[i] = m;
              acc[oc] += m;
            }
          }
          float* bg = bias_grad.data() + ocb * kB;
          for (int oc = 0; oc < kB; ++oc) {
            bg[oc] += static_cast<float>(acc[oc]);
          }
        }
      },
      grain);
}

void Conv3d::forward_blocked(const Tensor& /*src*/, Tensor& dst,
                             const float* padded,
                             runtime::ThreadPool& pool,
                             std::size_t grain) const {
  const std::int64_t icb_count = config_.in_channels / kB;
  const std::int64_t ocb_count = config_.out_channels / kB;
  const std::int64_t k = config_.kernel;
  const std::int64_t stride = config_.stride;
  const std::int64_t dp = pd_;
  const std::int64_t hp = ph_;
  const std::int64_t wp = pw_;

  // Thread decomposition over the output voxel space: one task per
  // (ocb, od) slab.
  pool.parallel_for(
      static_cast<std::size_t>(ocb_count * out_d_),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<float> acc(static_cast<std::size_t>(out_w_) * kB);
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t ocb = static_cast<std::int64_t>(job) / out_d_;
          const std::int64_t od = static_cast<std::int64_t>(job) % out_d_;
          for (std::int64_t oh = 0; oh < out_h_; ++oh) {
            // Bias-initialize the accumulator row.
            const float* b = bias_.data() + ocb * kB;
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
                  const float* wtile =
                      weights_.data() +
                      ((((ocb * icb_count + icb) * k + kd) * k + kh) * k) *
                          kB * kB;
                  for (std::int64_t kw = 0; kw < k; ++kw) {
                    micro_fwd_row(acc.data(), srow + kw * kB,
                                  wtile + kw * kB * kB, out_w_, stride);
                  }
                }
              }
            }
            float* drow = dst.data() +
                          (((ocb * out_d_ + od) * out_h_ + oh) * out_w_) *
                              kB;
            if (fused_) {
              store_row_eltwise(drow, acc.data(), out_w_ * kB, slope_);
            } else {
              std::memcpy(drow, acc.data(),
                          static_cast<std::size_t>(out_w_) * kB *
                              sizeof(float));
            }
          }
        }
      },
      grain);
}

#if defined(__AVX512F__)

/// First-layer (IC == 1) forward fast path: 8 x 16-lane accumulator
/// registers per output-row block, held across the whole kernel
/// window. `splane` is the padded single-channel source plane at
/// (id, ih), `wtap` the {K, 16oc} weight rows for this (kd, kh).
inline void micro_fwd_row_ic1(float* __restrict dst_row,
                              const float* __restrict bias16,
                              const float* const* splanes,
                              const float* const* wtaps, std::int64_t taps,
                              std::int64_t kernel_w, std::int64_t count,
                              std::int64_t stride) {
  std::int64_t ow = 0;
  for (; ow + kOwBlock <= count; ow += kOwBlock) {
    const __m512 b = _mm512_loadu_ps(bias16);
    __m512 a0 = b, a1 = b, a2 = b, a3 = b, a4 = b, a5 = b, a6 = b, a7 = b;
    for (std::int64_t tap = 0; tap < taps; ++tap) {
      const float* s = splanes[tap] + ow * stride;
      const float* w = wtaps[tap];
      for (std::int64_t kw = 0; kw < kernel_w; ++kw) {
        const __m512 wv = _mm512_loadu_ps(w + kw * kB);
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
    float* d = dst_row + ow * kB;
    _mm512_storeu_ps(d + 0 * kB, a0);
    _mm512_storeu_ps(d + 1 * kB, a1);
    _mm512_storeu_ps(d + 2 * kB, a2);
    _mm512_storeu_ps(d + 3 * kB, a3);
    _mm512_storeu_ps(d + 4 * kB, a4);
    _mm512_storeu_ps(d + 5 * kB, a5);
    _mm512_storeu_ps(d + 6 * kB, a6);
    _mm512_storeu_ps(d + 7 * kB, a7);
  }
  for (; ow < count; ++ow) {
    __m512 a = _mm512_loadu_ps(bias16);
    for (std::int64_t tap = 0; tap < taps; ++tap) {
      const float* s = splanes[tap] + ow * stride;
      const float* w = wtaps[tap];
      for (std::int64_t kw = 0; kw < kernel_w; ++kw) {
        a = _mm512_fmadd_ps(_mm512_loadu_ps(w + kw * kB),
                            _mm512_set1_ps(s[kw]), a);
      }
    }
    _mm512_storeu_ps(dst_row + ow * kB, a);
  }
}

#endif  // __AVX512F__

void Conv3d::forward_plain_src(const Tensor& /*src*/, Tensor& dst,
                               const float* padded,
                               runtime::ThreadPool& pool,
                               std::size_t grain) const {
  const std::int64_t ic_count = config_.in_channels;
  const std::int64_t ocb_count = config_.out_channels / kB;
  const std::int64_t k = config_.kernel;
  const std::int64_t stride = config_.stride;
  const std::int64_t dp = pd_;
  const std::int64_t hp = ph_;
  const std::int64_t wp = pw_;

#if defined(__AVX512F__)
  if (ic_count == 1) {
    // Dedicated first-layer kernel: register accumulators across the
    // whole window, writing output rows directly.
    pool.parallel_for(
        static_cast<std::size_t>(ocb_count * out_d_),
        [&](std::size_t begin, std::size_t end, std::size_t) {
          std::vector<const float*> splanes(static_cast<std::size_t>(k * k));
          std::vector<const float*> wtaps(static_cast<std::size_t>(k * k));
          for (std::size_t job = begin; job < end; ++job) {
            const std::int64_t ocb =
                static_cast<std::int64_t>(job) / out_d_;
            const std::int64_t od = static_cast<std::int64_t>(job) % out_d_;
            for (std::int64_t oh = 0; oh < out_h_; ++oh) {
              std::int64_t tap = 0;
              for (std::int64_t kd = 0; kd < k; ++kd) {
                const std::int64_t id = od * stride + kd;
                for (std::int64_t kh = 0; kh < k; ++kh, ++tap) {
                  const std::int64_t ih = oh * stride + kh;
                  splanes[static_cast<std::size_t>(tap)] =
                      padded + (id * hp + ih) * wp;
                  wtaps[static_cast<std::size_t>(tap)] =
                      weights_.data() +
                      (((ocb * k + kd) * k + kh) * k) * kB;
                }
              }
              float* drow =
                  dst.data() +
                  (((ocb * out_d_ + od) * out_h_ + oh) * out_w_) * kB;
              micro_fwd_row_ic1(drow, bias_.data() + ocb * kB,
                                splanes.data(), wtaps.data(), k * k, k,
                                out_w_, stride);
              // Post-op over the still-cache-hot row.
              if (fused_) apply_eltwise_row(drow, out_w_ * kB, slope_);
            }
          }
        },
        grain);
    return;
  }
#endif  // __AVX512F__

  pool.parallel_for(
      static_cast<std::size_t>(ocb_count * out_d_),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<float> acc(static_cast<std::size_t>(out_w_) * kB);
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t ocb = static_cast<std::int64_t>(job) / out_d_;
          const std::int64_t od = static_cast<std::int64_t>(job) % out_d_;
          for (std::int64_t oh = 0; oh < out_h_; ++oh) {
            const float* b = bias_.data() + ocb * kB;
            for (std::int64_t ow = 0; ow < out_w_; ++ow) {
              std::memcpy(acc.data() + ow * kB, b, kB * sizeof(float));
            }
            for (std::int64_t kd = 0; kd < k; ++kd) {
              const std::int64_t id = od * stride + kd;
              for (std::int64_t kh = 0; kh < k; ++kh) {
                const std::int64_t ih = oh * stride + kh;
                for (std::int64_t kw = 0; kw < k; ++kw) {
                  const float* wtile =
                      weights_.data() +
                      ((((ocb * k + kd) * k + kh) * k + kw) * ic_count) *
                          kB;
                  for (std::int64_t ic = 0; ic < ic_count; ++ic) {
                    const float* splane =
                        padded + ((ic * dp + id) * hp + ih) * wp + kw;
                    const float* wrow = wtile + ic * kB;
                    for (std::int64_t ow = 0; ow < out_w_; ++ow) {
                      const float sv = splane[ow * stride];
                      float* d = acc.data() + ow * kB;
                      for (int oc = 0; oc < kB; ++oc) {
                        d[oc] += wrow[oc] * sv;
                      }
                    }
                  }
                }
              }
            }
            float* drow = dst.data() +
                          (((ocb * out_d_ + od) * out_h_ + oh) * out_w_) *
                              kB;
            if (fused_) {
              store_row_eltwise(drow, acc.data(), out_w_ * kB, slope_);
            } else {
              std::memcpy(drow, acc.data(),
                          static_cast<std::size_t>(out_w_) * kB *
                              sizeof(float));
            }
          }
        }
      },
      grain);
}

void Conv3d::backward_weights_blocked(const Tensor& ddst,
                                      const float* padded,
                                      Tensor& weight_grad,
                                      runtime::ThreadPool& pool,
                                      std::size_t grain) const {
  const std::int64_t icb_count = config_.in_channels / kB;
  const std::int64_t ocb_count = config_.out_channels / kB;
  const std::int64_t k = config_.kernel;
  const std::int64_t stride = config_.stride;
  const std::int64_t dp = pd_;
  const std::int64_t hp = ph_;
  const std::int64_t wp = pw_;

  // Weight gradient: teams over (ocb, icb, kd) tiles — disjoint writes,
  // no reduction needed when there are enough channel blocks (the
  // "skip the reduction entirely" case of §III-C).
  pool.parallel_for(
      static_cast<std::size_t>(ocb_count * icb_count * k),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<float> acc(kB * kB);
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t kd = static_cast<std::int64_t>(job) % k;
          const std::int64_t pair = static_cast<std::int64_t>(job) / k;
          const std::int64_t icb = pair % icb_count;
          const std::int64_t ocb = pair / icb_count;
          for (std::int64_t kh = 0; kh < k; ++kh) {
            for (std::int64_t kw = 0; kw < k; ++kw) {
              std::fill(acc.begin(), acc.end(), 0.0f);
              for (std::int64_t od = 0; od < out_d_; ++od) {
                const std::int64_t id = od * stride + kd;
                for (std::int64_t oh = 0; oh < out_h_; ++oh) {
                  const std::int64_t ih = oh * stride + kh;
                  const float* drow =
                      ddst.data() +
                      (((ocb * out_d_ + od) * out_h_ + oh) * out_w_) * kB;
                  const float* srow =
                      padded + (((icb * dp + id) * hp + ih) * wp + kw) * kB;
                  micro_bww_row(acc.data(), srow, drow, out_w_, stride);
                }
              }
              float* wtile =
                  weight_grad.data() +
                  ((((ocb * icb_count + icb) * k + kd) * k + kh) * k + kw) *
                      kB * kB;
              for (std::int64_t i = 0; i < kB * kB; ++i) {
                wtile[i] += acc[static_cast<std::size_t>(i)];
              }
            }
          }
        }
      },
      grain);
}

void Conv3d::backward_weights_plain_src(const Tensor& ddst,
                                        const float* padded,
                                        Tensor& weight_grad,
                                        runtime::ThreadPool& pool,
                                        std::size_t grain) const {
  const std::int64_t ic_count = config_.in_channels;
  const std::int64_t ocb_count = config_.out_channels / kB;
  const std::int64_t k = config_.kernel;
  const std::int64_t stride = config_.stride;
  const std::int64_t dp = pd_;
  const std::int64_t hp = ph_;
  const std::int64_t wp = pw_;

  pool.parallel_for(
      static_cast<std::size_t>(ocb_count * k),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<float> acc(static_cast<std::size_t>(ic_count) * kB);
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t kd = static_cast<std::int64_t>(job) % k;
          const std::int64_t ocb = static_cast<std::int64_t>(job) / k;
          for (std::int64_t kh = 0; kh < k; ++kh) {
            for (std::int64_t kw = 0; kw < k; ++kw) {
#if defined(__AVX512F__)
              if (ic_count == 1) {
                // Eight independent accumulator chains over the output
                // row hide the FMA latency.
                __m512 a0 = _mm512_setzero_ps();
                __m512 a1 = _mm512_setzero_ps();
                __m512 a2 = _mm512_setzero_ps();
                __m512 a3 = _mm512_setzero_ps();
                __m512 a4 = _mm512_setzero_ps();
                __m512 a5 = _mm512_setzero_ps();
                __m512 a6 = _mm512_setzero_ps();
                __m512 a7 = _mm512_setzero_ps();
                for (std::int64_t od = 0; od < out_d_; ++od) {
                  const std::int64_t id = od * stride + kd;
                  for (std::int64_t oh = 0; oh < out_h_; ++oh) {
                    const std::int64_t ih = oh * stride + kh;
                    const float* drow =
                        ddst.data() +
                        (((ocb * out_d_ + od) * out_h_ + oh) * out_w_) *
                            kB;
                    const float* splane = padded + (id * hp + ih) * wp + kw;
                    std::int64_t ow = 0;
                    for (; ow + 8 <= out_w_; ow += 8) {
                      const float* d = drow + ow * kB;
                      const float* s = splane + ow * stride;
                      a0 = _mm512_fmadd_ps(_mm512_loadu_ps(d + 0 * kB),
                                           _mm512_set1_ps(s[0 * stride]),
                                           a0);
                      a1 = _mm512_fmadd_ps(_mm512_loadu_ps(d + 1 * kB),
                                           _mm512_set1_ps(s[1 * stride]),
                                           a1);
                      a2 = _mm512_fmadd_ps(_mm512_loadu_ps(d + 2 * kB),
                                           _mm512_set1_ps(s[2 * stride]),
                                           a2);
                      a3 = _mm512_fmadd_ps(_mm512_loadu_ps(d + 3 * kB),
                                           _mm512_set1_ps(s[3 * stride]),
                                           a3);
                      a4 = _mm512_fmadd_ps(_mm512_loadu_ps(d + 4 * kB),
                                           _mm512_set1_ps(s[4 * stride]),
                                           a4);
                      a5 = _mm512_fmadd_ps(_mm512_loadu_ps(d + 5 * kB),
                                           _mm512_set1_ps(s[5 * stride]),
                                           a5);
                      a6 = _mm512_fmadd_ps(_mm512_loadu_ps(d + 6 * kB),
                                           _mm512_set1_ps(s[6 * stride]),
                                           a6);
                      a7 = _mm512_fmadd_ps(_mm512_loadu_ps(d + 7 * kB),
                                           _mm512_set1_ps(s[7 * stride]),
                                           a7);
                    }
                    for (; ow < out_w_; ++ow) {
                      a0 = _mm512_fmadd_ps(
                          _mm512_loadu_ps(drow + ow * kB),
                          _mm512_set1_ps(splane[ow * stride]), a0);
                    }
                  }
                }
                const __m512 total = _mm512_add_ps(
                    _mm512_add_ps(_mm512_add_ps(a0, a1),
                                  _mm512_add_ps(a2, a3)),
                    _mm512_add_ps(_mm512_add_ps(a4, a5),
                                  _mm512_add_ps(a6, a7)));
                float* wtile =
                    weight_grad.data() +
                    (((ocb * k + kd) * k + kh) * k + kw) * kB;
                _mm512_storeu_ps(
                    wtile, _mm512_add_ps(_mm512_loadu_ps(wtile), total));
                continue;
              }
#endif  // __AVX512F__
              std::fill(acc.begin(), acc.end(), 0.0f);
              for (std::int64_t od = 0; od < out_d_; ++od) {
                const std::int64_t id = od * stride + kd;
                for (std::int64_t oh = 0; oh < out_h_; ++oh) {
                  const std::int64_t ih = oh * stride + kh;
                  const float* drow =
                      ddst.data() +
                      (((ocb * out_d_ + od) * out_h_ + oh) * out_w_) * kB;
                  for (std::int64_t ic = 0; ic < ic_count; ++ic) {
                    const float* splane =
                        padded + ((ic * dp + id) * hp + ih) * wp + kw;
                    float* arow = acc.data() + ic * kB;
                    for (std::int64_t ow = 0; ow < out_w_; ++ow) {
                      const float sv = splane[ow * stride];
                      const float* d = drow + ow * kB;
                      for (int oc = 0; oc < kB; ++oc) {
                        arow[oc] += d[oc] * sv;
                      }
                    }
                  }
                }
              }
              float* wtile =
                  weight_grad.data() +
                  (((ocb * k + kd) * k + kh) * k + kw) * ic_count * kB;
              for (std::int64_t i = 0; i < ic_count * kB; ++i) {
                wtile[i] += acc[static_cast<std::size_t>(i)];
              }
            }
          }
        }
      },
      grain);
}

void Conv3d::backward_data_blocked(const Tensor& ddst, Tensor& dsrc,
                                   std::span<float> scratch,
                                   runtime::ThreadPool& pool,
                                   std::size_t grain) const {
  const std::int64_t icb_count = config_.in_channels / kB;
  const std::int64_t ocb_count = config_.out_channels / kB;
  const std::int64_t k = config_.kernel;
  const std::int64_t stride = config_.stride;

  if (scratch.size() < weights_.size()) {
    throw std::logic_error("Conv3d: backward scratch smaller than "
                           "backward_scratch_floats()");
  }

  // Transpose every 16ic x 16oc weight tile into 16oc x 16ic once per
  // step so the gather kernel broadcasts ddst lanes against contiguous
  // ic rows — the exact mirror of the forward kernel's access pattern.
  float* const wt_base = scratch.data();
  const std::int64_t tiles = ocb_count * icb_count * k * k * k;
  const std::size_t transpose_grain = std::max<std::size_t>(
      weights_.size() <= 4096 ? static_cast<std::size_t>(tiles) : 1, grain);
  pool.parallel_for(
      static_cast<std::size_t>(tiles),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t t = begin; t < end; ++t) {
          const float* w =
              weights_.data() + static_cast<std::int64_t>(t) * kB * kB;
          float* o = wt_base + static_cast<std::int64_t>(t) * kB * kB;
          for (int ic = 0; ic < kB; ++ic) {
            for (int oc = 0; oc < kB; ++oc) o[oc * kB + ic] = w[ic * kB + oc];
          }
        }
      },
      transpose_grain);

  // Gather form: each (icb, id) task produces its unpadded dsrc rows
  // whole — accumulate into a local zeroed row, then store once. Every
  // dsrc element is written exactly once (rows no output tap reaches
  // store the zeroed accumulator), so there is no volume-wide zero
  // fill, no scatter read-modify-write, no copy-out, and the pass
  // fully overwrites dsrc — safe on reused planner buffers. The
  // ocb -> kd -> kh -> kw summation order is fixed per row and
  // independent of the thread count.
  pool.parallel_for(
      static_cast<std::size_t>(icb_count * in_d_),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<float> acc(static_cast<std::size_t>(in_w_) * kB);
        std::vector<std::int64_t> kd_tap(static_cast<std::size_t>(k));
        std::vector<std::int64_t> od_tap(static_cast<std::size_t>(k));
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t icb = static_cast<std::int64_t>(job) / in_d_;
          const std::int64_t id = static_cast<std::int64_t>(job) % in_d_;
          // Depth taps reaching this input plane: kd with
          // od = (id + pad_d.lo - kd) / stride integral and in range.
          std::int64_t taps = 0;
          for (std::int64_t kd = 0; kd < k; ++kd) {
            const std::int64_t num = id + pad_d_.lo - kd;
            if (num < 0 || num % stride != 0) continue;
            const std::int64_t od = num / stride;
            if (od >= out_d_) continue;
            kd_tap[static_cast<std::size_t>(taps)] = kd;
            od_tap[static_cast<std::size_t>(taps)] = od;
            ++taps;
          }
          for (std::int64_t ih = 0; ih < in_h_; ++ih) {
            std::fill(acc.begin(), acc.end(), 0.0f);
            for (std::int64_t ocb = 0; ocb < ocb_count; ++ocb) {
              for (std::int64_t tap = 0; tap < taps; ++tap) {
                const std::int64_t kd = kd_tap[static_cast<std::size_t>(tap)];
                const std::int64_t od = od_tap[static_cast<std::size_t>(tap)];
                for (std::int64_t kh = 0; kh < k; ++kh) {
                  const std::int64_t hnum = ih + pad_h_.lo - kh;
                  if (hnum < 0 || hnum % stride != 0) continue;
                  const std::int64_t oh = hnum / stride;
                  if (oh >= out_h_) continue;
                  const float* drow =
                      ddst.data() +
                      (((ocb * out_d_ + od) * out_h_ + oh) * out_w_) * kB;
                  const float* wt_tap =
                      wt_base +
                      ((((ocb * icb_count + icb) * k + kd) * k + kh) * k) *
                          kB * kB;
                  for (std::int64_t kw = 0; kw < k; ++kw) {
                    // Edge-trimmed output window keeping
                    // iw = ow * stride + kw - pad_w.lo inside [0, in_w).
                    const std::int64_t lo_num = pad_w_.lo - kw;
                    const std::int64_t ow_lo =
                        lo_num > 0 ? (lo_num + stride - 1) / stride : 0;
                    const std::int64_t hi_num = in_w_ - 1 + pad_w_.lo - kw;
                    if (hi_num < 0) continue;
                    const std::int64_t ow_hi =
                        std::min(out_w_, hi_num / stride + 1);
                    const std::int64_t count = ow_hi - ow_lo;
                    if (count <= 0) continue;
                    micro_bwd_gather_row(
                        acc.data() +
                            (ow_lo * stride + kw - pad_w_.lo) * kB,
                        drow + ow_lo * kB, wt_tap + kw * kB * kB, count,
                        stride);
                  }
                }
              }
            }
            float* trow = dsrc.data() +
                          (((icb * in_d_ + id) * in_h_ + ih) * in_w_) * kB;
            std::memcpy(trow, acc.data(),
                        static_cast<std::size_t>(in_w_) * kB *
                            sizeof(float));
          }
        }
      },
      grain);
}

void Conv3d::backward_data_plain_src(const Tensor& ddst, Tensor& dsrc,
                                     runtime::ThreadPool& pool) const {
  // Cold path: the first layer's input difference signal is only
  // needed when a Conv3d with IC < 16 sits mid-network, which the
  // CosmoFlow topology never does. Use the reference kernel on plain
  // layouts.
  (void)pool;
  const Tensor plain_w = plain_weights();
  const Tensor plain_ddst =
      tensor::from_blocked_activation(ddst, config_.out_channels);
  conv3d_backward_data_reference(plain_ddst, plain_w, config_.stride, pad_d_,
                                 pad_h_, pad_w_, dsrc);
}

}  // namespace cf::dnn
