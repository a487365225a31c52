// 3D convolution: the computational heart of CosmoFlow (§III-C).
//
// Two engines are provided:
//  * reference — plain-layout 7-loop direct convolution used as the
//    correctness oracle in tests (free functions below);
//  * blocked — the production kernels implementing Algorithm 1 of the
//    paper: activations in nCdhw16c, weights in OIdhw16i16o, innermost
//    (ow, ic, oc) loops unrolled/vectorized to AVX-512 FMAs, threading
//    over the output voxel space (forward/backward-data) and over
//    channel-block pairs (backward-weights).
//
// Kernels are cubic and "same"/"valid" padding is resolved per spatial
// dimension at plan time (asymmetric when the total is odd, matching
// TensorFlow). The first layer of the network has a single input
// channel; it uses a dedicated plain-source kernel instead of blowing
// the 128^3 input up to 16 channels.
//
// The layer object is immutable per stream: all per-step staging (the
// zero-padded source copy, the transposed-weight scratch, the weight
// and bias gradients) lives in the LayerExecState the caller passes in,
// so concurrent streams can share one Conv3d.
#pragma once

#include <span>
#include <vector>

#include "dnn/layer.hpp"
#include "runtime/rng.hpp"
#include "tensor/layout.hpp"

namespace cf::dnn {

enum class Padding { kSame, kValid };

struct Conv3dConfig {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 3;  // cubic
  std::int64_t stride = 1;
  Padding padding = Padding::kSame;
};

/// Resolved padding for one spatial dimension.
struct PadSpec {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t total() const { return lo + hi; }
};

class Conv3d final : public Layer {
 public:
  Conv3d(std::string name, Conv3dConfig config);

  std::string kind() const override { return "conv"; }

  /// Input: blocked {ICb, D, H, W, 16} when in_channels is a multiple
  /// of 16, else plain {IC, D, H, W} (first layer). Output: blocked
  /// {OCb, OD, OH, OW, 16}. out_channels must be a multiple of 16.
  tensor::Shape plan(const tensor::Shape& input) override;

  void forward(const tensor::Tensor& src, tensor::Tensor& dst,
               LayerExecState& exec,
               runtime::ThreadPool& pool) const override;
  /// Masks ddst in place when fused, then accumulates the bias and
  /// weight gradients from it.
  void backward_weights(const tensor::Tensor& src,
                        const tensor::Tensor& dst, tensor::Tensor& ddst,
                        LayerExecState& exec,
                        runtime::ThreadPool& pool) const override;
  void backward_data(const tensor::Tensor& src, const tensor::Tensor& dst,
                     const tensor::Tensor& ddst, tensor::Tensor& dsrc,
                     LayerExecState& exec,
                     runtime::ThreadPool& pool) const override;

  // Reduced-precision inference forward (dnn/forward_rp.cpp): bf16
  // weights+activations with fp32 accumulation. The fp32 kernels above
  // are untouched.
  bool supports_precision(Precision p) const override {
    static_cast<void>(p);
    return true;
  }
  void forward_bf16(const bf16_t* src, bf16_t* dst,
                    std::span<const bf16_t> params, LayerExecState& exec,
                    runtime::ThreadPool& pool) const override;

  /// Forward stages the source into a zero-padded workspace (written by
  /// forward, re-read by backward-weights of the same stream).
  std::size_t forward_workspace_floats() const override;

  /// Backward-data reads the weights transposed ({..., 16oc, 16ic});
  /// the transposed copy lives in the stream's scratch span, which a
  /// planned context shares across layers (DESIGN.md §2.2).
  std::size_t backward_scratch_floats() const override;

  /// MKL-DNN-style post-op fusion: fold a trailing LeakyReLU into the
  /// forward output write and mask ddst once on backward entry. For
  /// slope in [0, 1) the output sign equals the pre-activation sign,
  /// so the fused results are bitwise identical to the unfused pair.
  bool fuse_leaky_relu(float slope) override;
  bool fused() const noexcept { return fused_; }

  std::vector<ParamSpec> param_specs() override;
  FlopCounts flops() const override;

  const Conv3dConfig& config() const noexcept { return config_; }

  /// Deterministic He initialization (fan-in = IC * K^3).
  void init_he(runtime::Rng& rng);

  /// Replace weights from / export weights to the plain
  /// {OC, IC, KD, KH, KW} layout (tests, checkpoints). to_plain_weights
  /// exports any tensor in the blocked weight layout, such as the
  /// weight gradient in LayerExecState::grads[0].
  void set_plain_weights(const tensor::Tensor& weights,
                         const tensor::Tensor& bias);
  tensor::Tensor plain_weights() const { return to_plain_weights(weights_); }
  tensor::Tensor to_plain_weights(const tensor::Tensor& blocked) const;

  const tensor::Tensor& bias() const noexcept { return bias_; }

  /// When false (default for the first network layer via Network),
  /// backward skips the input difference signal.
  bool input_is_plain() const noexcept { return plain_input_; }

 private:
  // The trailing `grain` on each pass is the stream's per-layer
  // intra-op grain (LayerExecState::intraop_grain) — forwarded to
  // parallel_for as the minimum jobs per chunk. It only changes how the
  // fixed job grid is partitioned, never the per-job arithmetic, so any
  // value is bitwise-equivalent (DESIGN.md §2.6).
  void forward_blocked(const tensor::Tensor& src, tensor::Tensor& dst,
                       const float* padded, runtime::ThreadPool& pool,
                       std::size_t grain) const;
  void forward_plain_src(const tensor::Tensor& src, tensor::Tensor& dst,
                         const float* padded, runtime::ThreadPool& pool,
                         std::size_t grain) const;
  void bias_grad_pass(const tensor::Tensor& ddst, tensor::Tensor& bias_grad,
                      runtime::ThreadPool& pool, std::size_t grain) const;
  void mask_bias_grad_pass(const tensor::Tensor& dst, tensor::Tensor& ddst,
                           tensor::Tensor& bias_grad,
                           runtime::ThreadPool& pool,
                           std::size_t grain) const;
  void backward_weights_blocked(const tensor::Tensor& ddst,
                                const float* padded,
                                tensor::Tensor& weight_grad,
                                runtime::ThreadPool& pool,
                                std::size_t grain) const;
  void backward_weights_plain_src(const tensor::Tensor& ddst,
                                  const float* padded,
                                  tensor::Tensor& weight_grad,
                                  runtime::ThreadPool& pool,
                                  std::size_t grain) const;
  void backward_data_blocked(const tensor::Tensor& ddst,
                             tensor::Tensor& dsrc, std::span<float> scratch,
                             runtime::ThreadPool& pool,
                             std::size_t grain) const;
  void backward_data_plain_src(const tensor::Tensor& ddst,
                               tensor::Tensor& dsrc,
                               runtime::ThreadPool& pool) const;

  /// Stages `src` into the stream's padded workspace. When the
  /// workspace is shared between layers the zero border may have been
  /// clobbered since the context was created, so it is re-zeroed here;
  /// a private (per-layer) region keeps its construction-time zeros and
  /// only the interior rows are rewritten.
  void stage_padded_src(const tensor::Tensor& src, LayerExecState& exec,
                        runtime::ThreadPool& pool) const;

  Conv3dConfig config_;
  bool plain_input_ = false;

  // Fused LeakyReLU epilogue (see fuse_leaky_relu).
  bool fused_ = false;
  float slope_ = 0.0f;

  // Spatial geometry (set by plan). pd_/ph_/pw_ are the padded extents
  // in_x_ + pad_x_.total() of the staging workspace.
  std::int64_t in_d_ = 0, in_h_ = 0, in_w_ = 0;
  std::int64_t out_d_ = 0, out_h_ = 0, out_w_ = 0;
  std::int64_t pd_ = 0, ph_ = 0, pw_ = 0;
  PadSpec pad_d_, pad_h_, pad_w_;

  // Parameters. Weights live permanently in the blocked layout
  // ({OCb, ICb, K, K, K, 16ic, 16oc}, or {OCb, K, K, K, IC, 16oc} for
  // the plain-input case).
  tensor::Tensor weights_;
  tensor::Tensor bias_;
};

// ---------------------------------------------------------------------------
// Reference engine (plain layouts, correctness oracle).

/// dst {OC, OD, OH, OW} = conv(src {IC, D, H, W}, weights
/// {OC, IC, K, K, K}) + bias, with the given stride and per-dim pads.
void conv3d_forward_reference(const tensor::Tensor& src,
                              const tensor::Tensor& weights,
                              const tensor::Tensor& bias, std::int64_t stride,
                              const PadSpec& pd, const PadSpec& ph,
                              const PadSpec& pw, tensor::Tensor& dst);

void conv3d_backward_data_reference(const tensor::Tensor& ddst,
                                    const tensor::Tensor& weights,
                                    std::int64_t stride, const PadSpec& pd,
                                    const PadSpec& ph, const PadSpec& pw,
                                    tensor::Tensor& dsrc);

void conv3d_backward_weights_reference(
    const tensor::Tensor& src, const tensor::Tensor& ddst,
    std::int64_t stride, const PadSpec& pd, const PadSpec& ph,
    const PadSpec& pw, tensor::Tensor& dweights, tensor::Tensor& dbias);

/// Resolves the padding of one spatial dimension.
PadSpec resolve_pad(Padding mode, std::int64_t in, std::int64_t kernel,
                    std::int64_t stride);

}  // namespace cf::dnn
