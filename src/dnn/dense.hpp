// Fully-connected layer for the CosmoFlow regression head.
//
// Weights are stored input-major ({I, O}) so the forward pass, the
// weight-gradient outer product and the data-gradient dot product all
// stream contiguously over the output dimension and vectorize.
#pragma once

#include "dnn/layer.hpp"
#include "runtime/rng.hpp"

namespace cf::dnn {

class Dense final : public Layer {
 public:
  Dense(std::string name, std::int64_t in_features,
        std::int64_t out_features);

  std::string kind() const override { return "dense"; }

  /// Input: plain {in_features}. Output: plain {out_features}.
  tensor::Shape plan(const tensor::Shape& input) override;

  void forward(const tensor::Tensor& src, tensor::Tensor& dst,
               LayerExecState& exec,
               runtime::ThreadPool& pool) const override;
  /// The forward reduction's chunk accumulators, one row of
  /// out_features per chunk, plus one fp32 output row for
  /// forward_bf16. Zeroed on every call, so the region may be shared.
  std::size_t forward_workspace_floats() const override;
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

  // Reduced-precision inference forward (dnn/forward_rp.cpp); the fp32
  // chunked reduction above is untouched.
  bool supports_precision(Precision p) const override {
    static_cast<void>(p);
    return true;
  }
  void forward_bf16(const bf16_t* src, bf16_t* dst,
                    std::span<const bf16_t> params, LayerExecState& exec,
                    runtime::ThreadPool& pool) const override;
  void pack_weights_bf16(std::span<bf16_t> segment) const override;

  /// Post-op fusion of a trailing LeakyReLU (see Conv3d::fuse_leaky_relu
  /// for the bitwise-equivalence argument).
  bool fuse_leaky_relu(float slope) override;
  bool fused() const noexcept { return fused_; }

  std::vector<ParamSpec> param_specs() override;
  FlopCounts flops() const override;

  /// Deterministic Xavier/Glorot initialization.
  void init_xavier(runtime::Rng& rng);

  std::int64_t in_features() const noexcept { return in_; }
  std::int64_t out_features() const noexcept { return out_; }

  /// weights are {I, O}; w(i, o) = weights()[i * O + o].
  tensor::Tensor& weights() noexcept { return weights_; }
  const tensor::Tensor& weights() const noexcept { return weights_; }
  tensor::Tensor& bias() noexcept { return bias_; }

 private:
  /// Fixed chunk count of the forward reduction over the inputs.
  std::size_t forward_chunks() const noexcept;
  /// The stream's workspace with its chunk accumulators zeroed; throws
  /// std::logic_error when it is smaller than forward_workspace_floats().
  float* zeroed_accumulators(LayerExecState& exec) const;

  std::int64_t in_ = 0;
  std::int64_t out_ = 0;
  bool fused_ = false;
  float slope_ = 0.0f;
  tensor::Tensor weights_;
  tensor::Tensor bias_;
};

}  // namespace cf::dnn
