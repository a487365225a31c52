// Element-wise activations. CosmoFlow uses leaky ReLU on every conv
// and FC layer (§III-A). These ops are layout-agnostic (applying an
// element-wise map to a blocked tensor touches the same values) and
// are threaded with simple loop-level parallelism, exactly the OpenMP
// treatment the paper applies to TensorFlow's element-wise ops.
#pragma once

#include "dnn/layer.hpp"

namespace cf::dnn {

class LeakyRelu final : public Layer {
 public:
  /// The SC18 paper does not publish its slope; Ravanbakhsh et al. and
  /// the MLPerf-HPC descendant use small slopes — 0.01 is the default
  /// here and configurable per topology.
  explicit LeakyRelu(std::string name, float negative_slope = 0.01f);

  std::string kind() const override { return "activation"; }

  tensor::Shape plan(const tensor::Shape& input) override;

  void forward(const tensor::Tensor& src, tensor::Tensor& dst,
               LayerExecState& exec,
               runtime::ThreadPool& pool) const override;
  void backward_data(const tensor::Tensor& src, const tensor::Tensor& dst,
                     const tensor::Tensor& ddst, tensor::Tensor& dsrc,
                     LayerExecState& exec,
                     runtime::ThreadPool& pool) const override;

  // bf16 pass-through (dnn/forward_rp.cpp) for unfused networks: widen,
  // apply the slope in fp32, narrow. build_network() usually fuses this
  // layer away before it can run.
  bool supports_precision(Precision p) const override {
    static_cast<void>(p);
    return true;
  }
  void forward_bf16(const bf16_t* src, bf16_t* dst,
                    std::span<const bf16_t> params, LayerExecState& exec,
                    runtime::ThreadPool& pool) const override;

  FlopCounts flops() const override;

  float negative_slope() const noexcept { return slope_; }

 private:
  float slope_;
};

}  // namespace cf::dnn
