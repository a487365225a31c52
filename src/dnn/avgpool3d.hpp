// Average pooling, the paper's spatial down-sampler (stride (2,2,2)
// after the early conv layers, §III-A).
//
// Pooling is a special case of convolution whose weights are the
// constant 1/K^3 (§III-C); it is bandwidth-bound, so the blocked
// implementation is a straight 16-lane streaming average over the
// window with threading over output voxels. Valid padding only — the
// CosmoFlow volumes divide evenly.
#pragma once

#include "dnn/layer.hpp"

namespace cf::dnn {

struct AvgPool3dConfig {
  std::int64_t kernel = 2;
  std::int64_t stride = 2;
};

class AvgPool3d final : public Layer {
 public:
  AvgPool3d(std::string name, AvgPool3dConfig config);

  std::string kind() const override { return "pool"; }

  /// Input and output are blocked {Cb, D, H, W, 16}.
  tensor::Shape plan(const tensor::Shape& input) override;

  void forward(const tensor::Tensor& src, tensor::Tensor& dst,
               LayerExecState& exec,
               runtime::ThreadPool& pool) const override;
  void backward_data(const tensor::Tensor& src, const tensor::Tensor& dst,
                     const tensor::Tensor& ddst, tensor::Tensor& dsrc,
                     LayerExecState& exec,
                     runtime::ThreadPool& pool) const override;

  // bf16 pass-through (dnn/forward_rp.cpp): widen, average in fp32,
  // narrow.
  bool supports_precision(Precision p) const override {
    static_cast<void>(p);
    return true;
  }
  void forward_bf16(const bf16_t* src, bf16_t* dst,
                    std::span<const bf16_t> params, LayerExecState& exec,
                    runtime::ThreadPool& pool) const override;

  FlopCounts flops() const override;

  const AvgPool3dConfig& config() const noexcept { return config_; }

 private:
  AvgPool3dConfig config_;
  std::int64_t cb_ = 0;
  std::int64_t in_d_ = 0, in_h_ = 0, in_w_ = 0;
  std::int64_t out_d_ = 0, out_h_ = 0, out_w_ = 0;
};

/// Plain-layout oracle: dst {C, OD, OH, OW} = avgpool(src {C, D, H, W}).
void avgpool3d_forward_reference(const tensor::Tensor& src,
                                 std::int64_t kernel, std::int64_t stride,
                                 tensor::Tensor& dst);

}  // namespace cf::dnn
