// Reorder boundary between the blocked conv stack and the dense head:
// blocked {Cb, D, H, W, 16} -> plain {C * D * H * W} (channel-major,
// the same order a plain {C, D, H, W} tensor flattens to). This is one
// of the "data reordering between the blocked and non-blocked layout"
// stages the paper profiles in §V-B.
#pragma once

#include "dnn/layer.hpp"

namespace cf::dnn {

class Flatten final : public Layer {
 public:
  /// `channels` is the true channel count (Cb * 16 when the conv stack
  /// keeps multiples of 16).
  Flatten(std::string name, std::int64_t channels);

  std::string kind() const override { return "reorder"; }

  tensor::Shape plan(const tensor::Shape& input) override;

  void forward(const tensor::Tensor& src, tensor::Tensor& dst,
               LayerExecState& exec,
               runtime::ThreadPool& pool) const override;
  void backward_data(const tensor::Tensor& src, const tensor::Tensor& dst,
                     const tensor::Tensor& ddst, tensor::Tensor& dsrc,
                     LayerExecState& exec,
                     runtime::ThreadPool& pool) const override;

  // bf16 pass-through (dnn/forward_rp.cpp): the reorder is a pure
  // gather, so bf16 values move untouched — no conversion at all.
  bool supports_precision(Precision p) const override {
    static_cast<void>(p);
    return true;
  }
  void forward_bf16(const bf16_t* src, bf16_t* dst,
                    std::span<const bf16_t> params, LayerExecState& exec,
                    runtime::ThreadPool& pool) const override;

 private:
  std::int64_t channels_ = 0;
  std::int64_t d_ = 0, h_ = 0, w_ = 0;
};

}  // namespace cf::dnn
