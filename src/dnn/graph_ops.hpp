// Multi-input / shape-agnostic graph nodes (DESIGN.md §2.8).
//
// Add is the residual-sum node: N equal-shaped inputs, one elementwise
// sum, summed left-to-right in edge order so fan-in stays bitwise
// deterministic. GlobalAvgPool collapses a blocked activation volume to
// one value per channel; because its output shape depends only on the
// channel count, a dense head behind it is input-size-agnostic — the
// enabler for variable input-size inference via per-shape contexts
// (Network::make_shape_view).
#pragma once

#include "dnn/layer.hpp"

namespace cf::dnn {

class Add final : public Layer {
 public:
  explicit Add(std::string name, std::size_t arity = 2);

  std::string kind() const override { return "eltwise"; }
  std::size_t arity() const override { return arity_; }

  /// All inputs share one shape, which is also the output shape.
  tensor::Shape plan(std::span<const tensor::Shape> inputs) override;

  void forward(Inputs srcs, tensor::Tensor& dst, LayerExecState& exec,
               runtime::ThreadPool& pool) const override;
  /// Every needed dsrc receives a copy of ddst.
  void backward_data(Inputs srcs, const tensor::Tensor& dst,
                     const tensor::Tensor& ddst, InputGrads dsrcs,
                     LayerExecState& exec,
                     runtime::ThreadPool& pool) const override;

  FlopCounts flops() const override;
  std::unique_ptr<Layer> clone_unplanned() const override;

 private:
  std::size_t arity_;
};

class GlobalAvgPool final : public Layer {
 public:
  explicit GlobalAvgPool(std::string name);

  std::string kind() const override { return "pool"; }

  /// Blocked {Cb, D, H, W, 16} -> plain {Cb * 16}, or plain
  /// {C, D, H, W} -> {C}. The output depends only on the channel count.
  tensor::Shape plan(std::span<const tensor::Shape> inputs) override;

  void forward(Inputs srcs, tensor::Tensor& dst, LayerExecState& exec,
               runtime::ThreadPool& pool) const override;
  void backward_data(Inputs srcs, const tensor::Tensor& dst,
                     const tensor::Tensor& ddst, InputGrads dsrcs,
                     LayerExecState& exec,
                     runtime::ThreadPool& pool) const override;

  FlopCounts flops() const override;
  std::unique_ptr<Layer> clone_unplanned() const override;

 private:
  bool blocked_ = false;
  std::int64_t channels_ = 0;
  std::int64_t voxels_ = 0;  // D * H * W
};

}  // namespace cf::dnn
