#include "dnn/activations.hpp"

#include <stdexcept>

namespace cf::dnn {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// Below this element count the pool's dispatch overhead exceeds the
/// sweep itself (the fc_act layers are 32-128 floats); parallel_for
/// runs the identical body serially on the caller.
constexpr std::size_t kSerialWorkLimit = 4096;

}  // namespace

LeakyRelu::LeakyRelu(std::string name, float negative_slope)
    : Layer(std::move(name)), slope_(negative_slope) {
  if (negative_slope < 0.0f || negative_slope >= 1.0f) {
    throw std::invalid_argument("LeakyRelu: slope must be in [0, 1)");
  }
}

Shape LeakyRelu::plan(const Shape& input) {
  set_shapes(input, input);
  return input;
}

FlopCounts LeakyRelu::flops() const {
  FlopCounts counts;
  counts.fwd = input_shape().numel();
  counts.bwd_data = input_shape().numel();
  return counts;
}

void LeakyRelu::forward(const Tensor& src, Tensor& dst,
                        LayerExecState& /*exec*/,
                        runtime::ThreadPool& pool) const {
  if (src.shape() != input_shape() || dst.shape() != output_shape()) {
    throw std::invalid_argument("LeakyRelu::forward: shape mismatch");
  }
  const float slope = slope_;
  const float* s = src.data();
  float* d = dst.data();
  pool.parallel_for(src.size(),
                    [&](std::size_t begin, std::size_t end, std::size_t) {
                      for (std::size_t i = begin; i < end; ++i) {
                        const float v = s[i];
                        d[i] = v > 0.0f ? v : slope * v;
                      }
                    },
                    kSerialWorkLimit);
}

void LeakyRelu::backward_data(const Tensor& src, const Tensor& /*dst*/,
                              const Tensor& ddst, Tensor& dsrc,
                              LayerExecState& /*exec*/,
                              runtime::ThreadPool& pool) const {
  if (src.shape() != input_shape() || ddst.shape() != output_shape() ||
      dsrc.shape() != input_shape()) {
    throw std::invalid_argument("LeakyRelu::backward_data: shape mismatch");
  }
  const float slope = slope_;
  const float* s = src.data();
  const float* dd = ddst.data();
  float* ds = dsrc.data();
  pool.parallel_for(src.size(),
                    [&](std::size_t begin, std::size_t end, std::size_t) {
                      for (std::size_t i = begin; i < end; ++i) {
                        ds[i] = s[i] > 0.0f ? dd[i] : slope * dd[i];
                      }
                    },
                    kSerialWorkLimit);
}

}  // namespace cf::dnn
