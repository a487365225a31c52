#include "dnn/dense.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "tensor/tensor_ops.hpp"

namespace cf::dnn {

using tensor::Shape;
using tensor::Tensor;

Dense::Dense(std::string name, std::int64_t in_features,
             std::int64_t out_features)
    : Layer(std::move(name)), in_(in_features), out_(out_features) {
  if (in_ <= 0 || out_ <= 0) {
    throw std::invalid_argument("Dense: feature counts must be positive");
  }
}

Shape Dense::plan(const Shape& input) {
  if (input.rank() != 1 || input[0] != in_) {
    throw std::invalid_argument("Dense::plan: expected plain {" +
                                std::to_string(in_) + "}, got " +
                                input.to_string());
  }
  weights_ = Tensor(Shape{in_, out_});
  bias_ = Tensor(Shape{out_});
  const Shape out{out_};
  set_shapes(input, out);
  return out;
}

std::vector<ParamSpec> Dense::param_specs() {
  return {{name() + ".weights", &weights_},
          {name() + ".bias", &bias_}};
}

FlopCounts Dense::flops() const {
  FlopCounts counts;
  counts.fwd = 2 * in_ * out_;
  counts.bwd_data = 2 * in_ * out_;
  counts.bwd_weights = 2 * in_ * out_;
  if (fused_) {
    counts.fwd += out_;
    counts.bwd_weights += out_;
  }
  return counts;
}

bool Dense::fuse_leaky_relu(float slope) {
  if (slope < 0.0f || slope >= 1.0f) return false;
  fused_ = true;
  slope_ = slope;
  return true;
}

namespace {
// Below this many multiply-adds the dispatch/wake cost of the pool
// exceeds the loop itself; run on the caller (same body, same result).
constexpr std::int64_t kSerialWorkLimit = 4096;

/// Grain of the two backward loops over the `in` inputs.
std::size_t backward_grain(std::int64_t in, std::int64_t out,
                           std::size_t intraop_grain) {
  return std::max<std::size_t>(
      in * out <= kSerialWorkLimit ? static_cast<std::size_t>(in) : 1,
      intraop_grain);
}
}  // namespace

// The forward pass splits the reduction over the input dimension into a
// *fixed* number of chunks combined in chunk order, so the
// floating-point summation order — and therefore the result — is
// independent of the thread count (the determinism invariant
// synchronous training rests on).
std::size_t Dense::forward_chunks() const noexcept {
  return std::min<std::size_t>(16, static_cast<std::size_t>(in_));
}

std::size_t Dense::forward_workspace_floats() const {
  return (forward_chunks() + 1) * static_cast<std::size_t>(out_);
}

float* Dense::zeroed_accumulators(LayerExecState& exec) const {
  if (exec.workspace.size() < forward_workspace_floats()) {
    throw std::logic_error("Dense: workspace smaller than "
                           "forward_workspace_floats()");
  }
  std::memset(exec.workspace.data(), 0,
              forward_chunks() * static_cast<std::size_t>(out_) *
                  sizeof(float));
  return exec.workspace.data();
}

void Dense::init_xavier(runtime::Rng& rng) {
  const float limit = std::sqrt(6.0f / static_cast<float>(in_ + out_));
  tensor::fill_uniform(weights_, rng, -limit, limit);
  bias_.zero();
}

void Dense::forward(const Tensor& src, Tensor& dst, LayerExecState& exec,
                    runtime::ThreadPool& pool) const {
  if (src.shape() != input_shape() || dst.shape() != output_shape()) {
    throw std::invalid_argument("Dense::forward: shape mismatch");
  }
  const std::size_t chunks = forward_chunks();
  const std::size_t chunk_size =
      (static_cast<std::size_t>(in_) + chunks - 1) / chunks;
  float* const partial = zeroed_accumulators(exec);
  const std::size_t grain = std::max<std::size_t>(
      in_ * out_ <= kSerialWorkLimit ? chunks : 1, exec.intraop_grain);
  pool.parallel_for(
      chunks,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t chunk = begin; chunk < end; ++chunk) {
          float* acc = partial + chunk * static_cast<std::size_t>(out_);
          const std::size_t lo = chunk * chunk_size;
          const std::size_t hi = std::min(
              static_cast<std::size_t>(in_), lo + chunk_size);
          for (std::size_t i = lo; i < hi; ++i) {
            const float sv = src[i];
            const float* wrow = weights_.data() + i * out_;
            for (std::int64_t o = 0; o < out_; ++o) acc[o] += wrow[o] * sv;
          }
        }
      },
      grain);
  std::memcpy(dst.data(), bias_.data(),
              static_cast<std::size_t>(out_) * sizeof(float));
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    const float* acc = partial + chunk * static_cast<std::size_t>(out_);
    for (std::int64_t o = 0; o < out_; ++o) {
      dst[static_cast<std::size_t>(o)] += acc[o];
    }
  }
  if (fused_) {
    // Fused LeakyReLU epilogue over the just-combined output.
    float* d = dst.data();
    for (std::int64_t o = 0; o < out_; ++o) {
      const float v = d[o];
      d[o] = v > 0.0f ? v : slope_ * v;
    }
  }
}

void Dense::backward_weights(const Tensor& src, const Tensor& dst,
                             Tensor& ddst, LayerExecState& exec,
                             runtime::ThreadPool& pool) const {
  if (src.shape() != input_shape() || ddst.shape() != output_shape()) {
    throw std::invalid_argument("Dense::backward_weights: shape mismatch");
  }
  if (exec.grads.size() != 2) {
    throw std::logic_error("Dense::backward_weights: exec state has no grads");
  }
  Tensor& weight_grad = exec.grads[0];
  Tensor& bias_grad = exec.grads[1];
  if (fused_) {
    if (dst.shape() != output_shape()) {
      throw std::invalid_argument(
          "Dense::backward_weights: dst shape mismatch");
    }
    // Mask ddst in place — it is consumed by this layer's backward
    // (the Layer contract), so no side buffer is needed.
    float* md = ddst.data();
    const float* y = dst.data();
    for (std::int64_t o = 0; o < out_; ++o) {
      md[o] = y[o] > 0.0f ? md[o] : slope_ * md[o];
    }
  }
  tensor::axpy(1.0f, ddst.values(), bias_grad.values());
  const float* d = ddst.data();
  pool.parallel_for(
      static_cast<std::size_t>(in_),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          const float sv = src[i];
          float* grow = weight_grad.data() + i * out_;
          for (std::int64_t o = 0; o < out_; ++o) grow[o] += d[o] * sv;
        }
      },
      backward_grain(in_, out_, exec.intraop_grain));
}

void Dense::backward_data(const Tensor& /*src*/, const Tensor& /*dst*/,
                          const Tensor& ddst, Tensor& dsrc,
                          LayerExecState& exec,
                          runtime::ThreadPool& pool) const {
  if (ddst.shape() != output_shape() || dsrc.shape() != input_shape()) {
    throw std::invalid_argument("Dense::backward_data: shape mismatch");
  }
  const float* d = ddst.data();
  float* ds = dsrc.data();
  pool.parallel_for(
      static_cast<std::size_t>(in_),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          const float* wrow = weights_.data() + i * out_;
          float acc = 0.0f;
          for (std::int64_t o = 0; o < out_; ++o) acc += wrow[o] * d[o];
          ds[i] = acc;
        }
      },
      backward_grain(in_, out_, exec.intraop_grain));
}

}  // namespace cf::dnn
