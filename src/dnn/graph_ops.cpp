#include "dnn/graph_ops.hpp"

#include <cstring>
#include <stdexcept>

namespace cf::dnn {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// Same elementwise dispatch threshold the activations use.
constexpr std::size_t kSerialWorkLimit = 4096;

}  // namespace

// --- Add -------------------------------------------------------------------

Add::Add(std::string name, std::size_t arity)
    : Layer(std::move(name)), arity_(arity) {
  if (arity < 2) {
    throw std::invalid_argument("Add: arity must be >= 2");
  }
}

Shape Add::plan(std::span<const Shape> inputs) {
  check_inputs(inputs.size());
  for (const Shape& s : inputs) {
    if (s != inputs[0]) {
      throw std::invalid_argument(
          "Add::plan: input shapes differ (" + s.to_string() + " vs " +
          inputs[0].to_string() + ")");
    }
  }
  set_shapes(inputs[0], inputs[0]);
  return inputs[0];
}

void Add::forward(Inputs srcs, Tensor& dst, LayerExecState& /*exec*/,
                  runtime::ThreadPool& pool) const {
  check_inputs(srcs.size());
  if (dst.shape() != output_shape()) {
    throw std::invalid_argument("Add::forward: shape mismatch");
  }
  for (const Tensor* s : srcs) {
    if (s->shape() != input_shape()) {
      throw std::invalid_argument("Add::forward: shape mismatch");
    }
  }
  float* d = dst.data();
  pool.parallel_for(
      dst.size(),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        // Left-to-right over the edges: fan-in summation order is part
        // of the bitwise contract (DESIGN.md §2.8).
        const float* a = srcs[0]->data();
        const float* b = srcs[1]->data();
        for (std::size_t i = begin; i < end; ++i) d[i] = a[i] + b[i];
        for (std::size_t k = 2; k < srcs.size(); ++k) {
          const float* s = srcs[k]->data();
          for (std::size_t i = begin; i < end; ++i) d[i] += s[i];
        }
      },
      kSerialWorkLimit);
}

void Add::backward_data(Inputs srcs, const Tensor& /*dst*/,
                        const Tensor& ddst, InputGrads dsrcs,
                        LayerExecState& /*exec*/,
                        runtime::ThreadPool& /*pool*/) const {
  check_inputs(srcs.size(), dsrcs.size());
  if (ddst.shape() != output_shape()) {
    throw std::invalid_argument("Add::backward_data: shape mismatch");
  }
  for (Tensor* ds : dsrcs) {
    if (ds == nullptr) continue;
    if (ds->shape() != input_shape()) {
      throw std::invalid_argument("Add::backward_data: dsrc shape mismatch");
    }
    std::memcpy(ds->data(), ddst.data(), ddst.size() * sizeof(float));
  }
}

FlopCounts Add::flops() const {
  FlopCounts counts;
  counts.fwd =
      static_cast<std::int64_t>(arity_ - 1) * output_shape().numel();
  return counts;
}

std::unique_ptr<Layer> Add::clone_unplanned() const {
  return std::make_unique<Add>(name(), arity_);
}

// --- GlobalAvgPool ---------------------------------------------------------

GlobalAvgPool::GlobalAvgPool(std::string name) : Layer(std::move(name)) {}

Shape GlobalAvgPool::plan(std::span<const Shape> inputs) {
  check_inputs(inputs.size());
  const Shape& input = inputs[0];
  if (input.rank() == 5) {
    if (input[4] != 16) {
      throw std::invalid_argument(
          "GlobalAvgPool::plan: blocked input must have 16 lanes");
    }
    blocked_ = true;
    channels_ = input[0] * 16;
    voxels_ = input[1] * input[2] * input[3];
  } else if (input.rank() == 4) {
    blocked_ = false;
    channels_ = input[0];
    voxels_ = input[1] * input[2] * input[3];
  } else {
    throw std::invalid_argument(
        "GlobalAvgPool::plan: expected a rank-4 plain or rank-5 blocked "
        "volume, got " +
        input.to_string());
  }
  if (voxels_ <= 0) {
    throw std::invalid_argument("GlobalAvgPool::plan: empty volume");
  }
  set_shapes(input, Shape{channels_});
  return Shape{channels_};
}

void GlobalAvgPool::forward(Inputs srcs, Tensor& dst,
                            LayerExecState& /*exec*/,
                            runtime::ThreadPool& pool) const {
  check_inputs(srcs.size());
  const Tensor& src = *srcs[0];
  if (src.shape() != input_shape() || dst.shape() != output_shape()) {
    throw std::invalid_argument("GlobalAvgPool::forward: shape mismatch");
  }
  const float inv = 1.0f / static_cast<float>(voxels_);
  const float* s = src.data();
  float* d = dst.data();
  const std::size_t voxels = static_cast<std::size_t>(voxels_);
  if (blocked_) {
    // {Cb, D, H, W, 16}: each job reduces one channel block's 16 lanes
    // over the voxel volume, in ascending voxel order.
    const std::size_t blocks = static_cast<std::size_t>(channels_ / 16);
    pool.parallel_for(
        blocks, [&](std::size_t begin, std::size_t end, std::size_t) {
          for (std::size_t cb = begin; cb < end; ++cb) {
            float acc[16] = {};
            const float* base = s + cb * voxels * 16;
            for (std::size_t v = 0; v < voxels; ++v) {
              for (std::size_t lane = 0; lane < 16; ++lane) {
                acc[lane] += base[v * 16 + lane];
              }
            }
            for (std::size_t lane = 0; lane < 16; ++lane) {
              d[cb * 16 + lane] = acc[lane] * inv;
            }
          }
        });
    return;
  }
  const std::size_t channels = static_cast<std::size_t>(channels_);
  pool.parallel_for(
      channels, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t c = begin; c < end; ++c) {
          float acc = 0.0f;
          const float* base = s + c * voxels;
          for (std::size_t v = 0; v < voxels; ++v) acc += base[v];
          d[c] = acc * inv;
        }
      });
}

void GlobalAvgPool::backward_data(Inputs srcs, const Tensor& /*dst*/,
                                  const Tensor& ddst, InputGrads dsrcs,
                                  LayerExecState& /*exec*/,
                                  runtime::ThreadPool& pool) const {
  check_inputs(srcs.size(), dsrcs.size());
  if (dsrcs[0] == nullptr) return;
  if (ddst.shape() != output_shape() || dsrcs[0]->shape() != input_shape()) {
    throw std::invalid_argument("GlobalAvgPool::backward_data: shape mismatch");
  }
  const float inv = 1.0f / static_cast<float>(voxels_);
  const float* dd = ddst.data();
  float* ds = dsrcs[0]->data();
  const std::size_t voxels = static_cast<std::size_t>(voxels_);
  if (blocked_) {
    const std::size_t blocks = static_cast<std::size_t>(channels_ / 16);
    pool.parallel_for(
        blocks, [&](std::size_t begin, std::size_t end, std::size_t) {
          for (std::size_t cb = begin; cb < end; ++cb) {
            float g[16];
            for (std::size_t lane = 0; lane < 16; ++lane) {
              g[lane] = dd[cb * 16 + lane] * inv;
            }
            float* base = ds + cb * voxels * 16;
            for (std::size_t v = 0; v < voxels; ++v) {
              for (std::size_t lane = 0; lane < 16; ++lane) {
                base[v * 16 + lane] = g[lane];
              }
            }
          }
        });
    return;
  }
  const std::size_t channels = static_cast<std::size_t>(channels_);
  pool.parallel_for(
      channels, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t c = begin; c < end; ++c) {
          const float g = dd[c] * inv;
          float* base = ds + c * voxels;
          for (std::size_t v = 0; v < voxels; ++v) base[v] = g;
        }
      });
}

FlopCounts GlobalAvgPool::flops() const {
  FlopCounts counts;
  counts.fwd = input_shape().numel();
  counts.bwd_data = input_shape().numel();
  return counts;
}

std::unique_ptr<Layer> GlobalAvgPool::clone_unplanned() const {
  return std::make_unique<GlobalAvgPool>(name());
}

}  // namespace cf::dnn
