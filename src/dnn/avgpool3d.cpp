#include "dnn/avgpool3d.hpp"

#include <cstring>
#include <stdexcept>

#include "tensor/layout.hpp"
#include "tensor/shape.hpp"

namespace cf::dnn {

using tensor::kChannelBlock;
using tensor::Shape;
using tensor::Tensor;

namespace {
constexpr std::int64_t kB = kChannelBlock;
}

AvgPool3d::AvgPool3d(std::string name, AvgPool3dConfig config)
    : Layer(std::move(name)), config_(config) {
  if (config_.kernel <= 0 || config_.stride <= 0) {
    throw std::invalid_argument("AvgPool3d: bad kernel/stride");
  }
}

Shape AvgPool3d::plan(const Shape& input) {
  if (input.rank() != 5 || input[4] != kB) {
    throw std::invalid_argument("AvgPool3d::plan: expected blocked input, "
                                "got " + input.to_string());
  }
  cb_ = input[0];
  in_d_ = input[1];
  in_h_ = input[2];
  in_w_ = input[3];
  out_d_ = tensor::conv_out_dim(in_d_, config_.kernel, config_.stride, 0);
  out_h_ = tensor::conv_out_dim(in_h_, config_.kernel, config_.stride, 0);
  out_w_ = tensor::conv_out_dim(in_w_, config_.kernel, config_.stride, 0);
  const Shape out{cb_, out_d_, out_h_, out_w_, kB};
  set_shapes(input, out);
  return out;
}

FlopCounts AvgPool3d::flops() const {
  const std::int64_t k3 = config_.kernel * config_.kernel * config_.kernel;
  FlopCounts counts;
  counts.fwd = out_d_ * out_h_ * out_w_ * cb_ * kB * (k3 + 1);
  counts.bwd_data = counts.fwd;
  return counts;
}

void AvgPool3d::forward(const Tensor& src, Tensor& dst, LayerExecState& exec,
                        runtime::ThreadPool& pool) const {
  if (src.shape() != input_shape() || dst.shape() != output_shape()) {
    throw std::invalid_argument("AvgPool3d::forward: shape mismatch");
  }
  const std::int64_t k = config_.kernel;
  const std::int64_t s = config_.stride;
  const float inv = 1.0f / static_cast<float>(k * k * k);

  pool.parallel_for(
      static_cast<std::size_t>(cb_ * out_d_),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t cb = static_cast<std::int64_t>(job) / out_d_;
          const std::int64_t od = static_cast<std::int64_t>(job) % out_d_;
          for (std::int64_t oh = 0; oh < out_h_; ++oh) {
            float* drow =
                dst.data() +
                (((cb * out_d_ + od) * out_h_ + oh) * out_w_) * kB;
            for (std::int64_t ow = 0; ow < out_w_; ++ow) {
              float acc[kB] = {};
              for (std::int64_t kd = 0; kd < k; ++kd) {
                for (std::int64_t kh = 0; kh < k; ++kh) {
                  const float* srow =
                      src.data() +
                      (((cb * in_d_ + od * s + kd) * in_h_ + oh * s + kh) *
                           in_w_ +
                       ow * s) *
                          kB;
                  for (std::int64_t kw = 0; kw < k; ++kw) {
                    const float* v = srow + kw * kB;
                    for (int c = 0; c < kB; ++c) acc[c] += v[c];
                  }
                }
              }
              float* d = drow + ow * kB;
              for (int c = 0; c < kB; ++c) d[c] = acc[c] * inv;
            }
          }
        }
      },
      exec.intraop_grain);
}

void AvgPool3d::backward_data(const Tensor& /*src*/, const Tensor& /*dst*/,
                              const Tensor& ddst, Tensor& dsrc,
                              LayerExecState& exec,
                              runtime::ThreadPool& pool) const {
  if (ddst.shape() != output_shape() || dsrc.shape() != input_shape()) {
    throw std::invalid_argument("AvgPool3d::backward_data: shape mismatch");
  }
  const std::int64_t k = config_.kernel;
  const std::int64_t s = config_.stride;
  const float inv = 1.0f / static_cast<float>(k * k * k);

  if (s >= k) {
    // Non-overlapping windows (the CosmoFlow case, k == s == 2): every
    // dsrc element belongs to at most one window, so broadcast
    // ddst * inv straight into it with *assignments* — no zero() pass,
    // one write stream instead of two. Elements outside every window
    // (the s > k gaps and the in % s tails) are zeroed explicitly, so
    // the pass fully overwrites dsrc and is safe on reused (dirty)
    // planner buffers. Each (cb, od) job owns the disjoint depth slice
    // [od*s, (od+1)*s) — plus the depth tail for the last od — which
    // both widens the parallel decomposition from cb_ to cb_ * out_d_
    // jobs and keeps writes race-free.
    const std::size_t row_bytes =
        static_cast<std::size_t>(in_w_) * kB * sizeof(float);
    pool.parallel_for(
        static_cast<std::size_t>(cb_ * out_d_),
        [&](std::size_t begin, std::size_t end, std::size_t) {
          for (std::size_t job = begin; job < end; ++job) {
            const std::int64_t cb = static_cast<std::int64_t>(job) / out_d_;
            const std::int64_t od = static_cast<std::int64_t>(job) % out_d_;
            const std::int64_t id_end =
                od + 1 == out_d_ ? in_d_ : (od + 1) * s;
            for (std::int64_t id = od * s; id < id_end; ++id) {
              float* plane =
                  dsrc.data() + ((cb * in_d_ + id) * in_h_) * in_w_ * kB;
              if (id - od * s >= k) {  // gap/tail plane: no window hits it
                std::memset(plane, 0,
                            static_cast<std::size_t>(in_h_) * row_bytes);
                continue;
              }
              for (std::int64_t ih = 0; ih < in_h_; ++ih) {
                float* trow = plane + ih * in_w_ * kB;
                const std::int64_t oh = ih / s;
                if (oh >= out_h_ || ih - oh * s >= k) {  // gap/tail row
                  std::memset(trow, 0, row_bytes);
                  continue;
                }
                const float* drow =
                    ddst.data() +
                    (((cb * out_d_ + od) * out_h_ + oh) * out_w_) * kB;
                for (std::int64_t ow = 0; ow < out_w_; ++ow) {
                  const float* d = drow + ow * kB;
                  float* t = trow + ow * s * kB;
                  for (std::int64_t kw = 0; kw < k; ++kw) {
                    for (int c = 0; c < kB; ++c) {
                      t[kw * kB + c] = d[c] * inv;
                    }
                  }
                  // Gap between this window and the next; the stretch
                  // after the last window belongs to the tail memset
                  // below (the gap's end (ow+1)*s may exceed in_w_).
                  if (s > k && ow + 1 < out_w_) {
                    std::memset(t + k * kB, 0,
                                static_cast<std::size_t>(s - k) * kB *
                                    sizeof(float));
                  }
                }
                const std::int64_t tail = (out_w_ - 1) * s + k;
                if (tail < in_w_) {
                  std::memset(trow + tail * kB, 0,
                              static_cast<std::size_t>(in_w_ - tail) * kB *
                                  sizeof(float));
                }
              }
            }
          }
        },
        exec.intraop_grain);
    return;
  }

  // Overlapping windows (stride < kernel): contributions accumulate, so
  // zero first; the per-cb decomposition keeps the += writes race-free.
  dsrc.zero();
  pool.parallel_for(
      static_cast<std::size_t>(cb_),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t cbi = begin; cbi < end; ++cbi) {
          const std::int64_t cb = static_cast<std::int64_t>(cbi);
          for (std::int64_t od = 0; od < out_d_; ++od) {
            for (std::int64_t oh = 0; oh < out_h_; ++oh) {
              const float* drow =
                  ddst.data() +
                  (((cb * out_d_ + od) * out_h_ + oh) * out_w_) * kB;
              for (std::int64_t ow = 0; ow < out_w_; ++ow) {
                const float* d = drow + ow * kB;
                for (std::int64_t kd = 0; kd < k; ++kd) {
                  for (std::int64_t kh = 0; kh < k; ++kh) {
                    float* trow =
                        dsrc.data() +
                        (((cb * in_d_ + od * s + kd) * in_h_ + oh * s +
                          kh) *
                             in_w_ +
                         ow * s) *
                            kB;
                    for (std::int64_t kw = 0; kw < k; ++kw) {
                      float* t = trow + kw * kB;
                      for (int c = 0; c < kB; ++c) t[c] += d[c] * inv;
                    }
                  }
                }
              }
            }
          }
        }
      },
      exec.intraop_grain);
}

void avgpool3d_forward_reference(const Tensor& src, std::int64_t kernel,
                                 std::int64_t stride, Tensor& dst) {
  if (src.shape().rank() != 4 || dst.shape().rank() != 4) {
    throw std::invalid_argument("avgpool reference: expected plain rank-4");
  }
  const std::int64_t c = src.shape()[0];
  const std::int64_t id = src.shape()[1];
  const std::int64_t ih = src.shape()[2];
  const std::int64_t iw = src.shape()[3];
  const std::int64_t od = tensor::conv_out_dim(id, kernel, stride, 0);
  const std::int64_t oh = tensor::conv_out_dim(ih, kernel, stride, 0);
  const std::int64_t ow = tensor::conv_out_dim(iw, kernel, stride, 0);
  if (dst.shape() != Shape{c, od, oh, ow}) {
    throw std::invalid_argument("avgpool reference: bad dst shape");
  }
  const double inv = 1.0 / static_cast<double>(kernel * kernel * kernel);
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t d = 0; d < od; ++d) {
      for (std::int64_t h = 0; h < oh; ++h) {
        for (std::int64_t w = 0; w < ow; ++w) {
          double acc = 0.0;
          for (std::int64_t kd = 0; kd < kernel; ++kd) {
            for (std::int64_t kh = 0; kh < kernel; ++kh) {
              for (std::int64_t kw = 0; kw < kernel; ++kw) {
                acc += src.at(
                    {ch, d * stride + kd, h * stride + kh, w * stride + kw});
              }
            }
          }
          dst.at({ch, d, h, w}) = static_cast<float>(acc * inv);
        }
      }
    }
  }
}

}  // namespace cf::dnn
