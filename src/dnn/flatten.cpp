#include "dnn/flatten.hpp"

#include <stdexcept>

#include "tensor/layout.hpp"

namespace cf::dnn {

using tensor::kChannelBlock;
using tensor::Shape;
using tensor::Tensor;

Flatten::Flatten(std::string name, std::int64_t channels)
    : Layer(std::move(name)), channels_(channels) {
  if (channels <= 0) {
    throw std::invalid_argument("Flatten: channels must be positive");
  }
}

Shape Flatten::plan(const Shape& input) {
  if (input.rank() != 5 || input[4] != kChannelBlock ||
      input[0] != tensor::blocked_channel_count(channels_)) {
    throw std::invalid_argument("Flatten::plan: expected blocked input "
                                "matching channel count, got " +
                                input.to_string());
  }
  d_ = input[1];
  h_ = input[2];
  w_ = input[3];
  const Shape out{channels_ * d_ * h_ * w_};
  set_shapes(input, out);
  return out;
}

void Flatten::forward(const Tensor& src, Tensor& dst,
                      LayerExecState& /*exec*/,
                      runtime::ThreadPool& pool) const {
  if (src.shape() != input_shape() || dst.shape() != output_shape()) {
    throw std::invalid_argument("Flatten::forward: shape mismatch");
  }
  const std::int64_t spatial = d_ * h_ * w_;
  // Strided gather of a few KiB at small spatial sizes — stay on the
  // caller rather than paying the pool wake-up.
  const std::size_t grain =
      channels_ * spatial <= 4096 ? static_cast<std::size_t>(channels_) : 1;
  pool.parallel_for(
      static_cast<std::size_t>(channels_),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t chi = begin; chi < end; ++chi) {
          const std::int64_t ch = static_cast<std::int64_t>(chi);
          const std::int64_t block = ch / kChannelBlock;
          const std::int64_t lane = ch % kChannelBlock;
          const float* s =
              src.data() + block * spatial * kChannelBlock + lane;
          float* d = dst.data() + ch * spatial;
          for (std::int64_t v = 0; v < spatial; ++v) {
            d[v] = s[v * kChannelBlock];
          }
        }
      },
      grain);
}

void Flatten::backward_data(const Tensor& /*src*/, const Tensor& /*dst*/,
                            const Tensor& ddst, Tensor& dsrc,
                            LayerExecState& /*exec*/,
                            runtime::ThreadPool& pool) const {
  if (ddst.shape() != output_shape() || dsrc.shape() != input_shape()) {
    throw std::invalid_argument("Flatten::backward_data: shape mismatch");
  }
  const std::int64_t spatial = d_ * h_ * w_;
  // Padded lanes (channels_ < Cb * 16) must stay zero in dsrc.
  if (channels_ % kChannelBlock != 0) dsrc.zero();
  const std::size_t grain =
      channels_ * spatial <= 4096 ? static_cast<std::size_t>(channels_) : 1;
  pool.parallel_for(
      static_cast<std::size_t>(channels_),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t chi = begin; chi < end; ++chi) {
          const std::int64_t ch = static_cast<std::int64_t>(chi);
          const std::int64_t block = ch / kChannelBlock;
          const std::int64_t lane = ch % kChannelBlock;
          const float* d = ddst.data() + ch * spatial;
          float* t = dsrc.data() + block * spatial * kChannelBlock + lane;
          for (std::int64_t v = 0; v < spatial; ++v) {
            t[v * kChannelBlock] = d[v];
          }
        }
      },
      grain);
}

}  // namespace cf::dnn
