// Dense float32 tensor with 64-byte-aligned storage.
//
// Activations, weights and gradients are all f32 (the paper trains in
// single precision). A Tensor is a shape plus owned storage; layers
// interpret the same storage in either plain (row-major) or blocked
// (nCdhw16c) layouts — see tensor/layout.hpp.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "runtime/aligned_buffer.hpp"
#include "tensor/shape.hpp"

namespace cf::tensor {

class Tensor {
 public:
  Tensor() = default;

  /// Allocates storage for `shape`; contents are zero-initialized.
  explicit Tensor(Shape shape);

  /// Allocates and copies `values` (size must match shape.numel()).
  Tensor(Shape shape, std::span<const float> values);

  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&&) noexcept = default;
  Tensor(const Tensor&) = delete;
  Tensor& operator=(const Tensor&) = delete;

  /// Deep copy (explicit, to keep accidental copies out of kernels).
  Tensor clone() const;

  const Shape& shape() const noexcept { return shape_; }
  std::size_t size() const noexcept {
    return view_ != nullptr ? view_size_ : data_.size();
  }
  bool empty() const noexcept { return size() == 0; }

  float* data() noexcept { return view_ != nullptr ? view_ : data_.data(); }
  const float* data() const noexcept {
    return view_ != nullptr ? view_ : data_.data();
  }

  std::span<float> values() noexcept { return {data(), size()}; }
  std::span<const float> values() const noexcept { return {data(), size()}; }

  float& operator[](std::size_t i) noexcept { return data()[i]; }
  float operator[](std::size_t i) const noexcept { return data()[i]; }

  /// Row-major multi-index access (bounds-checked); test/debug helper.
  float& at(std::initializer_list<std::int64_t> index);
  float at(std::initializer_list<std::int64_t> index) const;

  void fill(float value) noexcept;
  void zero() noexcept { fill(0.0f); }

  /// Reinterpret the same storage with a new shape of equal numel.
  void reshape(Shape shape);

  /// Rebinds this tensor onto externally owned storage (the network's
  /// parameter/gradient arena), copying the current contents over and
  /// releasing the owned buffer. `storage.size()` must equal numel and
  /// must outlive the tensor. Kernels keep working unchanged — they
  /// only ever touch data()/values().
  void rebind(std::span<float> storage);

  /// False once rebind() has pointed the tensor at an arena segment.
  bool owns_storage() const noexcept { return view_ == nullptr; }

  std::vector<float> to_vector() const;

 private:
  std::size_t flat_index(std::initializer_list<std::int64_t> index) const;

  Shape shape_;
  runtime::AlignedBuffer<float> data_;
  // Non-owning view set by rebind(); data()/size() prefer it.
  float* view_ = nullptr;
  std::size_t view_size_ = 0;
};

}  // namespace cf::tensor
