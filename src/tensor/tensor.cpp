#include "tensor/tensor.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace cf::tensor {

Tensor::Tensor(Shape shape)
    : shape_(shape),
      data_(static_cast<std::size_t>(shape.numel())) {
  zero();
}

Tensor::Tensor(Shape shape, std::span<const float> values) : Tensor(shape) {
  if (values.size() != data_.size()) {
    throw std::invalid_argument("Tensor: value count does not match shape " +
                                shape.to_string());
  }
  std::memcpy(data_.data(), values.data(), values.size() * sizeof(float));
}

Tensor Tensor::clone() const {
  Tensor copy(shape_);
  std::memcpy(copy.data_.data(), data(), size() * sizeof(float));
  return copy;
}

void Tensor::rebind(std::span<float> storage) {
  if (storage.size() != size()) {
    throw std::invalid_argument(
        "Tensor::rebind: storage size does not match shape " +
        shape_.to_string());
  }
  if (storage.data() != data()) {
    std::memcpy(storage.data(), data(), size() * sizeof(float));
  }
  data_ = runtime::AlignedBuffer<float>{};  // release owned storage
  view_ = storage.data();
  view_size_ = storage.size();
}

std::size_t Tensor::flat_index(
    std::initializer_list<std::int64_t> index) const {
  if (index.size() != shape_.rank()) {
    throw std::invalid_argument("Tensor::at: index rank mismatch");
  }
  std::size_t flat = 0;
  std::size_t axis = 0;
  for (const std::int64_t i : index) {
    if (i < 0 || i >= shape_.dim(axis)) {
      throw std::out_of_range("Tensor::at: index out of range on axis " +
                              std::to_string(axis));
    }
    flat += static_cast<std::size_t>(i * shape_.stride(axis));
    ++axis;
  }
  return flat;
}

float& Tensor::at(std::initializer_list<std::int64_t> index) {
  return data()[flat_index(index)];
}

float Tensor::at(std::initializer_list<std::int64_t> index) const {
  return data()[flat_index(index)];
}

void Tensor::fill(float value) noexcept {
  std::fill_n(data(), size(), value);
}

void Tensor::reshape(Shape shape) {
  if (shape.numel() != shape_.numel()) {
    throw std::invalid_argument("Tensor::reshape: numel mismatch " +
                                shape_.to_string() + " -> " +
                                shape.to_string());
  }
  shape_ = shape;
}

std::vector<float> Tensor::to_vector() const {
  return {data(), data() + size()};
}

}  // namespace cf::tensor
