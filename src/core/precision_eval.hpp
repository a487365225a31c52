// Shared fixture for the reduced-precision accuracy gates
// (DESIGN.md §2.5): the tolerance test, the precision ablation bench
// and the serving flag all compare bf16 predictions against the
// fp32 reference on the SAME deterministic input set, so a tolerance
// measured in one place is the tolerance enforced everywhere.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace cf::core {

/// `count` deterministic standard-normal inputs of `shape` — the fixed
/// calibration/eval set. Input i is drawn from Philox stream (seed, i),
/// so the set is stable under reordering and count changes.
std::vector<tensor::Tensor> precision_eval_inputs(
    const tensor::Shape& shape, std::size_t count,
    std::uint64_t seed = 41);

/// Mean absolute error between two prediction vectors (flattened over
/// samples x outputs). Spans must be equal-sized and non-empty.
double prediction_mae(std::span<const float> a, std::span<const float> b);

}  // namespace cf::core
