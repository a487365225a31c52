#include "dnn/network.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "dnn/activations.hpp"

namespace cf::dnn {

using tensor::Shape;
using tensor::Tensor;

void Network::add(std::unique_ptr<Layer> layer) {
  if (finalized_) {
    throw std::logic_error("Network::add: network already finalized");
  }
  if (layer == nullptr) {
    throw std::invalid_argument("Network::add: null layer");
  }
  layers_.push_back(std::move(layer));
}

void Network::fuse_activations() {
  // A LeakyRelu folds into the node before it when that node accepts
  // it; one at node 0 has no producer and stays.
  std::vector<std::unique_ptr<Layer>> kept;
  kept.reserve(layers_.size());
  for (std::unique_ptr<Layer>& layer : layers_) {
    if (const auto* act = dynamic_cast<const LeakyRelu*>(layer.get())) {
      if (!kept.empty() &&
          kept.back()->fuse_leaky_relu(act->negative_slope())) {
        ++fused_pairs_;
        continue;
      }
    }
    kept.push_back(std::move(layer));
  }
  layers_ = std::move(kept);
}

void Network::plan_memory() {
  mem_plan_ = MemPlan{};
  std::size_t slot_max[2] = {0, 0};  // largest even, largest odd node
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& layer = *layers_[i];
    const std::size_t size =
        static_cast<std::size_t>(layer.output_shape().numel());
    mem_plan_.act_sum += size;
    mem_plan_.diff_sum += size;
    slot_max[i % 2] = std::max(slot_max[i % 2], size);
    const std::size_t sc = layer.backward_scratch_floats();
    mem_plan_.scratch_max = std::max(mem_plan_.scratch_max, sc);
    mem_plan_.scratch_sum += sc;
    const std::size_t ws = layer.forward_workspace_floats();
    mem_plan_.workspace_max = std::max(mem_plan_.workspace_max, ws);
    mem_plan_.workspace_sum += ws;
  }
  even_slot_floats_ = slot_max[0];
  slot_floats_ = slot_max[0] + slot_max[1];
}

void Network::finalize(const Shape& input_shape) {
  if (finalized_) throw std::logic_error("Network::finalize: called twice");
  if (layers_.empty()) {
    throw std::logic_error("Network::finalize: no layers");
  }
  if (fuse_eltwise_) fuse_activations();
  input_shape_ = input_shape;
  // Plan pass over the chain: each node sees its predecessor's output.
  Shape shape = input_shape;
  for (const std::unique_ptr<Layer>& layer : layers_) {
    shape = layer->plan(shape);
  }
  output_shape_ = shape;
  build_arena();
  plan_memory();
  finalized_ = true;
}

ExecContext Network::make_context(ExecMode mode) {
  if (!finalized_) {
    throw std::logic_error("Network::make_context: not finalized");
  }
  return ExecContext(*this, mode);
}

ExecContext Network::make_context(ExecMode mode) const {
  if (mode != ExecMode::kInference) {
    throw std::logic_error(
        "Network::make_context: only inference contexts can be created "
        "from a const Network");
  }
  if (!finalized_) {
    throw std::logic_error("Network::make_context: not finalized");
  }
  // The cast only unlocks const accessors in practice: an inference
  // context performs no mutating Network access (enforced by the mode
  // checks in ExecContext), so this never writes through the pointer.
  return ExecContext(const_cast<Network&>(*this), mode);
}

ExecContext Network::make_context(ExecMode mode, Precision precision) {
  if (!finalized_) {
    throw std::logic_error("Network::make_context: not finalized");
  }
  if (precision != Precision::kFp32 && mode != ExecMode::kInference) {
    throw std::logic_error(
        "Network::make_context: training contexts are fp32-only "
        "(DESIGN.md §2.5)");
  }
  if (!precision_prepared(precision)) {
    throw std::logic_error(
        std::string("Network::make_context: network not prepared for ") +
        std::string(to_string(precision)) +
        " (call prepare_inference_precision after loading weights)");
  }
  return ExecContext(*this, mode, precision);
}

ExecContext Network::make_context(ExecMode mode, Precision precision) const {
  if (mode != ExecMode::kInference) {
    throw std::logic_error(
        "Network::make_context: only inference contexts can be created "
        "from a const Network");
  }
  if (!finalized_) {
    throw std::logic_error("Network::make_context: not finalized");
  }
  if (!precision_prepared(precision)) {
    throw std::logic_error(
        std::string("Network::make_context: network not prepared for ") +
        std::string(to_string(precision)) +
        " (call prepare_inference_precision after loading weights)");
  }
  return ExecContext(const_cast<Network&>(*this), mode, precision);
}

ExecContext Network::make_context(ExecMode mode, Precision precision,
                                  const IntraopPlan& plan) {
  ExecContext ctx = make_context(mode, precision);
  ctx.apply_intraop(plan);
  return ctx;
}

ExecContext Network::make_context(ExecMode mode, Precision precision,
                                  const IntraopPlan& plan) const {
  ExecContext ctx = make_context(mode, precision);
  ctx.apply_intraop(plan);
  return ctx;
}

void Network::prepare_inference_precision(Precision precision) {
  if (!finalized_) {
    throw std::logic_error(
        "Network::prepare_inference_precision: not finalized");
  }
  if (precision == Precision::kFp32) return;  // always ready
  for (const std::unique_ptr<Layer>& layer : layers_) {
    if (!layer->supports_precision(precision)) {
      throw std::logic_error(
          "Network::prepare_inference_precision: layer " + layer->name() +
          " does not support " + std::string(to_string(precision)));
    }
  }
  // bf16 image of the whole arena; segment offsets carry over 1:1.
  if (bf16_arena_.size() != param_arena_.size()) {
    bf16_arena_ = runtime::AlignedBuffer<bf16_t>(param_arena_.size());
  }
  bf16_from_f32(param_arena_.data(), bf16_arena_.data(),
                param_arena_.size());
  // Layers whose bf16 kernels read a different weight packing (the
  // dense layers' vdpbf16ps pair-interleaved tiles; convs keep the
  // plain image and widen on load) repack their slice in place.
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (segment_sizes_[i] == 0) continue;
    layers_[i]->pack_weights_bf16(
        {bf16_arena_.data() + segment_offsets_[i], segment_sizes_[i]});
  }
  bf16_prepared_ = true;
}

std::size_t Network::activation_bytes() const noexcept {
  return mem_plan_.act_sum * sizeof(float);
}

std::size_t Network::diff_arena_bytes() const noexcept {
  const std::size_t n = memplan_ ? slot_floats_ : mem_plan_.diff_sum;
  return n * sizeof(float);
}

std::size_t Network::scratch_bytes() const noexcept {
  const std::size_t n =
      memplan_ ? mem_plan_.scratch_max : mem_plan_.scratch_sum;
  return n * sizeof(float);
}

void Network::build_arena() {
  const std::size_t n = layers_.size();
  segment_offsets_.assign(n, 0);
  segment_sizes_.assign(n, 0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    segment_offsets_[i] = total;
    for (const ParamSpec& p : layers_[i]->param_specs()) {
      segment_sizes_[i] += static_cast<std::size_t>(p.value->shape().numel());
    }
    total += segment_sizes_[i];
  }
  param_arena_ = runtime::AlignedBuffer<float>(total);
  // Rebind every layer weight tensor onto its arena segment; plan()
  // contents (zeros — init runs after finalize) are carried over by
  // rebind.
  std::size_t offset = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (const ParamSpec& p : layers_[i]->param_specs()) {
      const std::size_t count =
          static_cast<std::size_t>(p.value->shape().numel());
      p.value->rebind({param_arena_.data() + offset, count});
      offset += count;
    }
  }
}

std::int64_t Network::param_count() const {
  if (finalized_) return static_cast<std::int64_t>(param_arena_.size());
  std::int64_t count = 0;
  for (const std::unique_ptr<Layer>& layer : layers_) {
    count += layer->param_count();
  }
  return count;
}

FlopCounts Network::flops(bool skip_first_bwd_data) const {
  FlopCounts total;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    FlopCounts f = layers_[i]->flops();
    // Node 0 owes no data gradient: its source is the network input,
    // which is data (§V-A workflow).
    if (skip_first_bwd_data && i == 0) f.bwd_data = 0;
    total += f;
  }
  return total;
}

namespace {

void check_flat_size(std::size_t got, std::size_t expected) {
  if (got != expected) {
    throw std::invalid_argument(
        "Network flat vector: span size does not match parameter count");
  }
}

}  // namespace

void Network::copy_params_to(std::span<float> out) const {
  check_flat_size(out.size(), param_arena_.size());
  if (param_arena_.empty()) return;
  std::memcpy(out.data(), param_arena_.data(),
              param_arena_.size() * sizeof(float));
}

void Network::set_params_from(std::span<const float> in) {
  check_flat_size(in.size(), param_arena_.size());
  if (param_arena_.empty()) return;
  std::memcpy(param_arena_.data(), in.data(),
              param_arena_.size() * sizeof(float));
}

}  // namespace cf::dnn
