#include "dnn/network.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace cf::dnn {

using tensor::Shape;
using tensor::Tensor;

void Network::add(std::unique_ptr<Layer> layer) {
  // Sequential sugar: consume the previously added node (the network
  // input for the first layer) — lowers onto a linear graph.
  add_node(std::move(layer), {last_node_});
}

NodeId Network::add_node(std::unique_ptr<Layer> layer,
                         std::vector<NodeId> inputs) {
  if (finalized_) {
    throw std::logic_error("Network::add_node: network already finalized");
  }
  last_node_ = graph_.add(std::move(layer), std::move(inputs));
  return last_node_;
}

void Network::set_heads(std::vector<NodeId> heads) {
  if (finalized_) {
    throw std::logic_error("Network::set_heads: network already finalized");
  }
  graph_.set_heads(std::move(heads));
}

namespace {

/// One tensor's live interval on a pass timeline (positions inclusive).
struct LiveInterval {
  std::size_t node = 0;
  std::size_t start = 0;
  std::size_t end = 0;
  std::size_t size = 0;  // floats
};

/// Greedy interval coloring: process intervals in birth order and put
/// each tensor in the first slot whose previous occupant is already
/// dead, growing each slot to its largest occupant. Slots are then
/// canonically reordered by the smallest node id they serve before
/// offsets are assigned — on a linear chain this reproduces the
/// historical even/odd parity placement bit for bit (the slot serving
/// node 0 sits at offset 0).
Network::SlotPlan color_slots(std::vector<LiveInterval> intervals,
                              std::size_t n_nodes) {
  std::sort(intervals.begin(), intervals.end(),
            [](const LiveInterval& a, const LiveInterval& b) {
              if (a.start != b.start) return a.start < b.start;
              // Equal starts: the contribution written earliest on the
              // timeline first (for diffs that is the head seeding /
              // the later-scheduled node's backward).
              return a.node > b.node;
            });

  struct Slot {
    std::size_t end = 0;
    std::size_t size = 0;
    std::size_t min_node = 0;
  };
  std::vector<Slot> slots;
  std::vector<std::size_t> slot_of(n_nodes, 0);
  for (const LiveInterval& iv : intervals) {
    std::size_t chosen = slots.size();
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].end < iv.start) {
        chosen = s;
        break;
      }
    }
    if (chosen == slots.size()) {
      slots.push_back(Slot{iv.end, iv.size, iv.node});
    } else {
      slots[chosen].end = iv.end;
      slots[chosen].size = std::max(slots[chosen].size, iv.size);
      slots[chosen].min_node = std::min(slots[chosen].min_node, iv.node);
    }
    slot_of[iv.node] = chosen;
  }

  std::vector<std::size_t> order(slots.size());
  for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return slots[a].min_node < slots[b].min_node;
  });
  std::vector<std::size_t> slot_offset(slots.size(), 0);
  Network::SlotPlan plan;
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    slot_offset[order[rank]] = plan.total;
    plan.total += slots[order[rank]].size;
  }
  plan.offsets.resize(n_nodes, 0);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    plan.offsets[i] = slot_offset[slot_of[i]];
  }
  plan.slot_count = slots.size();
  return plan;
}

}  // namespace

void Network::plan_memory() {
  const std::size_t n = graph_.size();
  mem_plan_ = MemPlan{};
  std::vector<std::size_t> sizes(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Layer& layer = graph_.layer(i);
    sizes[i] = static_cast<std::size_t>(layer.output_shape().numel());
    mem_plan_.act_sum += sizes[i];
    mem_plan_.diff_sum += sizes[i];
    const std::size_t sc = layer.backward_scratch_floats();
    mem_plan_.scratch_max = std::max(mem_plan_.scratch_max, sc);
    mem_plan_.scratch_sum += sc;
    const std::size_t ws = layer.forward_workspace_floats();
    mem_plan_.workspace_max = std::max(mem_plan_.workspace_max, ws);
    mem_plan_.workspace_sum += ws;
  }

  // Activation liveness (forward timeline, position i = node i's
  // forward): born when produced, dead after the last consumer ran;
  // heads survive the whole pass (the caller reads them).
  std::vector<LiveInterval> act_iv(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t end = graph_.is_head(i) ? n : i;
    for (NodeId c : graph_.consumers(i)) end = std::max(end, c);
    act_iv[i] = {i, i, end, sizes[i]};
  }
  act_slots_ = color_slots(std::move(act_iv), n);

  // Diff liveness (reverse timeline, position n-1-i = node i's
  // backward): born at the first gradient contribution — a consumer's
  // backward, or the pre-sweep dloss seeding for heads — and dead once
  // node i's own backward consumed it.
  std::vector<LiveInterval> diff_iv(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t start =
        graph_.is_head(i) ? 0 : std::numeric_limits<std::size_t>::max();
    for (NodeId c : graph_.consumers(i)) {
      start = std::min(start, n - 1 - c);
    }
    diff_iv[i] = {i, start, n - 1 - i, sizes[i]};
  }
  diff_slots_ = color_slots(std::move(diff_iv), n);
}

void Network::finalize(const Shape& input_shape) {
  if (finalized_) throw std::logic_error("Network::finalize: called twice");
  if (graph_.empty()) {
    throw std::logic_error("Network::finalize: no layers");
  }
  if (fuse_eltwise_) {
    fused_pairs_ = graph_.fuse_eltwise();
  }
  graph_.seal();
  input_shape_ = input_shape;

  // Plan pass over the schedule: every node sees its producers' output
  // shapes, in edge order.
  const std::size_t n = graph_.size();
  std::vector<Shape> shapes(n);
  std::vector<Shape> node_inputs;
  for (std::size_t i = 0; i < n; ++i) {
    node_inputs.clear();
    for (NodeId p : graph_.inputs(i)) {
      node_inputs.push_back(p == kGraphInput ? input_shape : shapes[p]);
    }
    shapes[i] = graph_.layer(i).plan(node_inputs);
  }

  // Output heads: a single head keeps its own shape; multiple heads
  // concatenate flat, in head order.
  const std::vector<NodeId>& heads = graph_.heads();
  head_offsets_.assign(heads.size(), 0);
  if (heads.size() == 1) {
    output_shape_ = shapes[heads[0]];
  } else {
    std::int64_t total = 0;
    for (std::size_t h = 0; h < heads.size(); ++h) {
      head_offsets_[h] = static_cast<std::size_t>(total);
      total += shapes[heads[h]].numel();
    }
    output_shape_ = Shape{total};
  }

  build_arena();
  plan_memory();
  finalized_ = true;
}

ExecContext Network::make_context(ExecMode mode) {
  if (!finalized_) {
    throw std::logic_error("Network::make_context: not finalized");
  }
  if (mode == ExecMode::kTraining && weights_shared_) {
    throw std::logic_error(
        "Network::make_context: shape views are inference-only "
        "(train through the parent network)");
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
  if (mode == ExecMode::kTraining && weights_shared_) {
    throw std::logic_error(
        "Network::make_context: shape views are inference-only "
        "(train through the parent network)");
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

std::unique_ptr<Network> Network::make_shape_view(
    const Shape& input_shape) const {
  if (!finalized_) {
    throw std::logic_error("Network::make_shape_view: not finalized");
  }
  if (weights_shared_) {
    throw std::logic_error(
        "Network::make_shape_view: cannot view a view (use the parent)");
  }
  auto view = std::make_unique<Network>();
  // The topology is already post-fusion; re-running the fusion pass
  // would double-fuse. Memory planning carries over.
  view->set_fuse_eltwise(false);
  view->set_memory_planning(memplan_);
  for (std::size_t i = 0; i < graph_.size(); ++i) {
    view->add_node(graph_.layer(i).clone_unplanned(), graph_.inputs(i));
  }
  view->set_heads(graph_.heads());
  view->finalize(input_shape);

  // Share the weights: every view parameter tensor aliases the parent's
  // arena segment (no copy — see Tensor::alias), so a weight reload on
  // the parent is immediately visible through the view. Requires every
  // parameter shape to be input-size invariant.
  for (std::size_t i = 0; i < graph_.size(); ++i) {
    if (view->segment_sizes_[i] != segment_sizes_[i]) {
      throw std::invalid_argument(
          "Network::make_shape_view: layer " + graph_.layer(i).name() +
          "'s parameter count depends on the input shape (" +
          std::to_string(view->segment_sizes_[i]) + " vs " +
          std::to_string(segment_sizes_[i]) +
          " floats) — use a shape-agnostic head (GlobalAvgPool)");
    }
  }
  // Views only read weights (inference-only, enforced in make_context),
  // so aliasing through the const parent is sound — same argument as
  // the const make_context overloads.
  float* arena = const_cast<float*>(param_arena_.data());
  std::size_t offset = 0;
  for (std::size_t i = 0; i < view->graph_.size(); ++i) {
    for (const ParamSpec& p : view->graph_.layer(i).param_specs()) {
      const std::size_t count =
          static_cast<std::size_t>(p.value->shape().numel());
      p.value->alias({arena + offset, count});
      offset += count;
    }
  }
  view->param_arena_ = runtime::AlignedBuffer<float>{};
  view->weights_shared_ = true;
  return view;
}

void Network::prepare_inference_precision(Precision precision) {
  if (!finalized_) {
    throw std::logic_error(
        "Network::prepare_inference_precision: not finalized");
  }
  if (precision == Precision::kFp32) return;  // always ready
  for (std::size_t i = 0; i < graph_.size(); ++i) {
    const Layer& layer = graph_.layer(i);
    if (!layer.supports_precision(precision)) {
      throw std::logic_error(
          "Network::prepare_inference_precision: layer " + layer.name() +
          " does not support " + std::string(to_string(precision)));
    }
  }
  if (weights_shared_) {
    throw std::logic_error(
        "Network::prepare_inference_precision: a shape view has no "
        "param arena to image — prepare bf16 on the parent");
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
  for (std::size_t i = 0; i < graph_.size(); ++i) {
    if (segment_sizes_[i] == 0) continue;
    graph_.layer(i).pack_weights_bf16(
        {bf16_arena_.data() + segment_offsets_[i], segment_sizes_[i]});
  }
  bf16_prepared_ = true;
}

std::size_t Network::activation_bytes() const noexcept {
  return mem_plan_.act_sum * sizeof(float);
}

std::size_t Network::diff_arena_bytes() const noexcept {
  const std::size_t n = memplan_ ? diff_slots_.total : mem_plan_.diff_sum;
  return n * sizeof(float);
}

std::size_t Network::scratch_bytes() const noexcept {
  const std::size_t n =
      memplan_ ? mem_plan_.scratch_max : mem_plan_.scratch_sum;
  return n * sizeof(float);
}

std::span<float> Network::param_arena() {
  if (weights_shared_) {
    throw std::logic_error(
        "Network::param_arena: shape views share the parent's arena");
  }
  return {param_arena_.data(), param_arena_.size()};
}

void Network::build_arena() {
  const std::size_t n = graph_.size();
  segment_offsets_.assign(n, 0);
  segment_sizes_.assign(n, 0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    segment_offsets_[i] = total;
    for (const ParamSpec& p : graph_.layer(i).param_specs()) {
      segment_sizes_[i] += static_cast<std::size_t>(p.value->shape().numel());
    }
    total += segment_sizes_[i];
  }
  param_arena_ = runtime::AlignedBuffer<float>(total);
  param_total_ = total;
  // Rebind every layer weight tensor onto its arena segment; plan()
  // contents (zeros — init runs after finalize) are carried over by
  // rebind.
  std::size_t offset = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (const ParamSpec& p : graph_.layer(i).param_specs()) {
      const std::size_t count =
          static_cast<std::size_t>(p.value->shape().numel());
      p.value->rebind({param_arena_.data() + offset, count});
      offset += count;
    }
  }
}

std::int64_t Network::param_count() const {
  if (finalized_) return static_cast<std::int64_t>(param_total_);
  // param_specs() is non-const only because it hands out mutable
  // tensor pointers; counting reads shapes alone.
  std::int64_t count = 0;
  for (std::size_t i = 0; i < graph_.size(); ++i) {
    count += const_cast<Layer&>(graph_.layer(i)).param_count();
  }
  return count;
}

FlopCounts Network::flops(bool skip_first_bwd_data) const {
  FlopCounts total;
  for (std::size_t i = 0; i < graph_.size(); ++i) {
    FlopCounts f = graph_.layer(i).flops();
    if (skip_first_bwd_data) {
      // A node reading only the network input owes no data gradient
      // (the input is data, §V-A workflow).
      bool input_only = true;
      for (NodeId p : graph_.inputs(i)) {
        if (p != kGraphInput) input_only = false;
      }
      if (input_only) f.bwd_data = 0;
    }
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
  if (weights_shared_) {
    throw std::logic_error(
        "Network::copy_params_to: shape views share the parent's "
        "weights — copy from the parent");
  }
  check_flat_size(out.size(), param_arena_.size());
  if (param_arena_.empty()) return;
  std::memcpy(out.data(), param_arena_.data(),
              param_arena_.size() * sizeof(float));
}

void Network::set_params_from(std::span<const float> in) {
  if (weights_shared_) {
    throw std::logic_error(
        "Network::set_params_from: shape views share the parent's "
        "weights — load through the parent");
  }
  check_flat_size(in.size(), param_arena_.size());
  if (param_arena_.empty()) return;
  std::memcpy(param_arena_.data(), in.data(),
              param_arena_.size() * sizeof(float));
}

}  // namespace cf::dnn
