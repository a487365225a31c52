// Network container — the *model* half of the model/stream split
// (DESIGN.md §2.3), organized as a graph IR (DESIGN.md §2.8). The
// Network owns a dnn::Graph (node = layer, edge = tensor, fan-out and
// multiple output heads allowed) whose insertion order is the
// topologically-sorted execution schedule. After finalize() a Network
// is immutable: it owns the layers (geometry + weights), the flat
// contiguous parameter arena every weight tensor is rebound onto, and
// the plans computed by the edge-aware fusion and interval-liveness
// memory-planner passes. Nothing here changes during a step, so any
// number of execution streams can run against one Network concurrently
// — each stream's mutable state (activations, diffs, scratch,
// gradients, staging) lives in a dnn::ExecContext created via
// make_context().
//
// Sequential networks built through add()/emplace() lower onto linear
// graphs and stay bitwise identical to the pre-IR container end to end
// (trajectories, fused pairs, planned byte budgets).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dnn/exec_context.hpp"
#include "dnn/graph.hpp"
#include "dnn/layer.hpp"
#include "dnn/precision.hpp"
#include "runtime/aligned_buffer.hpp"

namespace cf::dnn {

class Network {
 public:
  Network() = default;

  /// Adds a layer consuming the previously added one (the network input
  /// for the first layer) — the sequential sugar every linear topology
  /// uses; returns a reference for further configuration.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  void add(std::unique_ptr<Layer> layer);

  /// Graph-building interface (DESIGN.md §2.8): appends a node
  /// consuming the named producers (kGraphInput = the network input).
  /// Node ids are schedule positions; inputs must already exist.
  NodeId add_node(std::unique_ptr<Layer> layer, std::vector<NodeId> inputs);

  template <typename L, typename... Args>
  NodeId emplace_node(std::vector<NodeId> inputs, Args&&... args) {
    return add_node(std::make_unique<L>(std::forward<Args>(args)...),
                    std::move(inputs));
  }

  /// Declares the output heads (before finalize; default: the last
  /// node). A multi-head network's output_shape() is the flat
  /// concatenation {sum of head numels}, in head order.
  void set_heads(std::vector<NodeId> heads);

  const Graph& graph() const noexcept { return graph_; }

  /// When enabled (before finalize), finalize() runs an MKL-DNN-style
  /// post-op fusion pass: every Conv3d→LeakyRelu / Dense→LeakyRelu edge
  /// whose activation is the producer's *sole* consumer is collapsed
  /// into the producer layer (forward epilogue + backward mask) and the
  /// standalone activation node — its two buffers and its two
  /// full-tensor sweeps — disappears. Off by default so hand-built test
  /// networks keep their literal layer list; build_network() turns it
  /// on.
  void set_fuse_eltwise(bool enabled) noexcept { fuse_eltwise_ = enabled; }
  bool fuse_eltwise() const noexcept { return fuse_eltwise_; }
  /// Number of activation layers absorbed by the fusion pass.
  std::size_t fused_pairs() const noexcept { return fused_pairs_; }

  /// When enabled (before finalize), training contexts place their
  /// buffers with the liveness-based memory planner (DESIGN.md §2.2 /
  /// §2.8): every diff tensor's live interval over the reverse schedule
  /// is computed (born at its first gradient contribution, dead once
  /// its own node's backward consumed it) and greedily colored onto a
  /// minimal set of max-sized slots; backward scratch is served from
  /// one shared arena sized to the largest request. On a linear chain
  /// the slot coloring reduces exactly to the old layer-index-parity
  /// ping-pong. Placement-only: the planned step is bitwise identical
  /// to the unplanned one. Off by default so hand-built test networks
  /// keep per-layer buffers; build_network() turns it on.
  void set_memory_planning(bool enabled) noexcept { memplan_ = enabled; }
  bool memory_planning() const noexcept { return memplan_; }

  /// Plans every node over the schedule, allocating parameters,
  /// building the param arena and recording the buffer plans contexts
  /// are built from. Must be called exactly once, after all nodes are
  /// added.
  void finalize(const tensor::Shape& input_shape);
  bool finalized() const noexcept { return finalized_; }

  /// Creates an execution stream over this network. The Network must
  /// outlive (and not move under) every context it handed out.
  ExecContext make_context(ExecMode mode);

  /// Reduced-precision variant (DESIGN.md §2.5): the context runs the
  /// forward pass in `precision`. Only inference contexts accept a
  /// non-fp32 precision, and the network must have been prepared for it
  /// (prepare_inference_precision) — both violations throw.
  ExecContext make_context(ExecMode mode, Precision precision);
  ExecContext make_context(ExecMode mode, Precision precision) const;

  /// Cost-model variants (DESIGN.md §2.6): the returned context has the
  /// plan's per-layer grains applied (ExecContext::apply_intraop) so
  /// its kernels partition for plan.threads_per_stream threads. The
  /// plan is advisory and bitwise-neutral — callers still own the
  /// ThreadPool sizing.
  ExecContext make_context(ExecMode mode, Precision precision,
                           const IntraopPlan& plan);
  ExecContext make_context(ExecMode mode, Precision precision,
                           const IntraopPlan& plan) const;

  /// Const overload for inference streams. A finalized Network is
  /// immutable during execution and an inference context only ever
  /// reads it (its mutating entry points — backward(), params(),
  /// zero_grads() — throw by mode), so handing contexts out from a
  /// `shared_ptr<const Network>` (the serving layer's ownership model,
  /// SERVING.md) is sound. Training contexts mutate weights through
  /// params() and stay gated behind the non-const overload; requesting
  /// kTraining here throws.
  ExecContext make_context(ExecMode mode) const;

  /// Variable input-size inference (DESIGN.md §2.8): a *shape view* is
  /// a second Network with the same topology re-planned at another
  /// input shape, whose weight tensors alias this network's param arena
  /// — zero weight copies, so reloading/retraining the parent is
  /// immediately visible through every view. Views are inference-only
  /// (kTraining contexts, param_arena(), copy/set_params and the bf16
  /// arena throw on a view).
  /// Requires every layer to be clone-able (clone_unplanned) and every
  /// parameter shape to be input-size-invariant — a fixed-feature dense
  /// head behind Flatten throws here; GlobalAvgPool heads qualify. The
  /// parent must outlive its views.
  std::unique_ptr<Network> make_shape_view(
      const tensor::Shape& input_shape) const;
  /// True when this network's weights alias another network's arena.
  bool is_shape_view() const noexcept { return weights_shared_; }

  std::size_t layer_count() const noexcept { return graph_.size(); }
  Layer& layer(std::size_t i) { return graph_.layer(i); }
  const Layer& layer(std::size_t i) const { return graph_.layer(i); }

  const tensor::Shape& input_shape() const noexcept { return input_shape_; }
  const tensor::Shape& output_shape() const noexcept {
    return output_shape_;
  }

  /// Output heads (valid after finalize; {last node} by default).
  std::size_t head_count() const noexcept { return graph_.heads().size(); }
  NodeId head(std::size_t h) const { return graph_.heads()[h]; }
  /// Float offset of head h's slice in the concatenated network output.
  std::size_t head_offset(std::size_t h) const { return head_offsets_[h]; }

  std::int64_t param_count() const;
  std::size_t param_bytes() const {
    return static_cast<std::size_t>(param_count()) * sizeof(float);
  }

  // Flat arena view (valid after finalize). Layout is schedule order,
  // parameter-tensor order — identical to the copy_params_to layout.
  // Throws on a shape view (the weights live in the parent's arena).
  std::span<float> param_arena();
  /// Layer i's slice of the arena (empty for parameterless layers).
  std::span<float> param_segment(std::size_t i) {
    return param_arena().subspan(segment_offsets_[i], segment_sizes_[i]);
  }
  std::size_t segment_offset(std::size_t i) const {
    return segment_offsets_[i];
  }
  std::size_t segment_size(std::size_t i) const {
    return segment_sizes_[i];
  }

  // --- Reduced-precision inference arenas (DESIGN.md §2.5) ------------

  /// Packs the side arena for `precision` from the *current* fp32
  /// weights: for kBf16, a bf16 image of the whole param arena (same
  /// segment offsets). The fp32 arena is never modified. Must
  /// run after finalize() and after the weights hold their real values
  /// (init or checkpoint load — plan-time contents are zeros);
  /// re-callable to re-pack after a weight reload. kFp32 is a no-op.
  /// Throws if a layer declines the precision (supports_precision).
  void prepare_inference_precision(Precision precision);

  /// Whether contexts in `precision` can be created right now. kFp32 is
  /// always ready; bf16 requires a prepare_inference_precision call
  /// since the last finalize.
  bool precision_prepared(Precision precision) const noexcept {
    return precision == Precision::kFp32 || bf16_prepared_;
  }

  /// Layer i's slice of the bf16 param-arena image (same offsets as
  /// param_segment; empty for parameterless layers).
  std::span<const bf16_t> bf16_param_segment(std::size_t i) const {
    return {bf16_arena_.data() + segment_offsets_[i], segment_sizes_[i]};
  }

  /// Total per-sample flops; `skip_first_bwd_data` drops the unneeded
  /// data gradient of nodes reading only the network input (the
  /// default, matching the real workload).
  FlopCounts flops(bool skip_first_bwd_data = true) const;

  // Flat vector interface (checkpoints, tests). Order is schedule
  // order, value tensor order — a straight copy of the arena. Throws on
  // a shape view (use the parent).
  void copy_params_to(std::span<float> out) const;
  void set_params_from(std::span<const float> in);

  // Planned memory accounting for a *training* context (valid after
  // finalize; nothing is allocated here — contexts allocate).
  // Activations always keep per-layer storage; diff/scratch bytes
  // reflect the planner when it is on and the per-layer totals when it
  // is off.
  std::size_t activation_bytes() const noexcept;
  std::size_t diff_arena_bytes() const noexcept;
  std::size_t scratch_bytes() const noexcept;
  std::size_t peak_tensor_bytes() const noexcept {
    return activation_bytes() + diff_arena_bytes() + scratch_bytes();
  }

  /// Per-pass totals finalize() records for make_context (floats).
  struct MemPlan {
    std::size_t act_sum = 0;        // per-layer activation total
    std::size_t diff_sum = 0;       // per-layer diff total (unplanned)
    std::size_t scratch_max = 0;    // shared scratch (planned)
    std::size_t scratch_sum = 0;    // per-layer scratch (unplanned)
    std::size_t workspace_sum = 0;  // per-layer staging (training)
    std::size_t workspace_max = 0;  // shared staging (inference)
  };
  const MemPlan& mem_plan() const noexcept { return mem_plan_; }

  /// Interval-liveness slot coloring over the schedule (DESIGN.md
  /// §2.8): node i's tensor lives at arena offset offsets[i]; `total`
  /// is the arena size in floats. Two tensors share an offset only if
  /// their live intervals are disjoint. Slots are canonically ordered
  /// by the smallest node id they serve, which on a linear chain
  /// reproduces the historical even/odd parity placement exactly.
  struct SlotPlan {
    std::vector<std::size_t> offsets;  // per node, floats
    std::size_t total = 0;
    std::size_t slot_count = 0;
  };
  /// Forward-pass activation slots (inference contexts collapse their
  /// activations onto these; training keeps per-node storage).
  const SlotPlan& act_slots() const noexcept { return act_slots_; }
  /// Reverse-pass diff slots (training contexts, when planning is on).
  const SlotPlan& diff_slots() const noexcept { return diff_slots_; }

 private:
  void build_arena();
  void plan_memory();

  Graph graph_;
  // Contiguous parameter storage; layer weight tensors are views into
  // this after finalize() (see build_arena). Empty on a shape view —
  // the tensors alias the parent's arena instead.
  runtime::AlignedBuffer<float> param_arena_;
  std::size_t param_total_ = 0;               // floats, set by finalize
  std::vector<std::size_t> segment_offsets_;  // per layer, in floats
  std::vector<std::size_t> segment_sizes_;
  // bf16 side arena (prepare_inference_precision), mirroring
  // param_arena_ element-for-element.
  runtime::AlignedBuffer<bf16_t> bf16_arena_;
  bool bf16_prepared_ = false;
  MemPlan mem_plan_;
  SlotPlan act_slots_;
  SlotPlan diff_slots_;
  std::vector<std::size_t> head_offsets_;
  tensor::Shape input_shape_;
  tensor::Shape output_shape_;
  bool finalized_ = false;
  bool fuse_eltwise_ = false;
  bool memplan_ = false;
  bool weights_shared_ = false;  // shape view: params alias the parent
  std::size_t fused_pairs_ = 0;
  NodeId last_node_ = kGraphInput;  // tail of the add() chain
};

}  // namespace cf::dnn
