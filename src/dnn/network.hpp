// Network container — the *model* half of the model/stream split
// (DESIGN.md §2.3). A network is the paper's chain (DESIGN.md §2.8): an
// ordered list of layers in which node i reads node i-1's output, node
// 0 reads the network input and the last node is the output; the list
// order is the execution schedule. After finalize() a Network is
// immutable: it owns the layers (geometry + weights), the flat
// contiguous parameter arena every weight tensor is rebound onto, and
// the plans computed by the fusion and parity-placement passes.
// Nothing here changes during a step, so any number of execution
// streams can run against one Network concurrently — each stream's
// mutable state (activations, diffs, scratch, gradients, staging)
// lives in a dnn::ExecContext created via make_context().
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dnn/exec_context.hpp"
#include "dnn/layer.hpp"
#include "dnn/precision.hpp"
#include "runtime/aligned_buffer.hpp"

namespace cf::dnn {

class Network {
 public:
  Network() = default;

  /// Appends a layer consuming the previously added one (the network
  /// input for the first layer); returns a reference for further
  /// configuration.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  /// Throws std::invalid_argument on a null layer and
  /// std::logic_error after finalize().
  void add(std::unique_ptr<Layer> layer);

  /// When enabled (before finalize), finalize() runs an MKL-DNN-style
  /// post-op fusion pass over adjacent pairs: a LeakyRelu at node i+1
  /// folds into node i when node i accepts it (Conv3d, Dense), which
  /// takes the activation into its forward epilogue and backward mask;
  /// the standalone activation node — its two buffers and its two
  /// full-tensor sweeps — disappears. A LeakyRelu at node 0 stays. Off
  /// by default so hand-built test networks keep their literal layer
  /// list; build_network() turns it on.
  void set_fuse_eltwise(bool enabled) noexcept { fuse_eltwise_ = enabled; }
  bool fuse_eltwise() const noexcept { return fuse_eltwise_; }
  /// Number of activation layers absorbed by the fusion pass.
  std::size_t fused_pairs() const noexcept { return fused_pairs_; }

  /// When enabled (before finalize), training contexts place their
  /// diffs by parity (slot_offset; DESIGN.md §2.2 / §2.8) and serve
  /// backward scratch from one shared arena sized to the largest
  /// request. Placement-only: the planned step is bitwise identical to
  /// the unplanned one. Off by default so hand-built test networks keep
  /// per-layer buffers; build_network() turns it on.
  void set_memory_planning(bool enabled) noexcept { memplan_ = enabled; }
  bool memory_planning() const noexcept { return memplan_; }

  /// Plans every node over the schedule, allocating parameters,
  /// building the param arena and recording the buffer plans contexts
  /// are built from. Must be called exactly once, after all layers are
  /// added; throws std::logic_error when there are none.
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

  std::size_t layer_count() const noexcept { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  const tensor::Shape& input_shape() const noexcept { return input_shape_; }
  const tensor::Shape& output_shape() const noexcept {
    return output_shape_;
  }

  std::int64_t param_count() const;
  std::size_t param_bytes() const {
    return static_cast<std::size_t>(param_count()) * sizeof(float);
  }

  // Flat arena view (valid after finalize). Layout is schedule order,
  // parameter-tensor order — identical to the copy_params_to layout.
  std::span<float> param_arena() {
    return {param_arena_.data(), param_arena_.size()};
  }
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

  /// Total per-sample flops; `skip_first_bwd_data` drops node 0's
  /// unneeded data gradient (its source is the network input; the
  /// default, matching the real workload).
  FlopCounts flops(bool skip_first_bwd_data = true) const;

  // Flat vector interface (checkpoints, tests). Order is schedule
  // order, value tensor order — a straight copy of the arena.
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

  /// Parity placement (DESIGN.md §2.8). On a chain, node i's output
  /// is dead once node i+1's forward has read it, and its diff once
  /// node i's own backward has, so node i and node i+2 are never live
  /// at once: even nodes share the slot at offset 0 and odd nodes the
  /// slot after the largest even node. Inference contexts place their
  /// activations this way, planned training contexts their diffs.
  std::size_t slot_offset(std::size_t i) const noexcept {
    return i % 2 == 0 ? 0 : even_slot_floats_;
  }
  /// The two-slot arena in floats: largest even node + largest odd node.
  std::size_t slot_arena_floats() const noexcept { return slot_floats_; }

 private:
  void fuse_activations();
  void build_arena();
  void plan_memory();

  std::vector<std::unique_ptr<Layer>> layers_;
  // Contiguous parameter storage; layer weight tensors are views into
  // this after finalize() (see build_arena).
  runtime::AlignedBuffer<float> param_arena_;
  std::vector<std::size_t> segment_offsets_;  // per layer, in floats
  std::vector<std::size_t> segment_sizes_;
  // bf16 side arena (prepare_inference_precision), mirroring
  // param_arena_ element-for-element.
  runtime::AlignedBuffer<bf16_t> bf16_arena_;
  bool bf16_prepared_ = false;
  MemPlan mem_plan_;
  std::size_t even_slot_floats_ = 0;  // largest even node
  std::size_t slot_floats_ = 0;       // + largest odd node
  tensor::Shape input_shape_;
  tensor::Shape output_shape_;
  bool finalized_ = false;
  bool fuse_eltwise_ = false;
  bool memplan_ = false;
  std::size_t fused_pairs_ = 0;
};

}  // namespace cf::dnn
