// Per-stream execution state for a finalized dnn::Network.
//
// The model/stream split (DESIGN.md §2.3): a Network holds only
// immutable-after-finalize state — the layer chain (geometry + weights
// in the flat param arena) and the plans computed by the fusion and
// parity-placement passes. Everything one execution stream mutates
// lives here instead: the input staging copy, the activation buffers,
// the diff arena, the shared backward scratch, the flat gradient arena,
// each node's LayerExecState (forward staging workspace, gradient
// tensors) and each node's LayerProfile row. N contexts over one
// Network run forward concurrently against one shared weight copy.
//
// Execution walks the chain (DESIGN.md §2.8): node i reads node i-1's
// activation (node 0 reads the input) and the last node's activation
// is the output; backward walks it in reverse, and node i's
// backward_data writes node i-1's diff.
//
// The schedule loop is also the one place a layer is timed (Table I):
// one pair of tracer clock readings around each node's forward,
// backward_weights and backward_data feeds that node's profile row
// and, when telemetry is compiled in and the tracer is on, the
// matching `{layer}/fwd`, `{layer}/bww` or `{layer}/bwd_data` span —
// so trace and profile are one measurement.
//
// ExecMode picks what gets allocated:
//  * kTraining — the full set. Buffer placement matches the planner
//    exactly (parity-placed diff arena + shared scratch when the
//    network was finalized with memory planning, per-node buffers
//    otherwise); the planned step is bitwise identical to the
//    unplanned one.
//  * kInference — forward-only: activations collapse onto the
//    two-slot parity arena (even/odd ping-pong), one shared conv
//    staging workspace sized to the largest request, and *no*
//    diff/scratch/grad arenas at all. backward(), zero_grads() and
//    params() throw.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "dnn/layer.hpp"
#include "dnn/precision.hpp"
#include "runtime/aligned_buffer.hpp"

namespace cf::dnn {

class Network;
struct IntraopPlan;

enum class ExecMode { kTraining, kInference };

class ExecContext {
 public:
  /// Built by Network::make_context. The context holds a pointer to the
  /// network: the network must outlive it and stay put (heap-owned or
  /// otherwise address-stable). Non-fp32 precisions are inference-only
  /// and require the network to be prepared
  /// (Network::prepare_inference_precision) — make_context enforces
  /// both. In kBf16 the activation slot arena and the input staging
  /// copy are bf16 (half the bytes); the forward() return value is
  /// still an fp32 tensor, widened from the last node's output.
  explicit ExecContext(Network& net, ExecMode mode,
                       Precision precision = Precision::kFp32);

  ExecContext(ExecContext&&) = default;
  ExecContext& operator=(ExecContext&&) = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  ExecMode mode() const noexcept { return mode_; }
  Precision precision() const noexcept { return precision_; }

  /// Runs the forward pass through this stream; the returned view stays
  /// valid until the next forward() on the same context. fp32 contexts
  /// return the last node's activation directly. Training contexts
  /// stage `input` into the context-owned input copy first (backward
  /// re-reads it); fp32 *inference* contexts skip that staging copy
  /// entirely and read `input` in place — `input` must stay alive and
  /// unmodified until forward returns.
  const tensor::Tensor& forward(const tensor::Tensor& input,
                                runtime::ThreadPool& pool);

  /// The context-owned input staging buffer (shape = network input
  /// shape). Callers that assemble the network input anyway — the
  /// Trainer's batch gather, with augmentation folded in — write it
  /// directly and call forward_staged(), eliminating forward()'s
  /// staging memcpy. fp32 only: a bf16 context has no fp32 input
  /// buffer (throws std::logic_error).
  std::span<float> input_staging();

  /// forward() over the bytes already written into input_staging();
  /// bitwise-identical to forward(t, pool) with t holding those bytes.
  const tensor::Tensor& forward_staged(runtime::ThreadPool& pool);

  /// Invoked by backward() right after node `i`'s whole backward pass
  /// (both halves) finishes, i.e. the moment
  /// grad_segment(i) holds this step's final local gradients. Nodes are
  /// visited in reverse schedule order, so segments become ready
  /// tail-first and contiguously — callers can coalesce them into
  /// buckets and start communicating while earlier nodes are still
  /// computing.
  using GradReadyCallback = std::function<void(std::size_t layer_index)>;

  /// Runs the backward pass from the loss gradient w.r.t. the network
  /// output, which seeds the last node's diff. Parameter gradients
  /// accumulate into this context's grad arena; node 0's data gradient
  /// is skipped (its source is the network input, which is data —
  /// §V-A workflow). Requires a preceding forward() on this context;
  /// training mode only.
  void backward(const tensor::Tensor& dloss, runtime::ThreadPool& pool,
                const GradReadyCallback& grad_ready = {});

  void zero_grads();

  /// Applies a cost-model intra-op plan to this stream (DESIGN.md
  /// §2.6): copies the per-layer grains into each LayerExecState. The
  /// grain only changes how the kernels' fixed job grids are
  /// partitioned across the stream's ThreadPool, never what any job
  /// computes, so applying (or not applying) a plan is bitwise-neutral.
  /// Plans whose grain list does not match this network's layer count
  /// throw.
  void apply_intraop(const IntraopPlan& plan);

  /// The per-layer grain currently applied (1 until apply_intraop).
  std::size_t intraop_grain(std::size_t i) const {
    return exec_[i].intraop_grain;
  }

  /// Parameter views pairing the network's (shared) values with this
  /// context's gradients, in schedule order — the optimizer input.
  /// Training mode only.
  std::vector<ParamView> params();

  // Flat gradient arena views (training mode; empty in inference).
  // Layout is schedule order, parameter-tensor order — identical to the
  // network's param arena layout.
  std::span<float> grad_arena() noexcept {
    return {grad_arena_.data(), grad_arena_.size()};
  }
  /// Node i's slice of the grad arena (empty for parameterless layers).
  std::span<float> grad_segment(std::size_t i);

  void copy_grads_to(std::span<float> out);
  void set_grads_from(std::span<const float> in);

  /// Node i's difference tensor (test hook for planner aliasing checks;
  /// training mode).
  const tensor::Tensor& diff(std::size_t i) const { return diffs_[i]; }

  /// Per-layer timing rows for Table I / Fig 3, one per node in
  /// schedule order, filled by this stream's schedule loop. Node 0
  /// records no bwd_data sample (its source is the network input); a
  /// parameterless node records no bwd_weights sample.
  const std::vector<LayerProfile>& profiles() const noexcept {
    return profiles_;
  }
  /// Clears every row's timings (names, kinds and flops stay).
  void reset_profiles();

  // What this context actually allocated, in bytes. For a training
  // context the first three match the network's planned accounting; an
  // inference context reports a collapsed activation arena and zeros
  // for diff/scratch/grad.
  std::size_t activation_bytes() const noexcept { return act_bytes_; }
  std::size_t diff_arena_bytes() const noexcept {
    return diff_bytes_;
  }
  std::size_t scratch_bytes() const noexcept {
    return scratch_arena_.size() * sizeof(float);
  }
  std::size_t workspace_bytes() const noexcept {
    return workspace_arena_.size() * sizeof(float);
  }
  std::size_t grad_bytes() const noexcept {
    return grad_arena_.size() * sizeof(float);
  }
  /// Same definition the network uses for its planned footprint
  /// (activations + diffs + scratch; staging workspace excluded).
  std::size_t peak_tensor_bytes() const noexcept {
    return activation_bytes() + diff_arena_bytes() + scratch_bytes();
  }
  /// Everything: input staging + output + activations + diffs +
  /// scratch + workspace + grads.
  std::size_t total_bytes() const noexcept;

 private:
  void build_training_buffers();
  void build_inference_buffers();
  void build_inference_buffers_bf16();
  const tensor::Tensor& forward_bf16_path(const tensor::Tensor& input,
                                          runtime::ThreadPool& pool);
  /// The fp32 schedule loop over an already-staged input tensor.
  const tensor::Tensor& run_forward(const tensor::Tensor& staged,
                                    runtime::ThreadPool& pool);

  Network* net_ = nullptr;
  ExecMode mode_ = ExecMode::kTraining;
  Precision precision_ = Precision::kFp32;

  tensor::Tensor input_;
  std::vector<tensor::Tensor> activations_;  // output of each node
  std::vector<tensor::Tensor> diffs_;        // d(loss)/d(activation)
  std::vector<LayerExecState> exec_;         // one per node
  std::vector<LayerProfile> profiles_;       // one per node

  // kBf16 stream storage: bf16 input staging, bf16 activation slot
  // arena (parity offsets, as the fp32 inference arena) and output_,
  // the fp32 widening of the last node's output that forward()
  // returns. fp32 contexts leave output_ unallocated.
  runtime::AlignedBuffer<bf16_t> input16_;
  runtime::AlignedBuffer<bf16_t> act16_arena_;
  tensor::Tensor output_;

  // Context-owned storage. act_arena_ backs the inference parity-placed
  // activations (training activations own per-node storage);
  // diff_arena_ backs the parity-placed diff buffers when the network
  // was planned; scratch_arena_ the backward scratch; workspace_arena_
  // the forward staging regions; grad_arena_ the flat gradients.
  runtime::AlignedBuffer<float> act_arena_;
  runtime::AlignedBuffer<float> diff_arena_;
  runtime::AlignedBuffer<float> scratch_arena_;
  runtime::AlignedBuffer<float> workspace_arena_;
  runtime::AlignedBuffer<float> grad_arena_;
  std::size_t act_bytes_ = 0;   // per-node sum (training) / arena size
  std::size_t diff_bytes_ = 0;  // per-node sum or slot-arena size

  bool forward_done_ = false;
};

}  // namespace cf::dnn
