// Per-stream execution state for a finalized dnn::Network.
//
// The model/stream split (DESIGN.md §2.3): a Network holds only
// immutable-after-finalize state — the graph (geometry + weights in
// the flat param arena) and the plans computed by the fusion and
// memory-planner passes. Everything one execution stream mutates lives
// here instead: the input staging copy, the activation buffers, the
// slot-colored diff arena, the shared backward scratch, the flat
// gradient arena, each node's LayerExecState (forward staging
// workspace, gradient tensors) and each node's LayerProfile row. N
// contexts over one Network run forward concurrently against one
// shared weight copy.
//
// Execution walks the network's schedule (insertion order, topological
// by construction). Each node reads its producers' activations by edge;
// backward walks the reverse schedule. Layers only ever overwrite their
// dsrc targets, so this context is the one place fan-in gradient
// contributions are merged — deterministically, in reverse schedule and
// edge order (DESIGN.md §2.8).
//
// The schedule loop is also the one place a layer is timed (Table I):
// one pair of tracer clock readings around each node's forward,
// backward_weights and backward_data (fan-in merges included) feeds
// that node's profile row and, when telemetry is compiled in and the
// tracer is on, the matching `{layer}/fwd`, `{layer}/bww` or
// `{layer}/bwd_data` span — so trace and profile are one measurement.
//
// ExecMode picks what gets allocated:
//  * kTraining — the full set. Buffer placement matches the planner
//    exactly (slot-colored diff arena + shared scratch when the network
//    was finalized with memory planning, per-node buffers otherwise),
//    so a training step through a context is bitwise identical to the
//    pre-IR sequential step.
//  * kInference — forward-only: activations collapse onto the
//    interval-liveness slot arena (on a linear chain, the historical
//    even/odd ping-pong), one shared conv staging workspace sized to
//    the largest request, and *no* diff/scratch/grad arenas at all.
//    backward(), zero_grads() and params() throw.
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
  /// still an fp32 tensor, widened from the head's output.
  explicit ExecContext(Network& net, ExecMode mode,
                       Precision precision = Precision::kFp32);

  ExecContext(ExecContext&&) = default;
  ExecContext& operator=(ExecContext&&) = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  ExecMode mode() const noexcept { return mode_; }
  Precision precision() const noexcept { return precision_; }

  /// Runs the forward pass through this stream; the returned view stays
  /// valid until the next forward() on the same context. A single-head
  /// network returns the head's activation directly; multiple heads are
  /// concatenated flat, in head order. Training contexts stage `input`
  /// into the context-owned input copy first (backward re-reads it);
  /// fp32 *inference* contexts skip that staging copy entirely
  /// and read `input` in place — `input` must stay alive and unmodified
  /// until forward returns.
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
  /// (both halves and its fan-in merges) finishes, i.e. the moment
  /// grad_segment(i) holds this step's final local gradients. Nodes are
  /// visited in reverse schedule order, so segments become ready
  /// tail-first and contiguously — callers can coalesce them into
  /// buckets and start communicating while earlier nodes are still
  /// computing.
  using GradReadyCallback = std::function<void(std::size_t layer_index)>;

  /// Runs the backward pass from the loss gradient w.r.t. the network
  /// output (per-head slices of `dloss` seed the head diffs). Parameter
  /// gradients accumulate into this context's grad arena; data
  /// gradients toward the network input are skipped (the input is data,
  /// §V-A workflow). A diff receiving several contributions — fan-out
  /// nodes, consumed heads — is summed deterministically in reverse
  /// schedule / edge order. Requires a preceding forward() on this
  /// context; training mode only.
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
  /// schedule order, filled by this stream's schedule loop. A node
  /// whose every data-gradient target is null (the one reading the
  /// graph input) records no bwd_data sample; a parameterless node
  /// records no bwd_weights sample.
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
  /// Everything: input staging + activations + diffs + scratch +
  /// workspace + grads + fan-in merge buffers.
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
  // arena (offsets identical to the fp32 act slots) and the fp32
  // widening of the head outputs that forward() returns.
  runtime::AlignedBuffer<bf16_t> input16_;
  runtime::AlignedBuffer<bf16_t> act16_arena_;
  // The concatenated multi-head output (fp32; also the bf16 widening
  // target). Unallocated for single-head fp32 contexts — those
  // return the head activation itself.
  tensor::Tensor output_;

  // Context-owned storage. act_arena_ backs the inference slot-colored
  // activations (training activations own per-node storage);
  // diff_arena_ backs the slot-colored diff buffers when the network
  // was planned; scratch_arena_ the backward scratch; workspace_arena_
  // the forward staging regions; grad_arena_ the flat gradients;
  // merge_arena_ the fan-in merge buffers.
  runtime::AlignedBuffer<float> act_arena_;
  runtime::AlignedBuffer<float> diff_arena_;
  runtime::AlignedBuffer<float> scratch_arena_;
  runtime::AlignedBuffer<float> workspace_arena_;
  runtime::AlignedBuffer<float> grad_arena_;
  runtime::AlignedBuffer<float> merge_arena_;
  std::size_t act_bytes_ = 0;   // per-node sum (training) / arena size
  std::size_t diff_bytes_ = 0;  // per-node sum or slot-arena size

  // Fan-in merges, [node][edge]: an edge whose producer's diff already
  // holds a contribution when the node runs backward gets a merge
  // tensor (aliasing merge_arena_) for the layer to write, which
  // backward() then adds into the producer's diff. Other entries are
  // empty; training contexts only.
  std::vector<std::vector<tensor::Tensor>> merge_;

  // Reusable per-node gather of the layer's inputs and dsrc targets.
  std::vector<const tensor::Tensor*> src_ptrs_;
  std::vector<tensor::Tensor*> dsrc_ptrs_;

  bool forward_done_ = false;
};

}  // namespace cf::dnn
