// Layer abstraction for the CosmoFlow network.
//
// The paper trains with a mini-batch of one sample per rank, so a layer
// maps one activation tensor to one activation tensor. Convolutional
// activations travel in the blocked nCdhw16c layout end-to-end (the
// network inserts explicit reorders only at the plain-input boundary
// and before the dense head), mirroring the MKL-DNN graph the paper
// describes in §V-B.
//
// Layers are split model/stream (DESIGN.md §2.3): the layer object
// holds only immutable-after-finalize state — geometry from plan(),
// weights, fusion flags — while everything a single execution stream
// mutates (forward staging workspace, backward scratch, gradient
// tensors) lives in a LayerExecState that the caller passes into every
// pass. A planned layer holds no per-stream state at all: a
// dnn::ExecContext owns one LayerExecState per layer, and standalone
// drivers (unit tests, kernel benches) own theirs in a
// dnn::StandaloneExec.
//
// Each pass has exactly one entry point over one source tensor (the
// network is a chain, DESIGN.md §2.8): plan, forward,
// backward_weights, backward_data, plus forward_bf16 as the one
// reduced-precision sibling. Layers do not time themselves: the caller
// (the ExecContext schedule loop) times each pass around the call.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dnn/precision.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"
#include "tensor/tensor.hpp"

namespace cf::dnn {

/// Floating point operation counts per pass for one sample, used for
/// the §V-A flop-rate accounting and Table I.
struct FlopCounts {
  std::int64_t fwd = 0;
  std::int64_t bwd_data = 0;
  std::int64_t bwd_weights = 0;

  std::int64_t total() const { return fwd + bwd_data + bwd_weights; }

  FlopCounts& operator+=(const FlopCounts& other) {
    fwd += other.fwd;
    bwd_data += other.bwd_data;
    bwd_weights += other.bwd_weights;
    return *this;
  }
};

/// One parameter tensor of the *model*: the value lives in the layer
/// (rebound into the network's param arena at finalize). Gradients are
/// per-stream state and live in a LayerExecState, parallel to this
/// list.
struct ParamSpec {
  std::string name;
  tensor::Tensor* value = nullptr;
};

/// Mutable view of one parameter tensor and its gradient, used by the
/// optimizer (LARC normalizes per parameter tensor) and by gradient
/// aggregation. Pairs a ParamSpec value with the gradient tensor of
/// one particular execution stream.
struct ParamView {
  std::string name;
  tensor::Tensor* value = nullptr;
  tensor::Tensor* grad = nullptr;
};

/// Per-layer profile row (Table I / Fig 3), one per node of an
/// ExecContext, filled by its schedule loop. The span labels
/// ("conv2/fwd", ...) are built once with the row, so tracing a pass
/// never concatenates strings.
struct LayerProfile {
  std::string name;
  std::string kind;
  runtime::TimeStats fwd;
  runtime::TimeStats bwd_data;
  runtime::TimeStats bwd_weights;
  FlopCounts flops;
  std::string fwd_label;
  std::string bww_label;
  std::string bwd_data_label;
};

/// Everything one execution stream mutates while driving one layer.
/// Owned by a dnn::ExecContext (one per layer) or by a StandaloneExec;
/// the layer object never touches it except through the reference
/// passed into each pass, so N streams can run the same layer
/// concurrently.
struct LayerExecState {
  /// Forward staging memory, size >= forward_workspace_floats()
  /// (the conv padded-source copy, the dense chunk accumulators).
  /// Zeroed once at creation; when `workspace_shared` is set the region
  /// is aliased by other layers between calls, so the layer must
  /// re-establish any zero borders itself each call.
  std::span<float> workspace;
  bool workspace_shared = false;

  /// Backward scratch, size >= backward_scratch_floats(). Contents are
  /// step-transient — nothing may be carried across backward calls.
  std::span<float> scratch;

  /// Gradient tensors, parallel to param_specs(). Accumulated into by
  /// backward_weights — callers zero them per step.
  std::vector<tensor::Tensor> grads;

  /// Minimum job-grid items per parallel_for chunk for this layer's
  /// kernels (ThreadPool grain semantics). 1 = spread maximally; the
  /// cost model raises it when per-chunk dispatch overhead would eat
  /// the win (ExecContext::apply_intraop_plan). Purely a partitioning
  /// hint: every kernel decomposition is deterministic, so any value
  /// yields bitwise-identical results (DESIGN.md §2.6).
  std::size_t intraop_grain = 1;
};

class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  const std::string& name() const noexcept { return name_; }

  /// One of "conv", "pool", "dense", "activation", "reorder" — the
  /// category key for the Fig 3 breakdown.
  virtual std::string kind() const = 0;

  /// Validates the input shape and computes the output shape; called
  /// once by Network::finalize. Allocates parameters and records
  /// geometry.
  virtual tensor::Shape plan(const tensor::Shape& input) = 0;

  const tensor::Shape& input_shape() const noexcept { return input_shape_; }
  const tensor::Shape& output_shape() const noexcept {
    return output_shape_;
  }

  /// dst must have output_shape(). `exec` carries this stream's
  /// mutable state; the method is const on the layer so concurrent
  /// streams may share one layer object.
  virtual void forward(const tensor::Tensor& src, tensor::Tensor& dst,
                       LayerExecState& exec,
                       runtime::ThreadPool& pool) const = 0;

  // Backward is two calls so the driver can time the weight-gradient
  // (Bww) and data-gradient (Bwd) halves apart (Table I). A driver
  // calls backward_weights first — it *consumes* ddst: fused layers
  // mask it in place with the activation derivative, and
  // backward_data then reads the masked values. `src` is the forward
  // input and `dst` this layer's own forward output, from which layers
  // with a fused eltwise epilogue recover the activation-derivative
  // mask. ddst is dead after the pair (the backward sweep never
  // re-reads a layer's ddst).

  /// Accumulates parameter gradients into `exec.grads` (callers zero
  /// them per step). Parameterless layers keep this no-op default; a
  /// driver may skip the call for them.
  virtual void backward_weights(const tensor::Tensor& /*src*/,
                                const tensor::Tensor& /*dst*/,
                                tensor::Tensor& /*ddst*/,
                                LayerExecState& /*exec*/,
                                runtime::ThreadPool& /*pool*/) const {}

  /// d(loss)/d(src), which *overwrites* dsrc. The ExecContext skips
  /// the call for node 0, whose source is the network input (data).
  virtual void backward_data(const tensor::Tensor& src,
                             const tensor::Tensor& dst,
                             const tensor::Tensor& ddst, tensor::Tensor& dsrc,
                             LayerExecState& exec,
                             runtime::ThreadPool& pool) const = 0;

  // --- Reduced-precision inference (DESIGN.md §2.5) -------------------

  /// Which inference precisions this layer can execute. kBf16 needs an
  /// explicit forward_bf16 override, so the default declines it.
  virtual bool supports_precision(Precision p) const {
    return p == Precision::kFp32;
  }

  /// bf16 forward: `src`/`dst` are raw buffers holding bf16 images of
  /// exactly the tensors the fp32 forward would see (same shapes, same
  /// blocked layouts); `params` is this layer's slice of the network's
  /// bf16 arena (Network::bf16_param_segment) — a plain bf16 image of
  /// the fp32 segment unless the layer repacked it (pack_weights_bf16).
  /// Kernels widen on load, accumulate in fp32 and narrow with
  /// round-to-nearest-even on store. Inference-only; the default
  /// throws.
  virtual void forward_bf16(const bf16_t* src, bf16_t* dst,
                            std::span<const bf16_t> params,
                            LayerExecState& exec,
                            runtime::ThreadPool& pool) const {
    static_cast<void>(src);
    static_cast<void>(dst);
    static_cast<void>(params);
    static_cast<void>(exec);
    static_cast<void>(pool);
    throw std::logic_error("Layer::forward_bf16: " + name_ +
                           " has no bf16 forward path");
  }

  /// Invoked by Network::prepare_inference_precision after the plain
  /// bf16 image of this layer's segment was built, with a mutable view
  /// of that slice. A layer whose bf16 kernel wants a different weight
  /// packing (e.g. the ic-pair-interleaved tiles the vdpbf16ps conv
  /// kernels read) overwrites its weight portion in place — same
  /// element count, layer-private layout, forward_bf16 is the only
  /// reader. Default keeps the plain image.
  virtual void pack_weights_bf16(std::span<bf16_t> segment) const {
    static_cast<void>(segment);
  }

  /// Floats of forward staging workspace this stream must provide
  /// (the conv padded-source copy, the dense chunk accumulators). The
  /// execution context zeroes the region once at creation; see
  /// LayerExecState::workspace.
  virtual std::size_t forward_workspace_floats() const { return 0; }

  /// Floats of backward scratch this layer wants. Layer backwards of
  /// one stream run strictly one at a time, so a planned context sizes
  /// ONE shared arena to the max across layers (the memory planner;
  /// see DESIGN.md §2.2).
  virtual std::size_t backward_scratch_floats() const { return 0; }

  /// Ask the layer to absorb a trailing LeakyReLU (negative slope
  /// `slope`) into its own forward epilogue and backward entry. Layers
  /// that support MKL-DNN-style post-op fusion override this to return
  /// true; the network then drops the standalone activation layer.
  virtual bool fuse_leaky_relu(float slope) {
    static_cast<void>(slope);
    return false;
  }

  /// Parameter tensors of the model (empty for parameterless layers).
  /// Gradients are not part of the model — each LayerExecState holds
  /// its own, parallel to this list.
  virtual std::vector<ParamSpec> param_specs() { return {}; }

  virtual FlopCounts flops() const { return {}; }

  std::int64_t param_count() {
    std::int64_t n = 0;
    for (const auto& p : param_specs()) n += p.value->shape().numel();
    return n;
  }

 protected:
  void set_shapes(const tensor::Shape& in, const tensor::Shape& out) {
    input_shape_ = in;
    output_shape_ = out;
  }

 private:
  std::string name_;
  tensor::Shape input_shape_;
  tensor::Shape output_shape_;
};

}  // namespace cf::dnn
