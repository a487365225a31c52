#include "dnn/exec_context.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "dnn/cost_model.hpp"
#include "dnn/network.hpp"
#include "obs/telemetry.hpp"

namespace cf::dnn {

using tensor::Tensor;

namespace {

/// Closes one timed pass of a node: adds [start_ns, now) to `stats`
/// and, when telemetry is compiled in and the tracer is on, records the
/// same interval as the span `label` — the profile row and the trace
/// hold one measurement.
void end_pass(runtime::TimeStats& stats, const std::string& label,
              const std::string& category, std::uint64_t start_ns) {
  const std::uint64_t dur_ns = obs::Tracer::now_ns() - start_ns;
  stats.add(1e-9 * static_cast<double>(dur_ns));
  if constexpr (obs::kTelemetryEnabled) {
    obs::Tracer& tracer = obs::Tracer::global();
    if (tracer.enabled()) {
      tracer.record(label.c_str(), category.c_str(), start_ns, dur_ns);
    }
  }
}

}  // namespace

ExecContext::ExecContext(Network& net, ExecMode mode, Precision precision)
    : net_(&net), mode_(mode), precision_(precision) {
  if (precision_ != Precision::kFp32 && mode_ != ExecMode::kInference) {
    throw std::logic_error(
        "ExecContext: training contexts are fp32-only (DESIGN.md §2.5)");
  }
  exec_.resize(net.layer_count());
  profiles_.reserve(net.layer_count());
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const Layer& layer = net.layer(i);
    LayerProfile& row = profiles_.emplace_back();
    row.name = layer.name();
    row.kind = layer.kind();
    row.flops = layer.flops();
    row.fwd_label = row.name + "/fwd";
    row.bww_label = row.name + "/bww";
    row.bwd_data_label = row.name + "/bwd_data";
  }
  if (mode_ == ExecMode::kTraining) {
    input_ = Tensor(net.input_shape());
    build_training_buffers();
  } else if (precision_ == Precision::kBf16) {
    build_inference_buffers_bf16();
  } else {
    input_ = Tensor(net.input_shape());
    build_inference_buffers();
  }
}

void ExecContext::apply_intraop(const IntraopPlan& plan) {
  if (plan.grains.size() != exec_.size()) {
    throw std::invalid_argument(
        "ExecContext::apply_intraop: plan has " +
        std::to_string(plan.grains.size()) + " grains for " +
        std::to_string(exec_.size()) + " layers");
  }
  for (std::size_t i = 0; i < exec_.size(); ++i) {
    exec_[i].intraop_grain = std::max<std::size_t>(1, plan.grains[i]);
  }
}

void ExecContext::build_training_buffers() {
  const Network::MemPlan& plan = net_->mem_plan();
  const bool planned = net_->memory_planning();
  const std::size_t n_layers = net_->layer_count();

  // Activations: per-node storage — backward re-reads every one of
  // them (a node's backward takes its own forward output *and* its
  // inputs), so nothing can be collapsed here.
  activations_.reserve(n_layers);
  diffs_.reserve(n_layers);
  for (std::size_t i = 0; i < n_layers; ++i) {
    activations_.emplace_back(net_->layer(i).output_shape());
    diffs_.emplace_back(net_->layer(i).output_shape());
  }
  act_bytes_ = plan.act_sum * sizeof(float);

  // Diffs: the two-slot parity arena when the network was finalized
  // with memory planning (node i's backward reads diff i and writes
  // diff i-1, which sit in different slots), per-node storage
  // otherwise.
  if (planned) {
    diff_arena_ = runtime::AlignedBuffer<float>(net_->slot_arena_floats());
    for (std::size_t i = 0; i < n_layers; ++i) {
      float* base = diff_arena_.data() + net_->slot_offset(i);
      diffs_[i].rebind({base, diffs_[i].size()});
    }
    diff_bytes_ = diff_arena_.size() * sizeof(float);
  } else {
    diff_bytes_ = plan.diff_sum * sizeof(float);
  }

  // Backward scratch: one node's backward runs at a time within a
  // stream, so the planner hands every node the same max-sized arena;
  // unplanned contexts keep disjoint per-node regions.
  if (planned) {
    scratch_arena_ = runtime::AlignedBuffer<float>(plan.scratch_max);
    for (std::size_t i = 0; i < n_layers; ++i) {
      const std::size_t sc = net_->layer(i).backward_scratch_floats();
      if (sc > 0) exec_[i].scratch = {scratch_arena_.data(), sc};
    }
  } else {
    scratch_arena_ = runtime::AlignedBuffer<float>(plan.scratch_sum);
    std::size_t off = 0;
    for (std::size_t i = 0; i < n_layers; ++i) {
      const std::size_t sc = net_->layer(i).backward_scratch_floats();
      if (sc > 0) exec_[i].scratch = {scratch_arena_.data() + off, sc};
      off += sc;
    }
  }

  // Forward staging: disjoint per-node regions, zeroed once — each
  // node's region keeps its zero borders between calls (nothing else
  // touches it), so conv staging skips the per-call border memset.
  workspace_arena_ = runtime::AlignedBuffer<float>(plan.workspace_sum);
  if (!workspace_arena_.empty()) {
    std::memset(workspace_arena_.data(), 0,
                workspace_arena_.size() * sizeof(float));
  }
  {
    std::size_t off = 0;
    for (std::size_t i = 0; i < n_layers; ++i) {
      const std::size_t ws = net_->layer(i).forward_workspace_floats();
      if (ws > 0) exec_[i].workspace = {workspace_arena_.data() + off, ws};
      off += ws;
    }
  }

  // Gradients: one flat arena with the exact layout of the network's
  // param arena, each node's gradient tensors rebound onto its
  // segment (the allreduce operates on grad_arena() in place).
  grad_arena_ = runtime::AlignedBuffer<float>(net_->param_arena().size());
  zero_grads();
  std::size_t off = 0;
  for (std::size_t i = 0; i < n_layers; ++i) {
    std::vector<ParamSpec> specs = net_->layer(i).param_specs();
    exec_[i].grads.reserve(specs.size());
    for (const ParamSpec& spec : specs) {
      const std::size_t n =
          static_cast<std::size_t>(spec.value->shape().numel());
      Tensor grad(spec.value->shape());
      grad.rebind({grad_arena_.data() + off, n});
      exec_[i].grads.push_back(std::move(grad));
      off += n;
    }
  }
}

void ExecContext::build_inference_buffers() {
  const Network::MemPlan& plan = net_->mem_plan();
  const std::size_t n_layers = net_->layer_count();

  // Forward-only: an activation dies once the next node has read it,
  // so the whole pass collapses onto the two-slot parity arena (the
  // even/odd ping-pong).
  act_arena_ = runtime::AlignedBuffer<float>(net_->slot_arena_floats());
  activations_.reserve(n_layers);
  for (std::size_t i = 0; i < n_layers; ++i) {
    Tensor act(net_->layer(i).output_shape());
    float* base = act_arena_.data() + net_->slot_offset(i);
    act.rebind({base, act.size()});
    activations_.push_back(std::move(act));
  }
  act_bytes_ = act_arena_.size() * sizeof(float);

  // One shared staging workspace sized to the largest request. When
  // more than one layer uses it, each conv re-establishes its zero
  // border on entry (LayerExecState::workspace_shared).
  workspace_arena_ = runtime::AlignedBuffer<float>(plan.workspace_max);
  if (!workspace_arena_.empty()) {
    std::memset(workspace_arena_.data(), 0,
                workspace_arena_.size() * sizeof(float));
  }
  std::size_t users = 0;
  for (std::size_t i = 0; i < n_layers; ++i) {
    if (net_->layer(i).forward_workspace_floats() > 0) ++users;
  }
  for (std::size_t i = 0; i < n_layers; ++i) {
    const std::size_t ws = net_->layer(i).forward_workspace_floats();
    if (ws == 0) continue;
    exec_[i].workspace = {workspace_arena_.data(), ws};
    exec_[i].workspace_shared = users > 1;
  }
  // No diffs, no backward scratch, no gradients: backward() and
  // params() throw in this mode.
}

void ExecContext::build_inference_buffers_bf16() {
  const Network::MemPlan& plan = net_->mem_plan();
  const std::size_t n_layers = net_->layer_count();

  // Same parity placement as build_inference_buffers, but the arena
  // elements are bf16 — the layer outputs never exist in fp32. No fp32
  // activation tensors are allocated at all; the only fp32 tensor is
  // the widened output forward() returns.
  input16_ = runtime::AlignedBuffer<bf16_t>(
      static_cast<std::size_t>(net_->input_shape().numel()));
  act16_arena_ = runtime::AlignedBuffer<bf16_t>(net_->slot_arena_floats());
  act_bytes_ = act16_arena_.size() * sizeof(bf16_t);
  output_ = Tensor(net_->output_shape());

  // The staging workspace is still allocated in floats (its size
  // contract is forward_workspace_floats()); the bf16 conv kernels
  // reinterpret it as bf16 storage. All-zero bytes are valid bf16
  // zeros, so the zero-once / re-zero-when-shared contract is
  // unchanged.
  workspace_arena_ = runtime::AlignedBuffer<float>(plan.workspace_max);
  if (!workspace_arena_.empty()) {
    std::memset(workspace_arena_.data(), 0,
                workspace_arena_.size() * sizeof(float));
  }
  std::size_t users = 0;
  for (std::size_t i = 0; i < n_layers; ++i) {
    if (net_->layer(i).forward_workspace_floats() > 0) ++users;
  }
  for (std::size_t i = 0; i < n_layers; ++i) {
    const std::size_t ws = net_->layer(i).forward_workspace_floats();
    if (ws == 0) continue;
    exec_[i].workspace = {workspace_arena_.data(), ws};
    exec_[i].workspace_shared = users > 1;
  }
}

const Tensor& ExecContext::forward(const Tensor& input,
                                   runtime::ThreadPool& pool) {
  if (input.shape() != net_->input_shape()) {
    throw std::invalid_argument("ExecContext::forward: input shape " +
                                input.shape().to_string() + ", expected " +
                                net_->input_shape().to_string());
  }
  if (precision_ == Precision::kBf16) {
    return forward_bf16_path(input, pool);
  }
  if (mode_ == ExecMode::kInference) {
    // Nothing re-reads the input after its consumers in inference
    // mode (no backward), so the staging copy is pure overhead: run
    // the schedule loop straight off the caller's tensor. Every
    // Tensor's storage is 64-byte aligned, so the kernels see identical
    // alignment and the outputs are bitwise-identical.
    return run_forward(input, pool);
  }
  std::memcpy(input_.data(), input.data(), input.size() * sizeof(float));
  return run_forward(input_, pool);
}

std::span<float> ExecContext::input_staging() {
  if (input_.size() == 0) {
    throw std::logic_error(
        "ExecContext::input_staging: bf16 context has no fp32 input "
        "buffer");
  }
  return {input_.data(), static_cast<std::size_t>(input_.size())};
}

const Tensor& ExecContext::forward_staged(runtime::ThreadPool& pool) {
  if (input_.size() == 0) {
    throw std::logic_error(
        "ExecContext::forward_staged: bf16 context has no fp32 input "
        "buffer");
  }
  return run_forward(input_, pool);
}

const Tensor& ExecContext::run_forward(const Tensor& staged,
                                       runtime::ThreadPool& pool) {
  CF_TRACE_SCOPE("net/forward", "dnn");
  const Tensor* src = &staged;
  for (std::size_t i = 0; i < net_->layer_count(); ++i) {
    LayerProfile& row = profiles_[i];
    const std::uint64_t start_ns = obs::Tracer::now_ns();
    net_->layer(i).forward(*src, activations_[i], exec_[i], pool);
    end_pass(row.fwd, row.fwd_label, row.kind, start_ns);
    src = &activations_[i];
  }
  forward_done_ = true;
  return *src;
}

const Tensor& ExecContext::forward_bf16_path(const Tensor& input,
                                             runtime::ThreadPool& pool) {
  CF_TRACE_SCOPE("net/forward", "dnn");
  bf16_from_f32(input.data(), input16_.data(), input.size());
  const bf16_t* src = input16_.data();
  for (std::size_t i = 0; i < net_->layer_count(); ++i) {
    bf16_t* dst = act16_arena_.data() + net_->slot_offset(i);
    LayerProfile& row = profiles_[i];
    const std::uint64_t start_ns = obs::Tracer::now_ns();
    net_->layer(i).forward_bf16(src, dst, net_->bf16_param_segment(i),
                                exec_[i], pool);
    end_pass(row.fwd, row.fwd_label, row.kind, start_ns);
    src = dst;
  }
  f32_from_bf16(src, output_.data(), output_.size());
  forward_done_ = true;
  return output_;
}

void ExecContext::backward(const Tensor& dloss, runtime::ThreadPool& pool,
                           const GradReadyCallback& grad_ready) {
  if (mode_ != ExecMode::kTraining) {
    throw std::logic_error(
        "ExecContext::backward: inference context has no backward state");
  }
  if (!forward_done_) {
    throw std::logic_error("ExecContext::backward: no preceding forward");
  }
  if (dloss.shape() != net_->output_shape()) {
    throw std::invalid_argument(
        "ExecContext::backward: dloss shape mismatch");
  }
  CF_TRACE_SCOPE("net/backward", "dnn");
  Tensor& dout = diffs_.back();
  std::memcpy(dout.data(), dloss.data(), dout.size() * sizeof(float));

  for (std::size_t i = net_->layer_count(); i-- > 0;) {
    const Layer& layer = net_->layer(i);
    const Tensor& src = i == 0 ? input_ : activations_[i - 1];
    LayerProfile& row = profiles_[i];
    const bool has_params = net_->segment_size(i) > 0;
    // Bww first: it consumes diffs_[i] (fused layers mask it in place).
    if (has_params) {
      const std::uint64_t start_ns = obs::Tracer::now_ns();
      layer.backward_weights(src, activations_[i], diffs_[i], exec_[i],
                             pool);
      end_pass(row.bwd_weights, row.bww_label, row.kind, start_ns);
    }
    // Node 0's source is the network input: no data gradient.
    if (i > 0) {
      const std::uint64_t start_ns = obs::Tracer::now_ns();
      layer.backward_data(src, activations_[i], diffs_[i], diffs_[i - 1],
                          exec_[i], pool);
      end_pass(row.bwd_data, row.bwd_data_label, row.kind, start_ns);
    }
    if (grad_ready && has_params) grad_ready(i);
  }
}

void ExecContext::zero_grads() {
  if (grad_arena_.empty()) return;
  std::memset(grad_arena_.data(), 0, grad_arena_.size() * sizeof(float));
}

std::vector<ParamView> ExecContext::params() {
  if (mode_ != ExecMode::kTraining) {
    throw std::logic_error(
        "ExecContext::params: inference context has no gradients");
  }
  std::vector<ParamView> views;
  for (std::size_t i = 0; i < net_->layer_count(); ++i) {
    std::vector<ParamSpec> specs = net_->layer(i).param_specs();
    for (std::size_t j = 0; j < specs.size(); ++j) {
      views.push_back({specs[j].name, specs[j].value, &exec_[i].grads[j]});
    }
  }
  return views;
}

std::span<float> ExecContext::grad_segment(std::size_t i) {
  return grad_arena().subspan(net_->segment_offset(i),
                              net_->segment_size(i));
}

void ExecContext::copy_grads_to(std::span<float> out) {
  if (out.size() != grad_arena_.size()) {
    throw std::invalid_argument(
        "ExecContext::copy_grads_to: span size mismatch");
  }
  if (grad_arena_.empty()) return;
  std::memcpy(out.data(), grad_arena_.data(),
              grad_arena_.size() * sizeof(float));
}

void ExecContext::set_grads_from(std::span<const float> in) {
  if (in.size() != grad_arena_.size()) {
    throw std::invalid_argument(
        "ExecContext::set_grads_from: span size mismatch");
  }
  if (grad_arena_.empty()) return;
  std::memcpy(grad_arena_.data(), in.data(),
              grad_arena_.size() * sizeof(float));
}

void ExecContext::reset_profiles() {
  for (LayerProfile& row : profiles_) {
    row.fwd = {};
    row.bwd_data = {};
    row.bwd_weights = {};
  }
}

std::size_t ExecContext::total_bytes() const noexcept {
  return input_.size() * sizeof(float) +
         input16_.size() * sizeof(bf16_t) +
         output_.size() * sizeof(float) + activation_bytes() +
         diff_arena_bytes() + scratch_bytes() + workspace_bytes() +
         grad_bytes();
}

}  // namespace cf::dnn
