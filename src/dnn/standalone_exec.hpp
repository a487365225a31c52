// Driving one layer outside an ExecContext (unit tests, kernel benches).
//
// A planned layer holds no per-stream state (DESIGN.md §2.3), so a
// standalone driver owns what an ExecContext would hold for that layer:
// a zeroed forward workspace, backward scratch and zeroed gradient
// tensors parallel to param_specs().
#pragma once

#include <cstring>

#include "dnn/layer.hpp"
#include "runtime/aligned_buffer.hpp"

namespace cf::dnn {

struct StandaloneExec {
  /// Sizes the state for a planned `layer`, which must outlive it.
  explicit StandaloneExec(Layer& l)
      : layer(l),
        workspace(l.forward_workspace_floats()),
        scratch(l.backward_scratch_floats()) {
    if (!workspace.empty()) {
      std::memset(workspace.data(), 0, workspace.size() * sizeof(float));
    }
    state.workspace = {workspace.data(), workspace.size()};
    state.scratch = {scratch.data(), scratch.size()};
    for (const ParamSpec& spec : l.param_specs()) {
      state.grads.emplace_back(spec.value->shape());
    }
  }

  void forward(const tensor::Tensor& src, tensor::Tensor& dst,
               runtime::ThreadPool& pool) {
    layer.forward(src, dst, state, pool);
  }

  /// backward_weights, then backward_data — the order the Layer
  /// contract requires. A null `dsrc` skips the data gradient.
  void backward(const tensor::Tensor& src, const tensor::Tensor& dst,
                tensor::Tensor& ddst, tensor::Tensor* dsrc,
                runtime::ThreadPool& pool) {
    layer.backward_weights(src, dst, ddst, state, pool);
    if (dsrc != nullptr) {
      layer.backward_data(src, dst, ddst, *dsrc, state, pool);
    }
  }

  Layer& layer;
  runtime::AlignedBuffer<float> workspace;
  runtime::AlignedBuffer<float> scratch;
  LayerExecState state;
};

}  // namespace cf::dnn
