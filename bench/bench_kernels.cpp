// google-benchmark microbenchmarks for the compute primitives behind
// Table I: blocked vs reference 3D convolution (fwd / bww / bwd),
// average pooling, dense layers, leaky ReLU, and layout reorders.
#include <benchmark/benchmark.h>

#include <optional>

#include "dnn/activations.hpp"
#include "dnn/avgpool3d.hpp"
#include "dnn/conv3d.hpp"
#include "dnn/dense.hpp"
#include "dnn/standalone_exec.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/layout.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace cf;
using tensor::Shape;
using tensor::Tensor;

struct ConvFixture {
  ConvFixture(std::int64_t ic, std::int64_t oc, std::int64_t dhw,
              std::int64_t kernel, std::int64_t stride)
      : conv("conv", dnn::Conv3dConfig{ic, oc, kernel, stride,
                                       dnn::Padding::kSame}) {
    const Shape in = conv.input_is_plain()
                         ? Shape{ic, dhw, dhw, dhw}
                         : Shape{ic / 16, dhw, dhw, dhw, 16};
    conv.plan(in);
    exec.emplace(conv);
    runtime::Rng rng(1);
    conv.init_he(rng);
    src = Tensor(conv.input_shape());
    tensor::fill_normal(src, rng, 0.0f, 1.0f);
    dst = Tensor(conv.output_shape());
    ddst = Tensor(conv.output_shape());
    tensor::fill_normal(ddst, rng, 0.0f, 1.0f);
    dsrc = Tensor(conv.input_shape());
  }

  dnn::Conv3d conv;
  std::optional<dnn::StandaloneExec> exec;
  Tensor src, dst, ddst, dsrc;
  runtime::ThreadPool pool{1};
};

void BM_Conv3dForwardBlocked(benchmark::State& state) {
  ConvFixture f(state.range(0), state.range(1), state.range(2), 3, 1);
  for (auto _ : state) {
    f.exec->forward(f.src, f.dst, f.pool);
    benchmark::DoNotOptimize(f.dst.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(f.conv.flops().fwd) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Conv3dForwardBlocked)
    ->Args({1, 16, 32})    // first layer
    ->Args({16, 32, 32})   // early layer
    ->Args({64, 128, 8})   // late layer
    ->Unit(benchmark::kMillisecond);

void BM_Conv3dBackward(benchmark::State& state) {
  ConvFixture f(state.range(0), state.range(1), state.range(2), 3, 1);
  f.exec->forward(f.src, f.dst, f.pool);
  const bool need_dsrc = !f.conv.input_is_plain();
  for (auto _ : state) {
    f.exec->backward(f.src, f.dst, f.ddst, need_dsrc ? &f.dsrc : nullptr,
                     f.pool);
    benchmark::DoNotOptimize(f.dsrc.data());
  }
  const auto flops = f.conv.flops();
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(flops.bwd_weights +
                          (need_dsrc ? flops.bwd_data : 0)) *
          state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Conv3dBackward)
    ->Args({1, 16, 32})
    ->Args({16, 32, 32})
    ->Args({64, 128, 8})
    ->Unit(benchmark::kMillisecond);

void BM_Conv3dForwardReference(benchmark::State& state) {
  const std::int64_t ic = state.range(0);
  const std::int64_t oc = state.range(1);
  const std::int64_t dhw = state.range(2);
  runtime::Rng rng(2);
  Tensor src(Shape{ic, dhw, dhw, dhw});
  tensor::fill_normal(src, rng, 0.0f, 1.0f);
  Tensor weights(Shape{oc, ic, 3, 3, 3});
  tensor::fill_normal(weights, rng, 0.0f, 0.1f);
  Tensor bias(Shape{oc});
  const dnn::PadSpec pad = dnn::resolve_pad(dnn::Padding::kSame, dhw, 3, 1);
  Tensor dst(Shape{oc, dhw, dhw, dhw});
  for (auto _ : state) {
    conv3d_forward_reference(src, weights, bias, 1, pad, pad, pad, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * dhw * dhw * dhw * oc * ic * 27 * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Conv3dForwardReference)
    ->Args({16, 32, 16})
    ->Unit(benchmark::kMillisecond);

void BM_AvgPool3dForward(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  const std::int64_t dhw = state.range(1);
  dnn::AvgPool3d layer("pool", dnn::AvgPool3dConfig{2, 2});
  layer.plan(Shape{channels / 16, dhw, dhw, dhw, 16});
  dnn::StandaloneExec exec(layer);
  runtime::Rng rng(3);
  Tensor src(layer.input_shape());
  tensor::fill_normal(src, rng, 0.0f, 1.0f);
  Tensor dst(layer.output_shape());
  runtime::ThreadPool pool(1);
  for (auto _ : state) {
    exec.forward(src, dst, pool);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * src.size() * sizeof(float));
}
BENCHMARK(BM_AvgPool3dForward)
    ->Args({16, 64})
    ->Args({32, 32})
    ->Unit(benchmark::kMillisecond);

void BM_DenseForward(benchmark::State& state) {
  const std::int64_t in = state.range(0);
  const std::int64_t out = state.range(1);
  dnn::Dense layer("fc", in, out);
  layer.plan(Shape{in});
  dnn::StandaloneExec exec(layer);
  runtime::Rng rng(4);
  layer.init_xavier(rng);
  Tensor src(Shape{in});
  tensor::fill_normal(src, rng, 0.0f, 1.0f);
  Tensor dst(Shape{out});
  runtime::ThreadPool pool(1);
  for (auto _ : state) {
    exec.forward(src, dst, pool);
    benchmark::DoNotOptimize(dst.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * in * out * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DenseForward)
    ->Args({8192, 656})
    ->Args({656, 64})
    ->Unit(benchmark::kMicrosecond);

void BM_LeakyRelu(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  dnn::LeakyRelu layer("act", 0.01f);
  layer.plan(Shape{n});
  dnn::StandaloneExec exec(layer);
  runtime::Rng rng(5);
  Tensor src(Shape{n});
  tensor::fill_normal(src, rng, 0.0f, 1.0f);
  Tensor dst(Shape{n});
  runtime::ThreadPool pool(1);
  for (auto _ : state) {
    exec.forward(src, dst, pool);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * n * sizeof(float) * 2);
}
BENCHMARK(BM_LeakyRelu)->Arg(1 << 20)->Unit(benchmark::kMicrosecond);

void BM_LayoutReorder(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  const std::int64_t dhw = state.range(1);
  runtime::Rng rng(6);
  Tensor plain(Shape{channels, dhw, dhw, dhw});
  tensor::fill_normal(plain, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor blocked = tensor::to_blocked_activation(plain);
    benchmark::DoNotOptimize(blocked.data());
  }
  state.SetBytesProcessed(state.iterations() * plain.size() *
                          sizeof(float));
}
BENCHMARK(BM_LayoutReorder)->Args({16, 64})->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
