// Ablation microbenchmarks of the real CPU substrates (google-benchmark).
//
// These measure the library's own numerics, not the GPU model:
//   * SGEMM: blocked+packed+parallel vs the naive oracle;
//   * FFT: DIT vs DIF schedules across sizes;
//   * im2col lowering throughput;
//   * the three convolution strategies head-to-head on one geometry —
//     the CPU mirror of Fig. 3(d)'s strategy crossover;
//   * LRN forward and backward at GoogLeNet's batch-1 shapes;
//   * the zoo's batch-1 GEMM shapes on one core and on the whole pool.
//
// Beyond the stock google-benchmark flags the binary understands
//   --quick                    short run (--benchmark_min_time=0.01[s],
//                              suffixed iff the library is >= 1.8)
//   --json / --csv [--out DIR] export a BENCH_cpu_kernels table through
//                              obs::RunExporter (schema: docs/METRICS.md)
// so CI can archive machine-readable numbers next to the figure benches.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "blas/cgemm.hpp"
#include "blas/gemm.hpp"
#include "blas/igemm.hpp"
#include "blas/packed.hpp"
#include "blas/vector_ops.hpp"
#include "conv/quantized_conv.hpp"
#include "quant/quant.hpp"
#include "conv/conv_engine.hpp"
#include "conv/depthwise_conv.hpp"
#include "conv/gemm_conv.hpp"
#include "conv/im2col.hpp"
#include "conv/winograd_conv.hpp"
#include "core/cpu_features.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "core/thread_pool.hpp"
#include "conv/fft_conv.hpp"
#include "fft/fft.hpp"
#include "fft/rfft.hpp"
#include "nn/lrn_layer.hpp"
#include "obs/exporter.hpp"
#include "tune/autotuner.hpp"

namespace {

using namespace gpucnn;

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// --- SGEMM: blocked vs naive ----------------------------------------

void BM_SgemmBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n * n, 1);
  const auto b = random_vec(n * n, 2);
  std::vector<float> c(n * n, 0.0F);
  for (auto _ : state) {
    blas::sgemm(blas::Trans::kNo, blas::Trans::kNo, n, n, n, 1.0F, a, n, b,
                n, 0.0F, c, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      blas::gemm_flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SgemmBlocked)->Arg(128)->Arg(256)->Arg(512);

void BM_SgemmNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n * n, 1);
  const auto b = random_vec(n * n, 2);
  std::vector<float> c(n * n, 0.0F);
  for (auto _ : state) {
    blas::sgemm_naive(blas::Trans::kNo, blas::Trans::kNo, n, n, n, 1.0F, a,
                      n, b, n, 0.0F, c, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      blas::gemm_flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SgemmNaive)->Arg(128)->Arg(256);

// --- FFT schedules ---------------------------------------------------

void BM_FftDit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const fft::Plan plan(n, fft::Schedule::kDit);
  std::vector<fft::Complex> data(n);
  Rng rng(3);
  for (auto& v : data) {
    v = fft::Complex(static_cast<float>(rng.uniform(-1, 1)),
                     static_cast<float>(rng.uniform(-1, 1)));
  }
  for (auto _ : state) {
    plan.transform(data, fft::Direction::kForward);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_FftDit)->Arg(256)->Arg(1024)->Arg(4096);

void BM_FftDif(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const fft::Plan plan(n, fft::Schedule::kDif);
  std::vector<fft::Complex> data(n);
  Rng rng(3);
  for (auto& v : data) {
    v = fft::Complex(static_cast<float>(rng.uniform(-1, 1)),
                     static_cast<float>(rng.uniform(-1, 1)));
  }
  for (auto _ : state) {
    plan.transform(data, fft::Direction::kForward);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_FftDif)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Fft2d(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const fft::Plan plan(n);
  std::vector<fft::Complex> data(n * n, fft::Complex{1.0F, 0.0F});
  for (auto _ : state) {
    fft::transform_2d(data, plan, plan, fft::Direction::kForward);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_Fft2d)->Arg(64)->Arg(128);

// --- real-input fast path --------------------------------------------

void BM_Rfft2(benchmark::State& state) {
  // Same plane sizes as BM_Fft2d: the half-spectrum R2C transform should
  // cost roughly half the dense complex 2-D pass above.
  const auto n = static_cast<std::size_t>(state.range(0));
  const fft::Plan plan(n);
  const auto src = random_vec(n * n, 6);
  std::vector<fft::Complex> spec(fft::half_spectrum_size(n));
  for (auto _ : state) {
    fft::rfft2(src, spec, plan);
    benchmark::DoNotOptimize(spec.data());
  }
}
BENCHMARK(BM_Rfft2)->Arg(64)->Arg(128);

void BM_Rfft2RoundTrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const fft::Plan plan(n);
  const auto src = random_vec(n * n, 7);
  std::vector<fft::Complex> spec(fft::half_spectrum_size(n));
  std::vector<float> back(n * n);
  for (auto _ : state) {
    fft::rfft2(src, spec, plan);
    fft::irfft2(spec, back, plan);
    benchmark::DoNotOptimize(back.data());
  }
}
BENCHMARK(BM_Rfft2RoundTrip)->Arg(64)->Arg(128);

// --- im2col ----------------------------------------------------------

void BM_Im2col(benchmark::State& state) {
  const ConvConfig cfg{.batch = 1, .input = 64,
                       .channels = static_cast<std::size_t>(state.range(0)),
                       .filters = 1, .kernel = 3, .stride = 1, .pad = 1};
  const auto input = random_vec(cfg.channels * 64 * 64, 4);
  std::vector<float> col(conv::col_buffer_size(cfg));
  for (auto _ : state) {
    conv::im2col(cfg, input, col);
    benchmark::DoNotOptimize(col.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(col.size() * 4 * state.iterations()));
}
BENCHMARK(BM_Im2col)->Arg(8)->Arg(32);

// --- convolution strategies (CPU mirror of Fig. 3(d)) ----------------

void conv_strategy_bench(benchmark::State& state, conv::Strategy strategy) {
  const ConvConfig cfg{
      .batch = 2, .input = 32, .channels = 4, .filters = 8,
      .kernel = static_cast<std::size_t>(state.range(0)), .stride = 1};
  const auto* engine = &conv::strategy_engine(strategy);
  Rng rng(5);
  Tensor in(cfg.input_shape());
  in.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  Tensor out(cfg.output_shape());
  for (auto _ : state) {
    engine->forward(cfg, in, w, out);
    benchmark::DoNotOptimize(out.raw());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      cfg.forward_flops() * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_ConvDirect(benchmark::State& state) {
  conv_strategy_bench(state, conv::Strategy::kDirect);
}
void BM_ConvUnrolling(benchmark::State& state) {
  conv_strategy_bench(state, conv::Strategy::kUnrolling);
}
void BM_ConvFft(benchmark::State& state) {
  conv_strategy_bench(state, conv::Strategy::kFft);
}
BENCHMARK(BM_ConvDirect)->Arg(3)->Arg(7)->Arg(13);
BENCHMARK(BM_ConvUnrolling)->Arg(3)->Arg(7)->Arg(13);
BENCHMARK(BM_ConvFft)->Arg(3)->Arg(7)->Arg(13);
void BM_ConvWinograd(benchmark::State& state) {
  conv_strategy_bench(state, conv::Strategy::kWinograd);
}
BENCHMARK(BM_ConvWinograd)->Arg(3);  // F(2x2,3x3): 3x3 kernels only

// --- depthwise and pointwise engines ---------------------------------

/// MobileNet-style interior depthwise layer: 3x3, C = 64, 56x56.
/// Acceptance geometry: DepthwiseConv must beat grouped GemmConv here —
/// the grouped im2col+GEMM path moves the whole column matrix for a
/// reduction of only k*k.
constexpr ConvConfig kDepthwiseCfg{.batch = 1, .input = 56, .channels = 64,
                                   .filters = 64, .kernel = 3, .stride = 1,
                                   .pad = 1, .groups = 64};

void depthwise_forward_bench(benchmark::State& state,
                             const conv::ConvEngine& engine) {
  Rng rng(12);
  Tensor in(kDepthwiseCfg.input_shape());
  in.fill_uniform(rng);
  Tensor w(kDepthwiseCfg.filter_shape());
  w.fill_uniform(rng);
  Tensor out(kDepthwiseCfg.output_shape());
  for (auto _ : state) {
    engine.forward(kDepthwiseCfg, in, w, out);
    benchmark::DoNotOptimize(out.raw());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      kDepthwiseCfg.forward_flops() *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_DepthwiseConvForward(benchmark::State& state) {
  const conv::DepthwiseConv engine;
  depthwise_forward_bench(state, engine);
}
void BM_DepthwiseViaGroupedGemm(benchmark::State& state) {
  const conv::GemmConv engine;
  depthwise_forward_bench(state, engine);
}
BENCHMARK(BM_DepthwiseConvForward);
BENCHMARK(BM_DepthwiseViaGroupedGemm);

/// Pointwise (1x1) projection layer from the same separable block.
/// GemmConv feeds the NCHW planes straight to SGEMM; the staged lowering
/// copies them through the column buffer first (im2col, then the same
/// SGEMM).
constexpr ConvConfig kPointwiseCfg{.batch = 1, .input = 56, .channels = 64,
                                   .filters = 128, .kernel = 1, .stride = 1,
                                   .pad = 0};

void pointwise_forward_bench(benchmark::State& state, bool staged) {
  const conv::GemmConv engine;
  Rng rng(13);
  Tensor in(kPointwiseCfg.input_shape());
  in.fill_uniform(rng);
  Tensor w(kPointwiseCfg.filter_shape());
  w.fill_uniform(rng);
  Tensor out(kPointwiseCfg.output_shape());
  const std::size_t cols = kPointwiseCfg.output() * kPointwiseCfg.output();
  std::vector<float> col(conv::col_buffer_size(kPointwiseCfg));
  for (auto _ : state) {
    if (staged) {
      conv::im2col(kPointwiseCfg, in.data(), col);
      blas::sgemm(blas::Trans::kNo, blas::Trans::kNo, kPointwiseCfg.filters,
                  cols, kPointwiseCfg.channels, 1.0F, w.data(),
                  kPointwiseCfg.channels, col, cols, 0.0F, out.data(), cols);
    } else {
      engine.forward(kPointwiseCfg, in, w, out);
    }
    benchmark::DoNotOptimize(out.raw());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      kPointwiseCfg.forward_flops() *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_PointwiseConvDirectGemm(benchmark::State& state) {
  pointwise_forward_bench(state, /*staged=*/false);
}
void BM_PointwiseConvStagedIm2col(benchmark::State& state) {
  pointwise_forward_bench(state, /*staged=*/true);
}
BENCHMARK(BM_PointwiseConvDirectGemm);
BENCHMARK(BM_PointwiseConvStagedIm2col);

// --- FFT conv: half-spectrum vs full-complex -------------------------

void fft_conv_bench(benchmark::State& state,
                    conv::FftConv::Spectrum spectrum) {
  // The paper-representative FFT-friendly geometry (large kernel on a
  // 64x64 plane); the half/full pair quantifies the real-input win.
  const ConvConfig cfg{.batch = 4, .input = 64, .channels = 8,
                       .filters = 8, .kernel = 9, .stride = 1};
  const conv::FftConv engine(spectrum);
  Rng rng(8);
  Tensor in(cfg.input_shape());
  in.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  Tensor out(cfg.output_shape());
  for (auto _ : state) {
    engine.forward(cfg, in, w, out);
    benchmark::DoNotOptimize(out.raw());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      cfg.forward_flops() * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_FftConvForward(benchmark::State& state) {
  fft_conv_bench(state, conv::FftConv::Spectrum::kHalf);
}
void BM_FftConvForwardComplex(benchmark::State& state) {
  fft_conv_bench(state, conv::FftConv::Spectrum::kFull);
}
BENCHMARK(BM_FftConvForward);
BENCHMARK(BM_FftConvForwardComplex);

// --- fused conv+bias+ReLU epilogue vs separate passes ----------------
// These (and the autotune pair below) export into their own
// BENCH_autotune table; see main().

/// Geometry whose im2col GEMM is big enough to take the blocked path, so
/// the epilogue rides the packed write-back tiles.
constexpr ConvConfig kFusedCfg{.batch = 2, .input = 28, .channels = 32,
                               .filters = 64, .kernel = 3, .stride = 1,
                               .pad = 1};

void BM_ConvFusedBiasRelu(benchmark::State& state) {
  const conv::GemmConv engine;
  Rng rng(9);
  Tensor in(kFusedCfg.input_shape());
  in.fill_uniform(rng);
  Tensor w(kFusedCfg.filter_shape());
  w.fill_uniform(rng);
  const auto bias = random_vec(kFusedCfg.filters, 10);
  Tensor out(kFusedCfg.output_shape());
  for (auto _ : state) {
    engine.forward(kFusedCfg, in, w, out, {.bias = bias, .relu = true});
    benchmark::DoNotOptimize(out.raw());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      kFusedCfg.forward_flops() * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConvFusedBiasRelu);

void BM_ConvThenBiasThenRelu(benchmark::State& state) {
  const conv::GemmConv engine;
  Rng rng(9);
  Tensor in(kFusedCfg.input_shape());
  in.fill_uniform(rng);
  Tensor w(kFusedCfg.filter_shape());
  w.fill_uniform(rng);
  const auto bias = random_vec(kFusedCfg.filters, 10);
  Tensor out(kFusedCfg.output_shape());
  const std::size_t inner = kFusedCfg.output() * kFusedCfg.output();
  for (auto _ : state) {
    engine.forward(kFusedCfg, in, w, out);
    blas::add_bias(out.data(), bias, kFusedCfg.batch, kFusedCfg.filters,
                   inner);
    for (float& v : out.data()) v = v > 0.0F ? v : 0.0F;
    benchmark::DoNotOptimize(out.raw());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      kFusedCfg.forward_flops() * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConvThenBiasThenRelu);

// --- int8 GEMM and quantized conv vs fp32 ----------------------------
// The BM_Int8* benches and their fp32 twins pair up into the BENCH_int8
// table (fp32 ns / int8 ns / speedup per case); see main().

void BM_Int8Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<std::int8_t> a(n * n);
  std::vector<std::uint8_t> b(n * n);
  for (auto& v : a) {
    v = static_cast<std::int8_t>(rng.uniform(-63.0, 64.0));
  }
  for (auto& v : b) {
    v = static_cast<std::uint8_t>(rng.uniform(0.0, 256.0));
  }
  const std::vector<float> scales(n, 0.01F);
  const std::vector<std::int32_t> row_offsets(n, 0);
  blas::QEpilogue ep;
  ep.scales = scales.data();
  ep.row_offsets = row_offsets.data();
  std::vector<float> c(n * n, 0.0F);
  for (auto _ : state) {
    blas::igemm(n, n, n, a, n, b, n, ep, c, n);
    benchmark::DoNotOptimize(c.data());
  }
  // int multiply-adds counted like the fp32 twin's FLOPs, so the
  // GFLOP/s columns of BM_SgemmBlocked and BM_Int8Gemm compare 1:1.
  state.counters["GFLOP/s"] = benchmark::Counter(
      blas::gemm_flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Int8Gemm)->Arg(128)->Arg(256)->Arg(512);

/// Model-zoo conv shapes for the fp32-vs-int8 forward pair (batch-1
/// inference, the serving case): AlexNet conv3, VGG conv3_1, GoogLeNet
/// inception-3a 3x3, VGG conv1_2 (the memory-bound early layer whose
/// im2col matrix shrinks 4x in uint8).
constexpr ConvConfig kInt8ConvShapes[] = {
    {.batch = 1, .input = 13, .channels = 256, .filters = 384, .kernel = 3,
     .stride = 1, .pad = 1},
    {.batch = 1, .input = 56, .channels = 128, .filters = 256, .kernel = 3,
     .stride = 1, .pad = 1},
    {.batch = 1, .input = 28, .channels = 96, .filters = 128, .kernel = 3,
     .stride = 1, .pad = 1},
    {.batch = 1, .input = 224, .channels = 64, .filters = 64, .kernel = 3,
     .stride = 1, .pad = 1},
};

std::string int8_shape_name(const ConvConfig& c) {
  return std::to_string(c.batch) + "x" + std::to_string(c.channels) + "x" +
         std::to_string(c.input) + " k" + std::to_string(c.kernel) + " f" +
         std::to_string(c.filters);
}

void BM_Fp32ConvForward(benchmark::State& state) {
  const ConvConfig& cfg =
      kInt8ConvShapes[static_cast<std::size_t>(state.range(0))];
  const conv::GemmConv engine;
  Rng rng(5);
  Tensor in(cfg.input_shape());
  in.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng, -1.0F, 1.0F);
  const auto bias = random_vec(cfg.filters, 10);
  Tensor out(cfg.output_shape());
  for (auto _ : state) {
    engine.forward(cfg, in, w, out, {.bias = bias, .relu = true});
    benchmark::DoNotOptimize(out.raw());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      cfg.forward_flops() * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fp32ConvForward)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_Int8ConvForward(benchmark::State& state) {
  const ConvConfig& cfg =
      kInt8ConvShapes[static_cast<std::size_t>(state.range(0))];
  Rng rng(5);
  Tensor in(cfg.input_shape());
  in.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng, -1.0F, 1.0F);
  const auto bias = random_vec(cfg.filters, 10);
  Tensor out(cfg.output_shape());
  // The deployed path: weights prepacked offline, activation scale
  // pinned by calibration — per-iteration work is the uint8 im2col +
  // igemm.
  const auto qw = quant::quantize_filters(
      w.data(), cfg.filters,
      (cfg.channels / cfg.groups) * cfg.kernel * cfg.kernel);
  const quant::ActQuant aq = quant::choose_act_quant(-1.0F, 1.0F);
  for (auto _ : state) {
    conv::quantized_gemm_forward(cfg, in, qw, nullptr, aq, bias,
                                 /*relu=*/true, out);
    benchmark::DoNotOptimize(out.raw());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      cfg.forward_flops() * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Int8ConvForward)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// --- prepacked weight reuse vs per-call packing ----------------------
// The BM_*Prepacked benches pair with the staged runs above into the
// BENCH_prepack table (staged ns / prepacked ns / speedup); see main().

void BM_SgemmPrepacked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n * n, 1);
  const auto b = random_vec(n * n, 2);
  std::vector<float> c(n * n, 0.0F);
  // Weights packed once, outside the loop — the serving steady state.
  const blas::PackedMatrix pa = blas::pack_a(blas::Trans::kNo, n, n, a, n);
  for (auto _ : state) {
    blas::sgemm(blas::Trans::kNo, blas::Trans::kNo, n, n, n, 1.0F, a, n, b,
                n, 0.0F, c, n, {}, &pa);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      blas::gemm_flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SgemmPrepacked)->Arg(128)->Arg(256)->Arg(512);

void BM_Int8GemmPrepacked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<std::int8_t> a(n * n);
  std::vector<std::uint8_t> b(n * n);
  for (auto& v : a) {
    v = static_cast<std::int8_t>(rng.uniform(-63.0, 64.0));
  }
  for (auto& v : b) {
    v = static_cast<std::uint8_t>(rng.uniform(0.0, 256.0));
  }
  const std::vector<float> scales(n, 0.01F);
  const std::vector<std::int32_t> row_offsets(n, 0);
  blas::QEpilogue ep;
  ep.scales = scales.data();
  ep.row_offsets = row_offsets.data();
  std::vector<float> c(n * n, 0.0F);
  const blas::PackedMatrixI8 pa = blas::pack_a_i8(n, n, a, n);
  for (auto _ : state) {
    blas::igemm(n, n, n, a, n, b, n, ep, c, n, &pa);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      blas::gemm_flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Int8GemmPrepacked)->Arg(128)->Arg(256)->Arg(512);

void BM_PrepackedConvForward(benchmark::State& state) {
  // Same shapes, inputs, and fused epilogue as BM_Fp32ConvForward; the
  // only difference is the cached weight panels.
  const ConvConfig& cfg =
      kInt8ConvShapes[static_cast<std::size_t>(state.range(0))];
  const conv::GemmConv engine;
  Rng rng(5);
  Tensor in(cfg.input_shape());
  in.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng, -1.0F, 1.0F);
  const auto bias = random_vec(cfg.filters, 10);
  Tensor out(cfg.output_shape());
  const auto packed = engine.prepack(cfg, w);
  for (auto _ : state) {
    engine.forward(cfg, in, w, out,
                   {.bias = bias, .relu = true, .packed = packed.get()});
    benchmark::DoNotOptimize(out.raw());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      cfg.forward_flops() * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PrepackedConvForward)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// --- Winograd tile-GEMM engine vs im2col+GEMM ------------------------
// Both tile sizes run the serving steady state (fused bias+ReLU over
// prepacked transformed-filter panels — the post-freeze_for_inference
// path) on the same zoo shapes, inputs, and epilogue as
// BM_Fp32ConvForward; main() pairs them into the BENCH_winograd table.

void winograd_forward_bench(benchmark::State& state,
                            conv::WinogradTile tile) {
  const ConvConfig& cfg =
      kInt8ConvShapes[static_cast<std::size_t>(state.range(0))];
  const conv::WinogradConv engine(tile);
  Rng rng(5);
  Tensor in(cfg.input_shape());
  in.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng, -1.0F, 1.0F);
  const auto bias = random_vec(cfg.filters, 10);
  Tensor out(cfg.output_shape());
  const auto packed = engine.prepack(cfg, w);
  for (auto _ : state) {
    engine.forward(cfg, in, w, out,
                   {.bias = bias, .relu = true, .packed = packed.get()});
    benchmark::DoNotOptimize(out.raw());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      cfg.forward_flops() * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_WinogradConvForwardF2(benchmark::State& state) {
  winograd_forward_bench(state, conv::WinogradTile::kF2);
}
BENCHMARK(BM_WinogradConvForwardF2)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_WinogradConvForwardF4(benchmark::State& state) {
  winograd_forward_bench(state, conv::WinogradTile::kF4);
}
BENCHMARK(BM_WinogradConvForwardF4)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// --- autotuner: cold trial cost vs warm cache hit --------------------

void BM_AutotuneColdDecide(benchmark::State& state) {
  auto& tuner = tune::Autotuner::instance();
  const tune::Mode mode_before = tuner.mode();
  const int trials_before = tuner.set_trials_for_testing(1);
  tuner.set_mode(tune::Mode::kMeasure);
  const ConvConfig cfg{.batch = 1, .input = 16, .channels = 8,
                       .filters = 16, .kernel = 3, .stride = 1, .pad = 1};
  for (auto _ : state) {
    tuner.clear();  // every iteration pays the full measurement sweep
    const auto d = tuner.decide(cfg, tune::Pass::kForward);
    benchmark::DoNotOptimize(d.engine);
  }
  tuner.clear();
  tuner.set_trials_for_testing(trials_before);
  tuner.set_mode(mode_before);
}
BENCHMARK(BM_AutotuneColdDecide);

void BM_AutotuneWarmDecide(benchmark::State& state) {
  auto& tuner = tune::Autotuner::instance();
  const tune::Mode mode_before = tuner.mode();
  const int trials_before = tuner.set_trials_for_testing(1);
  tuner.set_mode(tune::Mode::kMeasure);
  const ConvConfig cfg{.batch = 1, .input = 16, .channels = 8,
                       .filters = 16, .kernel = 3, .stride = 1, .pad = 1};
  tuner.clear();
  (void)tuner.decide(cfg, tune::Pass::kForward);  // prime the memo
  for (auto _ : state) {
    const auto d = tuner.decide(cfg, tune::Pass::kForward);
    benchmark::DoNotOptimize(d.engine);
  }
  tuner.clear();
  tuner.set_trials_for_testing(trials_before);
  tuner.set_mode(mode_before);
}
BENCHMARK(BM_AutotuneWarmDecide);

// --- CGEMM pointwise stage -------------------------------------------

void BM_CgemmPointwise(benchmark::State& state) {
  // The per-frequency product of FFT convolution: many tiny NT GEMMs.
  const std::size_t bins = 1024;
  const std::size_t n = 8, c = 4, f = 8;
  std::vector<blas::Complex> a(bins * n * c, {1.0F, 0.5F});
  std::vector<blas::Complex> b(bins * f * c, {0.5F, -1.0F});
  std::vector<blas::Complex> out(bins * n * f);
  for (auto _ : state) {
    for (std::size_t bin = 0; bin < bins; ++bin) {
      blas::cgemm_nt_conj(
          n, f, c, {1.0F, 0.0F},
          std::span<const blas::Complex>(a).subspan(bin * n * c, n * c), c,
          std::span<const blas::Complex>(b).subspan(bin * f * c, f * c), c,
          {0.0F, 0.0F},
          std::span<blas::Complex>(out).subspan(bin * n * f, n * f), f);
    }
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_CgemmPointwise);

// --- zoo GEMMs on one core and on all ------------------------------
// The batch-1 GEMM shapes of the zoo's convs and classifiers, in their
// frozen steady state (conv weights prepacked as A, classifier weights
// as B). BM_ZooGemmOneCore runs the call inside a pool task, where every
// dispatch runs inline; BM_ZooGemm runs it from the caller on the whole
// pool. main() pairs them into the BENCH_zoo_gemm table.

struct ZooGemm {
  std::size_t m, n, k;
  bool classifier;  ///< in(1 x k) * W^T: the weights are packed B
};
constexpr ZooGemm kZooGemms[] = {
    {32, 12544, 27, false},   // MobileNet conv1 (3x3/s2 im2col)
    {64, 12544, 32, false},   // MobileNet conv2/pw
    {128, 3136, 64, false},   // MobileNet conv3/pw
    {128, 3136, 128, false},  // MobileNet conv4/pw
    {64, 12544, 147, false},  // GoogLeNet 7x7/s2 stem
    {192, 784, 576, false},   // 3x3 conv at 28x28
    {512, 196, 512, false},   // MobileNet conv8-12/pw, M >= 4 x MC
    {1, 1000, 1024, true},    // MobileNet classifier
};

std::string zoo_gemm_name(const ZooGemm& g) {
  return std::to_string(g.m) + "x" + std::to_string(g.n) + "x" +
         std::to_string(g.k);
}

void zoo_gemm_bench(benchmark::State& state, bool one_core) {
  const ZooGemm& g = kZooGemms[static_cast<std::size_t>(state.range(0))];
  const auto a = random_vec(g.m * g.k, 1);
  const auto b = random_vec(g.k * g.n, 2);
  std::vector<float> c(g.m * g.n);
  // Classifier: b holds W (n x k) and op(B) = W^T; conv: a holds W.
  const auto trans_b = g.classifier ? blas::Trans::kYes : blas::Trans::kNo;
  const std::size_t ldb = g.classifier ? g.k : g.n;
  const blas::PackedMatrix pack =
      g.classifier ? blas::pack_b(trans_b, g.k, g.n, b, ldb)
                   : blas::pack_a(blas::Trans::kNo, g.m, g.k, a, g.k);
  const auto call = [&] {
    blas::sgemm(blas::Trans::kNo, trans_b, g.m, g.n, g.k, 1.0F, a, g.k, b,
                ldb, 0.0F, c, g.n, {}, &pack);
  };
  for (auto _ : state) {
    if (one_core) {
      parallel_for_chunks(0, 1, [&](std::size_t, std::size_t) { call(); });
    } else {
      call();
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      blas::gemm_flops(g.m, g.n, g.k) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_ZooGemmOneCore(benchmark::State& state) {
  zoo_gemm_bench(state, /*one_core=*/true);
}
void BM_ZooGemm(benchmark::State& state) {
  zoo_gemm_bench(state, /*one_core=*/false);
}
BENCHMARK(BM_ZooGemmOneCore)
    ->DenseRange(0, std::size(kZooGemms) - 1)
    ->UseRealTime();
BENCHMARK(BM_ZooGemm)
    ->DenseRange(0, std::size(kZooGemms) - 1)
    ->UseRealTime();

// --- LRN -------------------------------------------------------------

/// GoogLeNet's two LRN layers at batch 1: lrn1 (arg 0) and lrn2 (arg 1),
/// with the zoo's parameters (size 5, alpha 1e-4, beta 0.75, k 2).
constexpr TensorShape kLrnShapes[] = {{1, 64, 56, 56}, {1, 192, 56, 56}};

void BM_LrnForward(benchmark::State& state) {
  nn::LrnLayer lrn("lrn");
  lrn.set_training(false);
  Rng rng(14);
  Tensor in(kLrnShapes[state.range(0)]);
  in.fill_uniform(rng);
  Tensor out;
  for (auto _ : state) {
    lrn.forward(in, out);
    benchmark::DoNotOptimize(out.raw());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_LrnForward)->Arg(0)->Arg(1);

void BM_LrnBackward(benchmark::State& state) {
  nn::LrnLayer lrn("lrn");
  Rng rng(15);
  Tensor in(kLrnShapes[state.range(0)]);
  in.fill_uniform(rng);
  Tensor gout(in.shape());
  gout.fill_uniform(rng);
  Tensor out;
  Tensor gin;
  lrn.forward(in, out);
  for (auto _ : state) {
    lrn.backward(in, gout, gin);
    benchmark::DoNotOptimize(gin.raw());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_LrnBackward)->Arg(1);

// --- reporting -------------------------------------------------------

// Console reporter that additionally collects one table row per
// benchmark run, so the numbers land in the export artifact with the
// same schema-checked layout as the figure benches.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      std::vector<std::string> row(5);
      row[0] = run.benchmark_name();
      // GetAdjustedRealTime() is per-iteration in the run's time unit;
      // benches here all use the default (ns).
      row[1] = std::to_string(run.GetAdjustedRealTime());
      row[2] = std::to_string(run.GetAdjustedCPUTime());
      row[3] = std::to_string(run.iterations);
      const auto gf = run.counters.find("GFLOP/s");
      if (gf != run.counters.end()) {
        row[4] = std::to_string(gf->second.value);
      }
      rows_.push_back(std::move(row));
    }
  }

  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const {
    return rows_;
  }

 private:
  std::vector<std::vector<std::string>> rows_;
};

// google-benchmark 1.8.0 started parsing --benchmark_min_time suffixes
// ("<N>s" / "<N>x") and deprecated suffix-less values; older releases
// reject the suffix outright. State::skipped() shipped in that same
// release, so probe it to pick the spelling the linked library accepts.
template <typename State, typename = void>
struct MinTimeTakesSuffix : std::false_type {};
template <typename State>
struct MinTimeTakesSuffix<
    State, std::void_t<decltype(std::declval<State&>().skipped())>>
    : std::true_type {};

constexpr const char* kQuickMinTimeFlag =
    MinTimeTakesSuffix<benchmark::State>::value
        ? "--benchmark_min_time=0.01s"
        : "--benchmark_min_time=0.01";

}  // namespace

int main(int argc, char** argv) {
  auto options = gpucnn::obs::ExportOptions::parse(argc, argv);

  // Rebuild argv for google-benchmark: strip --quick, and when it was
  // given inject a short min-time so the whole suite finishes in
  // seconds (CI calls this; the numbers are noisier but the ordering
  // between kernels survives).
  std::vector<char*> args;
  bool quick = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string min_time = kQuickMinTimeFlag;
  if (quick) args.push_back(min_time.data());
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // The fused-epilogue and autotuner pairs export as their own table so
  // the executor-feature numbers are addressable separately from the
  // kernel ablations.
  const auto is_autotune_row = [](const std::vector<std::string>& row) {
    return row[0].rfind("BM_ConvFused", 0) == 0 ||
           row[0].rfind("BM_ConvThenBias", 0) == 0 ||
           row[0].rfind("BM_Autotune", 0) == 0;
  };
  std::vector<std::vector<std::string>> kernel_rows;
  std::vector<std::vector<std::string>> autotune_rows;
  for (const auto& row : reporter.rows()) {
    (is_autotune_row(row) ? autotune_rows : kernel_rows).push_back(row);
  }

  // Paired tables: each row times a baseline bench against its twin on
  // the same case, speedup = baseline / twin (the raw runs stay in
  // BENCH_cpu_kernels too).
  const auto real_ns = [&](const std::string& name) -> double {
    for (const auto& row : reporter.rows()) {
      if (row[0] == name) return std::stod(row[1]);
    }
    return 0.0;
  };
  using Rows = std::vector<std::vector<std::string>>;
  const auto add_pair = [&](Rows& rows, const std::string& label,
                            const std::string& base_name,
                            const std::string& twin_name) {
    const double base = real_ns(base_name);
    const double twin = real_ns(twin_name);
    if (base <= 0.0 || twin <= 0.0) return;  // filtered out of this run
    rows.push_back({label, std::to_string(base), std::to_string(twin),
                    std::to_string(base / twin)});
  };

  // BENCH_int8: each int8 bench against its fp32 twin. BENCH_prepack:
  // what pack-once/execute-many buys per GEMM shape. BENCH_winograd: both
  // tile sizes against the staged fused GemmConv forward they displace.
  Rows int8_rows;
  Rows prepack_rows;
  Rows winograd_rows;
  Rows zoo_gemm_rows;
  for (const int n : {128, 256, 512}) {
    const std::string size = std::to_string(n);
    add_pair(int8_rows, "gemm/" + size, "BM_SgemmBlocked/" + size,
             "BM_Int8Gemm/" + size);
    add_pair(prepack_rows, "sgemm/" + size, "BM_SgemmBlocked/" + size,
             "BM_SgemmPrepacked/" + size);
    add_pair(prepack_rows, "igemm/" + size, "BM_Int8Gemm/" + size,
             "BM_Int8GemmPrepacked/" + size);
  }
  for (std::size_t i = 0; i < std::size(kInt8ConvShapes); ++i) {
    const std::string shape = int8_shape_name(kInt8ConvShapes[i]);
    const std::string fp32 = "BM_Fp32ConvForward/" + std::to_string(i);
    add_pair(int8_rows, "conv/" + shape, fp32,
             "BM_Int8ConvForward/" + std::to_string(i));
    add_pair(prepack_rows, "conv/" + shape, fp32,
             "BM_PrepackedConvForward/" + std::to_string(i));
    add_pair(winograd_rows, "conv-f2/" + shape, fp32,
             "BM_WinogradConvForwardF2/" + std::to_string(i));
    add_pair(winograd_rows, "conv-f4/" + shape, fp32,
             "BM_WinogradConvForwardF4/" + std::to_string(i));
  }
  // BENCH_zoo_gemm: what spreading a zoo GEMM over the pool buys.
  for (std::size_t i = 0; i < std::size(kZooGemms); ++i) {
    const std::string arg = "/" + std::to_string(i);
    add_pair(zoo_gemm_rows, zoo_gemm_name(kZooGemms[i]),
             "BM_ZooGemmOneCore" + arg, "BM_ZooGemm" + arg);
  }

  gpucnn::obs::RunExporter exporter(options, "bench_cpu_kernels");
  exporter.annotate("simd", gpucnn::simd::name(gpucnn::simd::active()));
  exporter.annotate("quick", quick ? "true" : "false");
  exporter.add_table(
      "BENCH_cpu_kernels",
      "CPU kernel ablation microbenchmarks (google-benchmark runs)",
      {"benchmark", "real_time_ns", "cpu_time_ns", "iterations", "gflops"},
      kernel_rows);
  exporter.add_table(
      "BENCH_autotune",
      "Fused conv+bias+ReLU epilogue and autotuner cold/warm decide cost",
      {"benchmark", "real_time_ns", "cpu_time_ns", "iterations", "gflops"},
      autotune_rows);
  exporter.add_table(
      "BENCH_int8",
      "fp32 vs int8: blocked GEMM and fused conv forward on model-zoo "
      "shapes (speedup = fp32_real_ns / int8_real_ns)",
      {"case", "fp32_real_ns", "int8_real_ns", "speedup"}, int8_rows);
  exporter.add_table(
      "BENCH_prepack",
      "per-call weight packing vs prepacked reuse: blocked sgemm/igemm "
      "and fused conv forward (speedup = staged_real_ns / "
      "prepacked_real_ns)",
      {"case", "staged_real_ns", "prepacked_real_ns", "speedup"},
      prepack_rows);
  exporter.add_table(
      "BENCH_winograd",
      "im2col+GEMM vs Winograd tile-GEMM fused conv forward on model-zoo "
      "3x3/s1 shapes, prepacked filter panels, both tile sizes "
      "(speedup = gemm_real_ns / winograd_real_ns)",
      {"case", "gemm_real_ns", "winograd_real_ns", "speedup"},
      winograd_rows);
  exporter.add_table(
      "BENCH_zoo_gemm",
      "model-zoo batch-1 GEMM shapes (MxNxK, prepacked weights) inside one "
      "pool task vs on the whole pool (speedup = one_core_real_ns / "
      "all_cores_real_ns)",
      {"case", "one_core_real_ns", "all_cores_real_ns", "speedup"},
      zoo_gemm_rows);
  exporter.finish();
  return 0;
}
