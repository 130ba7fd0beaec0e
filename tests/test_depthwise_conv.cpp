// DepthwiseConv against the DirectConv oracle on all three passes, the
// fused epilogue's bit-identity contract, GemmConv's pointwise (1x1)
// im2col-skip path against the staged im2col lowering, and a seeded
// depthwise fuzz batch.
#include "conv/depthwise_conv.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "analysis/conv_fuzz.hpp"
#include "blas/gemm.hpp"
#include "conv/direct_conv.hpp"
#include "conv/gemm_conv.hpp"
#include "conv/im2col.hpp"
#include "core/rng.hpp"

namespace gpucnn::conv {
namespace {

class DepthwiseConvTest : public ::testing::TestWithParam<ConvConfig> {};

TEST_P(DepthwiseConvTest, ForwardMatchesDirect) {
  const ConvConfig cfg = GetParam();
  DepthwiseConv engine;
  ASSERT_TRUE(engine.supports(cfg));

  Rng rng(61);
  Tensor x(cfg.input_shape());
  x.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);

  DirectConv direct;
  Tensor want(cfg.output_shape());
  direct.forward(cfg, x, w, want);
  Tensor got(cfg.output_shape());
  engine.forward(cfg, x, w, got);
  EXPECT_LT(max_abs_diff(want, got), 1e-5);
}

TEST_P(DepthwiseConvTest, BackwardDataMatchesDirect) {
  const ConvConfig cfg = GetParam();
  Rng rng(62);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  Tensor gout(cfg.output_shape());
  gout.fill_uniform(rng);

  DirectConv direct;
  Tensor want(cfg.input_shape());
  direct.backward_data(cfg, gout, w, want);
  DepthwiseConv engine;
  Tensor got(cfg.input_shape());
  engine.backward_data(cfg, gout, w, got);
  EXPECT_LT(max_abs_diff(want, got), 1e-5);
}

TEST_P(DepthwiseConvTest, BackwardFilterMatchesDirect) {
  const ConvConfig cfg = GetParam();
  Rng rng(63);
  Tensor x(cfg.input_shape());
  x.fill_uniform(rng);
  Tensor gout(cfg.output_shape());
  gout.fill_uniform(rng);

  DirectConv direct;
  Tensor want(cfg.filter_shape());
  direct.backward_filter(cfg, x, gout, want);
  DepthwiseConv engine;
  Tensor got(cfg.filter_shape());
  engine.backward_filter(cfg, x, gout, got);
  EXPECT_LT(max_abs_diff(want, got), 1e-4);
}

TEST_P(DepthwiseConvTest, FusedEpilogueIsBitIdenticalToUnfused) {
  // A forward with a bias and ReLU must equal a plain forward() +
  // (v += bias; v = max(v, 0)) exactly: the epilogue is one float add and
  // one max per element, both of which round identically in the scalar
  // and SIMD kernels.
  const ConvConfig cfg = GetParam();
  Rng rng(64);
  Tensor x(cfg.input_shape());
  x.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  std::vector<float> bias(cfg.filters);
  for (auto& b : bias) b = static_cast<float>(rng.uniform(-0.5, 0.5));

  DepthwiseConv engine;
  Tensor fused(cfg.output_shape());
  ASSERT_NO_THROW(engine.forward(cfg, x, w, fused,
                                 {.bias = bias, .relu = true}));

  Tensor want(cfg.output_shape());
  engine.forward(cfg, x, w, want);
  const std::size_t o2 = cfg.output() * cfg.output();
  for (std::size_t n = 0; n < cfg.batch; ++n) {
    for (std::size_t f = 0; f < cfg.filters; ++f) {
      float* row = want.plane(n, f);
      for (std::size_t i = 0; i < o2; ++i) {
        row[i] += bias[f];
        row[i] = std::max(row[i], 0.0F);
      }
    }
  }
  EXPECT_EQ(max_abs_diff(want, fused), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DepthwiseConvTest,
    ::testing::Values(
        // Multiplier 1, the MobileNet bread-and-butter 3x3 pad-1.
        ConvConfig{.batch = 2, .input = 12, .channels = 8, .filters = 8,
                   .kernel = 3, .stride = 1, .pad = 1, .groups = 8},
        // Channel multiplier 2: filter f reads channel f / 2.
        ConvConfig{.batch = 2, .input = 9, .channels = 6, .filters = 12,
                   .kernel = 3, .stride = 1, .pad = 1, .groups = 6},
        // Multiplier 3 with stride 2 (strided per-pixel path).
        ConvConfig{.batch = 1, .input = 11, .channels = 4, .filters = 12,
                   .kernel = 5, .stride = 2, .pad = 2, .groups = 4},
        // Halo-heavy: pad == kernel, every border tap out of range.
        ConvConfig{.batch = 1, .input = 7, .channels = 3, .filters = 3,
                   .kernel = 3, .stride = 1, .pad = 3, .groups = 3},
        // 1x1 depthwise (a per-channel scale) and single channel.
        ConvConfig{.batch = 2, .input = 8, .channels = 5, .filters = 5,
                   .kernel = 1, .stride = 1, .pad = 0, .groups = 5},
        ConvConfig{.batch = 1, .input = 16, .channels = 1, .filters = 2,
                   .kernel = 3, .stride = 1, .pad = 1, .groups = 1}));

TEST(DepthwiseSupports, OnlyDepthwiseDegenerateGroupings) {
  DepthwiseConv engine;
  // Grouped but not depthwise: two channels per group.
  EXPECT_FALSE(engine.supports({.batch = 1, .input = 8, .channels = 4,
                                .filters = 4, .kernel = 3, .stride = 1,
                                .groups = 2}));
  // Ungrouped multi-channel.
  EXPECT_FALSE(engine.supports({.batch = 1, .input = 8, .channels = 4,
                                .filters = 4, .kernel = 3, .stride = 1,
                                .groups = 1}));
  // Depthwise with a multiplier.
  EXPECT_TRUE(engine.supports({.batch = 1, .input = 8, .channels = 4,
                               .filters = 8, .kernel = 3, .stride = 1,
                               .groups = 4}));
  // A single-channel ungrouped conv is trivially depthwise.
  EXPECT_TRUE(engine.supports({.batch = 1, .input = 8, .channels = 1,
                               .filters = 3, .kernel = 3, .stride = 1,
                               .groups = 1}));
}

// GemmConv's staged lowering spelled out, per image and group: im2col
// then sgemm (bias + ReLU in its epilogue) forward, sgemm then col2im
// backward-data, im2col then sgemm backward-filter.
void staged_forward(const ConvConfig& cfg, const Tensor& x, const Tensor& w,
                    std::span<const float> bias, bool relu, Tensor& y) {
  const ConvConfig gv = cfg.group_view();
  const std::size_t ckk = gv.channels * cfg.kernel * cfg.kernel;
  const std::size_t cols = cfg.output() * cfg.output();
  std::vector<float> col(col_buffer_size(gv));
  for (std::size_t n = 0; n < cfg.batch; ++n) {
    for (std::size_t g = 0; g < cfg.groups; ++g) {
      im2col(gv,
             {x.plane(n, g * gv.channels),
              gv.channels * cfg.input * cfg.input},
             col);
      const blas::Epilogue ep{
          .bias = bias.empty() ? nullptr : bias.data() + g * gv.filters,
          .relu = relu};
      blas::sgemm(blas::Trans::kNo, blas::Trans::kNo, gv.filters, cols, ckk,
                  1.0F, {w.plane(g * gv.filters, 0), gv.filters * ckk}, ckk,
                  col, cols, 0.0F,
                  {y.plane(n, g * gv.filters), gv.filters * cols}, cols, ep);
    }
  }
}

void staged_backward_data(const ConvConfig& cfg, const Tensor& gout,
                          const Tensor& w, Tensor& gx) {
  const ConvConfig gv = cfg.group_view();
  const std::size_t ckk = gv.channels * cfg.kernel * cfg.kernel;
  const std::size_t cols = cfg.output() * cfg.output();
  std::vector<float> col(col_buffer_size(gv));
  gx.fill(0.0F);
  for (std::size_t n = 0; n < cfg.batch; ++n) {
    for (std::size_t g = 0; g < cfg.groups; ++g) {
      blas::sgemm(blas::Trans::kYes, blas::Trans::kNo, ckk, cols, gv.filters,
                  1.0F, {w.plane(g * gv.filters, 0), gv.filters * ckk}, ckk,
                  {gout.plane(n, g * gv.filters), gv.filters * cols}, cols,
                  0.0F, col, cols);
      col2im(gv, col,
             {gx.plane(n, g * gv.channels),
              gv.channels * cfg.input * cfg.input});
    }
  }
}

void staged_backward_filter(const ConvConfig& cfg, const Tensor& x,
                            const Tensor& gout, Tensor& gw) {
  const ConvConfig gv = cfg.group_view();
  const std::size_t ckk = gv.channels * cfg.kernel * cfg.kernel;
  const std::size_t cols = cfg.output() * cfg.output();
  std::vector<float> col(col_buffer_size(gv));
  gw.fill(0.0F);
  for (std::size_t n = 0; n < cfg.batch; ++n) {
    for (std::size_t g = 0; g < cfg.groups; ++g) {
      im2col(gv,
             {x.plane(n, g * gv.channels),
              gv.channels * cfg.input * cfg.input},
             col);
      blas::sgemm(blas::Trans::kNo, blas::Trans::kYes, gv.filters, ckk, cols,
                  1.0F, {gout.plane(n, g * gv.filters), gv.filters * cols},
                  cols, col, cols, 1.0F,
                  {gw.plane(g * gv.filters, 0), gv.filters * ckk}, ckk);
    }
  }
}

TEST(PointwiseFastPath, BitIdenticalToIm2colOnAllPasses) {
  // On 1x1 stride-1 pad-0 shapes the column matrix IS the input plane
  // block, so GemmConv skipping im2col must be exactly bit-identical to
  // the staged lowering, not merely close — both feed the same operands
  // to the same sgemm.
  const ConvConfig configs[] = {
      {.batch = 2, .input = 14, .channels = 8, .filters = 16, .kernel = 1,
       .stride = 1, .pad = 0, .groups = 1},
      {.batch = 1, .input = 7, .channels = 6, .filters = 9, .kernel = 1,
       .stride = 1, .pad = 0, .groups = 3},
  };
  for (const ConvConfig& cfg : configs) {
    Rng rng(65);
    Tensor x(cfg.input_shape());
    x.fill_uniform(rng);
    Tensor w(cfg.filter_shape());
    w.fill_uniform(rng);
    Tensor gout(cfg.output_shape());
    gout.fill_uniform(rng);
    std::vector<float> bias(cfg.filters);
    for (auto& b : bias) b = static_cast<float>(rng.uniform(-0.5, 0.5));

    GemmConv engine;
    Tensor fast_y(cfg.output_shape());
    Tensor fast_fused(cfg.output_shape());
    Tensor fast_gx(cfg.input_shape());
    Tensor fast_gw(cfg.filter_shape());
    Tensor slow_y(cfg.output_shape());
    Tensor slow_fused(cfg.output_shape());
    Tensor slow_gx(cfg.input_shape());
    Tensor slow_gw(cfg.filter_shape());
    engine.forward(cfg, x, w, fast_y);
    ASSERT_NO_THROW(engine.forward(cfg, x, w, fast_fused,
                                   {.bias = bias, .relu = true}));
    engine.backward_data(cfg, gout, w, fast_gx);
    engine.backward_filter(cfg, x, gout, fast_gw);
    staged_forward(cfg, x, w, {}, false, slow_y);
    staged_forward(cfg, x, w, bias, true, slow_fused);
    staged_backward_data(cfg, gout, w, slow_gx);
    staged_backward_filter(cfg, x, gout, slow_gw);
    EXPECT_EQ(max_abs_diff(fast_y, slow_y), 0.0);
    EXPECT_EQ(max_abs_diff(fast_fused, slow_fused), 0.0);
    EXPECT_EQ(max_abs_diff(fast_gx, slow_gx), 0.0);
    EXPECT_EQ(max_abs_diff(fast_gw, slow_gw), 0.0);
  }
}

TEST(PointwiseFastPath, StridedOrPaddedOneByOneStaysOnIm2col) {
  // 1x1 with stride or pad is NOT the identity lowering; those shapes
  // must keep the staged path and still match DirectConv.
  const ConvConfig cfg{.batch = 1, .input = 9, .channels = 4, .filters = 6,
                       .kernel = 1, .stride = 2, .pad = 0, .groups = 1};
  Rng rng(66);
  Tensor x(cfg.input_shape());
  x.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);

  DirectConv direct;
  Tensor want(cfg.output_shape());
  direct.forward(cfg, x, w, want);
  GemmConv engine;
  Tensor got(cfg.output_shape());
  engine.forward(cfg, x, w, got);
  EXPECT_LT(max_abs_diff(want, got), 1e-5);
}

TEST(DepthwiseFuzz, FortyConfigBatchFindsNoFailures) {
  analysis::FuzzOptions options;
  options.seed = 11;
  options.count = 40;
  options.depthwise = true;
  const analysis::FuzzReport report = analysis::run_fuzz(options);
  EXPECT_EQ(report.configs_run, options.count);
  EXPECT_GT(report.engine_checks, 0U);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << '[' << failure.index << "] "
                  << failure.config.to_string() << ": " << failure.what
                  << "\n  repro: "
                  << analysis::repro_command(options.seed, failure.index,
                                             /*depthwise=*/true);
  }
}

}  // namespace
}  // namespace gpucnn::conv
