// Grouped convolution (AlexNet-style filter groups).
//
// Ground truth: a grouped convolution equals a full convolution with a
// block-diagonal weight tensor (group g's filters are zero outside its
// channel slice). DirectConv and GemmConv must agree with that
// construction and with each other on every pass.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "conv/conv_engine.hpp"
#include "conv/direct_conv.hpp"
#include "conv/tiled_fft_conv.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"

namespace gpucnn::conv {
namespace {

// Embeds grouped weights into the equivalent dense block-diagonal tensor.
Tensor block_diagonal(const ConvConfig& grouped, const Tensor& weights) {
  ConvConfig dense = grouped;
  dense.groups = 1;
  Tensor full(dense.filter_shape());
  for (std::size_t f = 0; f < grouped.filters; ++f) {
    const std::size_t g = f / grouped.group_filters();
    for (std::size_t c = 0; c < grouped.group_channels(); ++c) {
      const std::size_t dense_c = g * grouped.group_channels() + c;
      for (std::size_t ky = 0; ky < grouped.kernel; ++ky) {
        for (std::size_t kx = 0; kx < grouped.kernel; ++kx) {
          full(f, dense_c, ky, kx) = weights(f, c, ky, kx);
        }
      }
    }
  }
  return full;
}

TEST(ConvConfigGroups, ShapeAccounting) {
  const ConvConfig cfg{.batch = 2, .input = 8, .channels = 6, .filters = 4,
                       .kernel = 3, .stride = 1, .groups = 2};
  EXPECT_EQ(cfg.group_channels(), 3U);
  EXPECT_EQ(cfg.group_filters(), 2U);
  EXPECT_EQ(cfg.filter_shape(), (TensorShape{4, 3, 3, 3}));
  // FLOPs drop by the group factor.
  ConvConfig dense = cfg;
  dense.groups = 1;
  EXPECT_DOUBLE_EQ(cfg.forward_flops() * 2.0, dense.forward_flops());
}

TEST(ConvConfigGroups, RejectsUnevenDivision) {
  ConvConfig cfg{.batch = 1, .input = 8, .channels = 5, .filters = 4,
                 .kernel = 3, .stride = 1, .groups = 2};
  EXPECT_THROW((void)cfg.output(), Error);
  cfg.channels = 6;
  cfg.filters = 3;
  EXPECT_THROW((void)cfg.output(), Error);
}

class GroupedConv : public ::testing::TestWithParam<ConvConfig> {};

TEST_P(GroupedConv, MatchesBlockDiagonalDenseConvolution) {
  const ConvConfig grouped = GetParam();
  ConvConfig dense = grouped;
  dense.groups = 1;

  Rng rng(31);
  Tensor x(grouped.input_shape());
  x.fill_uniform(rng);
  Tensor w(grouped.filter_shape());
  w.fill_uniform(rng);
  const Tensor w_dense = block_diagonal(grouped, w);

  DirectConv direct;
  Tensor want(dense.output_shape());
  direct.forward(dense, x, w_dense, want);

  for (const Strategy s : {Strategy::kDirect, Strategy::kUnrolling}) {
    const auto* engine = &strategy_engine(s);
    ASSERT_TRUE(engine->supports(grouped));
    Tensor got(grouped.output_shape());
    engine->forward(grouped, x, w, got);
    EXPECT_LT(max_abs_diff(want, got), 1e-4) << to_string(s);
  }
}

TEST_P(GroupedConv, BackwardPassesAgreeAcrossEngines) {
  const ConvConfig cfg = GetParam();
  Rng rng(32);
  Tensor x(cfg.input_shape());
  x.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  Tensor gout(cfg.output_shape());
  gout.fill_uniform(rng);

  DirectConv direct;
  const auto* gemm = &strategy_engine(Strategy::kUnrolling);

  Tensor want_gx(cfg.input_shape());
  Tensor got_gx(cfg.input_shape());
  direct.backward_data(cfg, gout, w, want_gx);
  gemm->backward_data(cfg, gout, w, got_gx);
  EXPECT_LT(max_abs_diff(want_gx, got_gx), 1e-4);

  Tensor want_gw(cfg.filter_shape());
  Tensor got_gw(cfg.filter_shape());
  direct.backward_filter(cfg, x, gout, want_gw);
  gemm->backward_filter(cfg, x, gout, got_gw);
  EXPECT_LT(max_abs_diff(want_gw, got_gw), 1e-3);
}

TEST_P(GroupedConv, AdjointIdentityHolds) {
  const ConvConfig cfg = GetParam();
  Rng rng(33);
  Tensor x(cfg.input_shape());
  x.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  Tensor gout(cfg.output_shape());
  gout.fill_uniform(rng);

  DirectConv engine;
  Tensor y(cfg.output_shape());
  engine.forward(cfg, x, w, y);
  double forward_inner = 0.0;
  for (std::size_t i = 0; i < y.count(); ++i) {
    forward_inner += static_cast<double>(gout.data()[i]) * y.data()[i];
  }
  Tensor gx(cfg.input_shape());
  engine.backward_data(cfg, gout, w, gx);
  double data_inner = 0.0;
  for (std::size_t i = 0; i < x.count(); ++i) {
    data_inner += static_cast<double>(gx.data()[i]) * x.data()[i];
  }
  EXPECT_NEAR(data_inner, forward_inner,
              1e-3 * (1.0 + std::abs(forward_inner)));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GroupedConv,
    ::testing::Values(
        ConvConfig{.batch = 2, .input = 8, .channels = 4, .filters = 4,
                   .kernel = 3, .stride = 1, .groups = 2},
        ConvConfig{.batch = 1, .input = 10, .channels = 6, .filters = 9,
                   .kernel = 3, .stride = 2, .pad = 1, .groups = 3},
        ConvConfig{.batch = 3, .input = 13, .channels = 8, .filters = 8,
                   .kernel = 5, .stride = 1, .pad = 2, .groups = 4},
        // Depthwise: groups == channels.
        ConvConfig{.batch = 2, .input = 9, .channels = 6, .filters = 6,
                   .kernel = 3, .stride = 1, .groups = 6},
        // AlexNet conv2 geometry, shrunk.
        ConvConfig{.batch = 2, .input = 13, .channels = 16, .filters = 32,
                   .kernel = 5, .stride = 1, .pad = 2, .groups = 2}));

TEST(GroupedConvLimits, FftWinogradImplicitRejectGroups) {
  const ConvConfig cfg{.batch = 1, .input = 8, .channels = 4, .filters = 4,
                       .kernel = 3, .stride = 1, .groups = 2};
  EXPECT_FALSE(strategy_engine(Strategy::kFft).supports(cfg));
  EXPECT_FALSE(strategy_engine(Strategy::kWinograd).supports(cfg));
  EXPECT_FALSE(TiledFftConv().supports(cfg));
  EXPECT_TRUE(strategy_engine(Strategy::kDirect).supports(cfg));
  EXPECT_TRUE(strategy_engine(Strategy::kUnrolling).supports(cfg));
}

// The contract the autotuner and advisor rely on: on a grouped config,
// every exact registry engine either declines in supports() or computes
// all three passes correctly. No engine may accept and then throw —
// that is exactly the select-then-throw bug this suite pins.
TEST(GroupedConvLimits, EveryEngineMatchesDirectOrDeclines) {
  const ConvConfig configs[] = {
      {.batch = 2, .input = 8, .channels = 4, .filters = 8, .kernel = 3,
       .stride = 1, .pad = 1, .groups = 2},
      // Depthwise, multiplier 1 and 2.
      {.batch = 1, .input = 9, .channels = 6, .filters = 6, .kernel = 3,
       .stride = 1, .pad = 1, .groups = 6},
      {.batch = 2, .input = 7, .channels = 4, .filters = 8, .kernel = 3,
       .stride = 2, .pad = 1, .groups = 4},
  };
  for (const ConvConfig& cfg : configs) {
    Rng rng(37);
    Tensor x(cfg.input_shape());
    x.fill_uniform(rng);
    Tensor w(cfg.filter_shape());
    w.fill_uniform(rng);
    Tensor gout(cfg.output_shape());
    gout.fill_uniform(rng);

    DirectConv direct;
    Tensor want_y(cfg.output_shape());
    Tensor want_gx(cfg.input_shape());
    Tensor want_gw(cfg.filter_shape());
    direct.forward(cfg, x, w, want_y);
    direct.backward_data(cfg, gout, w, want_gx);
    direct.backward_filter(cfg, x, gout, want_gw);

    for (const ConvEngine* engine : registry()) {
      // The int8 engine is inference-only and lossy: not in this pool.
      if (engine->quantized()) continue;
      if (!engine->supports(cfg)) continue;  // declining is the other
                                             // half of the contract
      SCOPED_TRACE(std::string(engine->name()) + " on " + cfg.to_string());
      Tensor y(cfg.output_shape());
      Tensor gx(cfg.input_shape());
      Tensor gw(cfg.filter_shape());
      ASSERT_NO_THROW(engine->forward(cfg, x, w, y));
      ASSERT_NO_THROW(engine->backward_data(cfg, gout, w, gx));
      ASSERT_NO_THROW(engine->backward_filter(cfg, x, gout, gw));
      EXPECT_LT(max_abs_diff(want_y, y), 1e-4);
      EXPECT_LT(max_abs_diff(want_gx, gx), 1e-4);
      EXPECT_LT(max_abs_diff(want_gw, gw), 1e-3);
    }
  }
}

}  // namespace
}  // namespace gpucnn::conv
