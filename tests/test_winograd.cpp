// Winograd F(2x2, 3x3) — correctness against the direct-convolution
// oracle and its declared shape limits.
#include "conv/winograd_conv.hpp"

#include <gtest/gtest.h>

#include "conv/direct_conv.hpp"
#include "core/rng.hpp"

namespace gpucnn::conv {
namespace {

struct WinogradCase {
  ConvConfig cfg;
  const char* label;
};

std::ostream& operator<<(std::ostream& os, const WinogradCase& c) {
  return os << c.label;
}

class WinogradAgreement : public ::testing::TestWithParam<WinogradCase> {};

TEST_P(WinogradAgreement, ForwardMatchesDirect) {
  const ConvConfig cfg = GetParam().cfg;
  Rng rng(11);
  Tensor in(cfg.input_shape());
  in.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  Tensor want(cfg.output_shape());
  DirectConv{}.forward(cfg, in, w, want);
  Tensor got(cfg.output_shape());
  WinogradConv{}.forward(cfg, in, w, got);
  EXPECT_LT(max_abs_diff(want, got),
            1e-4 * (1.0 + static_cast<double>(cfg.channels)));
}

TEST_P(WinogradAgreement, BackwardDataMatchesDirect) {
  const ConvConfig cfg = GetParam().cfg;
  Rng rng(12);
  Tensor gout(cfg.output_shape());
  gout.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  Tensor want(cfg.input_shape());
  DirectConv{}.backward_data(cfg, gout, w, want);
  Tensor got(cfg.input_shape());
  WinogradConv{}.backward_data(cfg, gout, w, got);
  EXPECT_LT(max_abs_diff(want, got),
            1e-4 * (1.0 + static_cast<double>(cfg.filters)));
}

TEST_P(WinogradAgreement, BackwardFilterMatchesDirect) {
  const ConvConfig cfg = GetParam().cfg;
  Rng rng(13);
  Tensor in(cfg.input_shape());
  in.fill_uniform(rng);
  Tensor gout(cfg.output_shape());
  gout.fill_uniform(rng);
  Tensor want(cfg.filter_shape());
  DirectConv{}.backward_filter(cfg, in, gout, want);
  Tensor got(cfg.filter_shape());
  WinogradConv{}.backward_filter(cfg, in, gout, got);
  const double tol =
      1e-4 * (1.0 + 0.05 * static_cast<double>(cfg.batch) *
                        static_cast<double>(cfg.output()));
  EXPECT_LT(max_abs_diff(want, got), tol);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WinogradAgreement,
    ::testing::Values(
        WinogradCase{{.batch = 1, .input = 4, .channels = 1, .filters = 1,
                      .kernel = 3, .stride = 1},
                     "single_tile"},
        WinogradCase{{.batch = 2, .input = 8, .channels = 3, .filters = 4,
                      .kernel = 3, .stride = 1},
                     "even_output"},
        WinogradCase{{.batch = 2, .input = 9, .channels = 2, .filters = 3,
                      .kernel = 3, .stride = 1},
                     "odd_output_partial_tile"},
        WinogradCase{{.batch = 1, .input = 13, .channels = 4, .filters = 2,
                      .kernel = 3, .stride = 1, .pad = 1},
                     "same_padding"},
        WinogradCase{{.batch = 3, .input = 6, .channels = 2, .filters = 2,
                      .kernel = 3, .stride = 1, .pad = 2},
                     "pad_two"},
        WinogradCase{{.batch = 1, .input = 32, .channels = 8, .filters = 8,
                      .kernel = 3, .stride = 1, .pad = 1},
                     "vgg_like_block"}));

TEST(WinogradLimits, OnlyThreeByThreeStrideOne) {
  WinogradConv w;
  EXPECT_TRUE(w.supports({.batch = 1, .input = 8, .channels = 1,
                          .filters = 1, .kernel = 3, .stride = 1}));
  EXPECT_FALSE(w.supports({.batch = 1, .input = 8, .channels = 1,
                           .filters = 1, .kernel = 5, .stride = 1}));
  EXPECT_FALSE(w.supports({.batch = 1, .input = 8, .channels = 1,
                           .filters = 1, .kernel = 3, .stride = 2}));
  EXPECT_FALSE(w.supports({.batch = 1, .input = 8, .channels = 1,
                           .filters = 1, .kernel = 3, .stride = 1,
                           .pad = 3}));
}

TEST(WinogradLimits, ForwardThrowsOnUnsupported) {
  const ConvConfig cfg{.batch = 1, .input = 8, .channels = 1, .filters = 1,
                       .kernel = 5, .stride = 1};
  Tensor in(cfg.input_shape());
  Tensor w(cfg.filter_shape());
  Tensor out(cfg.output_shape());
  EXPECT_THROW(WinogradConv{}.forward(cfg, in, w, out), Error);
}

TEST(WinogradFactory, AvailableThroughMakeEngine) {
  const auto* engine = &strategy_engine(Strategy::kWinograd);
  EXPECT_EQ(engine->strategy(), Strategy::kWinograd);
  EXPECT_EQ(engine->name(), "winograd");
  EXPECT_EQ(to_string(Strategy::kWinograd), "winograd");
}

TEST(WinogradMath, ArithmeticReductionIsSixteenThirtySixths) {
  EXPECT_NEAR(WinogradConv::arithmetic_reduction(), 16.0 / 36.0, 1e-12);
}

TEST(WinogradMath, IdentityFilterTransformsCleanly) {
  // A centred delta kernel must behave as identity on interior pixels.
  const ConvConfig cfg{.batch = 1, .input = 6, .channels = 1, .filters = 1,
                       .kernel = 3, .stride = 1, .pad = 1};
  Rng rng(14);
  Tensor in(cfg.input_shape());
  in.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w(0, 0, 1, 1) = 1.0F;
  Tensor out(cfg.output_shape());
  WinogradConv{}.forward(cfg, in, w, out);
  EXPECT_LT(max_abs_diff(in, out), 1e-5);
}

}  // namespace
}  // namespace gpucnn::conv
