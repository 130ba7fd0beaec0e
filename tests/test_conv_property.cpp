// Randomised property tests over the convolution engines.
//
// Beyond the fixed-geometry agreement suite, these draw seeded random
// configurations and check the *algebraic identities* every correct
// convolution must satisfy:
//   linearity         forward(a*x + b*y) = a*forward(x) + b*forward(y)
//   adjoint (data)    <gout, forward(x, W)> = <backward_data(gout, W), x>
//   adjoint (filter)  <gout, forward(x, W)> = <backward_filter(x, gout), W>
// The adjoint identities are exactly what makes backpropagation correct.
#include <gtest/gtest.h>

#include "conv/conv_engine.hpp"
#include "core/rng.hpp"

namespace gpucnn::conv {
namespace {

double inner(const Tensor& a, const Tensor& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.count(); ++i) {
    acc += static_cast<double>(a.data()[i]) * b.data()[i];
  }
  return acc;
}

ConvConfig random_config(Rng& rng, bool stride_one) {
  ConvConfig cfg;
  cfg.batch = 1 + rng.uniform_int(3);
  cfg.channels = 1 + rng.uniform_int(4);
  cfg.filters = 1 + rng.uniform_int(5);
  cfg.kernel = 1 + rng.uniform_int(5);
  cfg.stride = stride_one ? 1 : 1 + rng.uniform_int(3);
  cfg.pad = rng.uniform_int(cfg.kernel);
  // Input large enough for at least two output positions.
  cfg.input = cfg.kernel + cfg.stride + rng.uniform_int(10);
  return cfg;
}

class ConvProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConvProperty, AdjointIdentitiesHoldForAllStrategies) {
  Rng rng(GetParam());
  const ConvConfig cfg = random_config(rng, /*stride_one=*/false);

  Tensor x(cfg.input_shape());
  x.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  Tensor gout(cfg.output_shape());
  gout.fill_uniform(rng);

  for (const Strategy s : {Strategy::kDirect, Strategy::kUnrolling,
                           Strategy::kFft, Strategy::kWinograd}) {
    const auto* engine = &strategy_engine(s);
    if (!engine->supports(cfg)) continue;

    Tensor y(cfg.output_shape());
    engine->forward(cfg, x, w, y);
    const double forward_inner = inner(gout, y);

    Tensor gx(cfg.input_shape());
    engine->backward_data(cfg, gout, w, gx);
    EXPECT_NEAR(inner(gx, x), forward_inner,
                1e-3 * (1.0 + std::abs(forward_inner)))
        << cfg << " strategy " << to_string(s);

    Tensor gw(cfg.filter_shape());
    engine->backward_filter(cfg, x, gout, gw);
    EXPECT_NEAR(inner(gw, w), forward_inner,
                1e-3 * (1.0 + std::abs(forward_inner)))
        << cfg << " strategy " << to_string(s);
  }
}

TEST_P(ConvProperty, ForwardIsLinearInInput) {
  Rng rng(GetParam() * 31 + 7);
  const ConvConfig cfg = random_config(rng, /*stride_one=*/true);
  const auto* engine = &strategy_engine(Strategy::kUnrolling);

  Tensor x1(cfg.input_shape());
  x1.fill_uniform(rng);
  Tensor x2(cfg.input_shape());
  x2.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);

  Tensor combined(cfg.input_shape());
  for (std::size_t i = 0; i < combined.count(); ++i) {
    combined.data()[i] = 2.0F * x1.data()[i] - 0.5F * x2.data()[i];
  }

  Tensor y1(cfg.output_shape());
  Tensor y2(cfg.output_shape());
  Tensor yc(cfg.output_shape());
  engine->forward(cfg, x1, w, y1);
  engine->forward(cfg, x2, w, y2);
  engine->forward(cfg, combined, w, yc);
  double max_err = 0.0;
  for (std::size_t i = 0; i < yc.count(); ++i) {
    const double want = 2.0 * y1.data()[i] - 0.5 * y2.data()[i];
    max_err = std::max(max_err, std::abs(want - yc.data()[i]));
  }
  EXPECT_LT(max_err, 1e-3) << cfg;
}

TEST_P(ConvProperty, RandomGeometriesAgreeAcrossStrategies) {
  Rng rng(GetParam() * 131 + 17);
  const ConvConfig cfg = random_config(rng, /*stride_one=*/false);
  Tensor x(cfg.input_shape());
  x.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);

  Tensor want(cfg.output_shape());
  strategy_engine(Strategy::kDirect).forward(cfg, x, w, want);
  for (const Strategy s :
       {Strategy::kUnrolling, Strategy::kFft, Strategy::kWinograd}) {
    const auto* engine = &strategy_engine(s);
    if (!engine->supports(cfg)) continue;
    Tensor got(cfg.output_shape());
    engine->forward(cfg, x, w, got);
    EXPECT_LT(max_abs_diff(want, got), 5e-4 * (1.0 + want.max_abs()))
        << cfg << " strategy " << to_string(s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace gpucnn::conv
