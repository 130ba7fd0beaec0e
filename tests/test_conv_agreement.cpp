// Cross-strategy agreement: the paper's three convolution strategies
// compute the same mathematical operator, so our three engines must agree
// on every pass across a sweep of geometries. DirectConv is the oracle
// (validated against hand computations and finite differences in
// test_direct_conv.cpp).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "conv/conv_engine.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"

namespace gpucnn::conv {
namespace {

struct AgreementCase {
  ConvConfig cfg;
  const char* label;
};

std::ostream& operator<<(std::ostream& os, const AgreementCase& c) {
  return os << c.label;
}

class ConvAgreement : public ::testing::TestWithParam<AgreementCase> {
 protected:
  static double tolerance(const ConvConfig& cfg) {
    // FFT accumulates rounding over O(S^2 log S) operations; scale the
    // tolerance with problem size.
    const double scale =
        static_cast<double>(cfg.channels * cfg.kernel * cfg.kernel);
    return 1e-4 * (1.0 + scale * 0.02);
  }
};

TEST_P(ConvAgreement, ForwardAgreesAcrossStrategies) {
  const ConvConfig cfg = GetParam().cfg;
  Rng rng(101);
  Tensor input(cfg.input_shape());
  input.fill_uniform(rng);
  Tensor filters(cfg.filter_shape());
  filters.fill_uniform(rng);

  const auto* direct = &strategy_engine(Strategy::kDirect);
  Tensor want(cfg.output_shape());
  direct->forward(cfg, input, filters, want);

  for (const Strategy s : {Strategy::kUnrolling, Strategy::kFft, Strategy::kWinograd}) {
    const auto* engine = &strategy_engine(s);
    if (!engine->supports(cfg)) continue;
    Tensor got(cfg.output_shape());
    engine->forward(cfg, input, filters, got);
    EXPECT_LT(max_abs_diff(want, got), tolerance(cfg))
        << "strategy " << to_string(s);
  }
}

TEST_P(ConvAgreement, BackwardDataAgreesAcrossStrategies) {
  const ConvConfig cfg = GetParam().cfg;
  Rng rng(202);
  Tensor grad_output(cfg.output_shape());
  grad_output.fill_uniform(rng);
  Tensor filters(cfg.filter_shape());
  filters.fill_uniform(rng);

  const auto* direct = &strategy_engine(Strategy::kDirect);
  Tensor want(cfg.input_shape());
  direct->backward_data(cfg, grad_output, filters, want);

  for (const Strategy s : {Strategy::kUnrolling, Strategy::kFft, Strategy::kWinograd}) {
    const auto* engine = &strategy_engine(s);
    if (!engine->supports(cfg)) continue;
    Tensor got(cfg.input_shape());
    engine->backward_data(cfg, grad_output, filters, got);
    EXPECT_LT(max_abs_diff(want, got), tolerance(cfg))
        << "strategy " << to_string(s);
  }
}

TEST_P(ConvAgreement, BackwardFilterAgreesAcrossStrategies) {
  const ConvConfig cfg = GetParam().cfg;
  Rng rng(303);
  Tensor input(cfg.input_shape());
  input.fill_uniform(rng);
  Tensor grad_output(cfg.output_shape());
  grad_output.fill_uniform(rng);

  const auto* direct = &strategy_engine(Strategy::kDirect);
  Tensor want(cfg.filter_shape());
  direct->backward_filter(cfg, input, grad_output, want);

  // The filter gradient reduces over batch * o^2 terms; loosen
  // proportionally.
  const double tol =
      tolerance(cfg) *
      (1.0 + 0.05 * static_cast<double>(cfg.batch) *
                 static_cast<double>(cfg.output()));

  for (const Strategy s : {Strategy::kUnrolling, Strategy::kFft, Strategy::kWinograd}) {
    const auto* engine = &strategy_engine(s);
    if (!engine->supports(cfg)) continue;
    Tensor got(cfg.filter_shape());
    engine->backward_filter(cfg, input, grad_output, got);
    EXPECT_LT(max_abs_diff(want, got), tol) << "strategy " << to_string(s);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvAgreement,
    ::testing::Values(
        AgreementCase{{.batch = 1, .input = 4, .channels = 1, .filters = 1,
                       .kernel = 1, .stride = 1},
                      "trivial_1x1"},
        AgreementCase{{.batch = 2, .input = 8, .channels = 3, .filters = 4,
                       .kernel = 3, .stride = 1},
                      "small_3x3"},
        AgreementCase{{.batch = 2, .input = 9, .channels = 2, .filters = 3,
                       .kernel = 4, .stride = 1},
                      "even_kernel"},
        AgreementCase{{.batch = 1, .input = 16, .channels = 2, .filters = 2,
                       .kernel = 5, .stride = 1, .pad = 2},
                      "same_padding"},
        AgreementCase{{.batch = 3, .input = 12, .channels = 4, .filters = 5,
                       .kernel = 3, .stride = 2},
                      "strided_no_fft"},
        AgreementCase{{.batch = 2, .input = 11, .channels = 3, .filters = 2,
                       .kernel = 3, .stride = 3, .pad = 1},
                      "stride3_pad"},
        AgreementCase{{.batch = 1, .input = 13, .channels = 2, .filters = 2,
                       .kernel = 13, .stride = 1},
                      "kernel_equals_input"},
        AgreementCase{{.batch = 2, .input = 10, .channels = 1, .filters = 1,
                       .kernel = 7, .stride = 1, .pad = 3},
                      "large_kernel_padded"},
        AgreementCase{{.batch = 4, .input = 6, .channels = 8, .filters = 8,
                       .kernel = 3, .stride = 1},
                      "deep_channels"},
        AgreementCase{{.batch = 1, .input = 32, .channels = 1, .filters = 1,
                       .kernel = 11, .stride = 1},
                      "paper_kernel_11"}));

TEST(FftConvLimits, RejectsStrideGreaterThanOne) {
  const ConvConfig cfg{.batch = 1, .input = 8, .channels = 1, .filters = 1,
                       .kernel = 3, .stride = 2};
  const auto* engine = &strategy_engine(Strategy::kFft);
  EXPECT_FALSE(engine->supports(cfg));
  Tensor input(cfg.input_shape());
  Tensor filters(cfg.filter_shape());
  Tensor output(cfg.output_shape());
  EXPECT_THROW(engine->forward(cfg, input, filters, output), Error);
}

TEST(FftConvLimits, RejectsOneByOneKernels) {
  // A 1x1 kernel's spectrum is one constant per filter: the transforms
  // would be pure overhead on what is a plain GEMM.
  const ConvConfig cfg{.batch = 1, .input = 14, .channels = 8, .filters = 8,
                       .kernel = 1, .stride = 1};
  EXPECT_FALSE(find_engine("fft")->supports(cfg));
  EXPECT_FALSE(find_engine("fft-tiled")->supports(cfg));
  ConvConfig three = cfg;
  three.kernel = 3;
  EXPECT_TRUE(find_engine("fft")->supports(three));
}

// At a batch of at least one image per pool worker, GemmConv runs its
// forward and backward-data images as pool tasks. Inside a pool task the
// same call runs every image in order on one thread; both must agree bit
// for bit, on the plain, fused and own-pack forwards. The images are
// large enough that tasks overlap, so shared scratch would show.
class GemmConvImageSplit : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(GemmConvImageSplit, PoolTasksMatchOneThreadBitForBit) {
  ConvConfig cfg = GetParam().cfg;
  cfg.batch = 2 * global_pool().size();
  const ConvEngine& engine = *find_engine("unrolling");
  Rng rng(43);
  Tensor input(cfg.input_shape());
  input.fill_uniform(rng, -1.0F, 1.0F);
  Tensor filters(cfg.filter_shape());
  filters.fill_uniform(rng, -0.5F, 0.5F);
  Tensor bias(1, cfg.filters, 1, 1);
  bias.fill_uniform(rng, -0.2F, 0.2F);
  Tensor grad_output(cfg.output_shape());
  grad_output.fill_uniform(rng, -1.0F, 1.0F);
  const auto pack = engine.prepack(cfg, filters);

  const auto run = [&](std::vector<Tensor>& out) {
    out.assign(3, Tensor(cfg.output_shape()));
    engine.forward(cfg, input, filters, out[0]);
    engine.forward(cfg, input, filters, out[1],
                   {.bias = bias.data(), .relu = true});
    engine.forward(cfg, input, filters, out[2],
                   {.bias = bias.data(), .relu = true, .packed = pack.get()});
    out.emplace_back(cfg.input_shape());
    engine.backward_data(cfg, grad_output, filters, out[3]);
  };
  std::vector<Tensor> spread;
  std::vector<Tensor> one_thread;
  run(spread);
  parallel_for_chunks(0, 1,
                      [&](std::size_t, std::size_t) { run(one_thread); });
  const char* const names[] = {"forward", "fused forward",
                               "own-pack forward", "backward-data"};
  for (std::size_t i = 0; i < spread.size(); ++i) {
    const auto a = spread[i].data();
    const auto b = one_thread[i].data();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << names[i] << " differs in its bits";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GemmConvImageSplit,
    ::testing::Values(
        AgreementCase{{.input = 28, .channels = 32, .filters = 48,
                       .kernel = 1, .stride = 1},
                      "pointwise"},
        AgreementCase{{.input = 28, .channels = 6, .filters = 16, .kernel = 5,
                       .stride = 1, .pad = 2},
                      "five_by_five"},
        AgreementCase{{.input = 20, .channels = 16, .filters = 24,
                       .kernel = 3, .stride = 1, .pad = 1, .groups = 4},
                      "grouped"}),
    [](const auto& param_info) {
      return std::string(param_info.param.label);
    });

TEST(EngineFactory, ProducesAllStrategies) {
  EXPECT_EQ(strategy_engine(Strategy::kDirect).strategy(), Strategy::kDirect);
  EXPECT_EQ(strategy_engine(Strategy::kUnrolling).strategy(),
            Strategy::kUnrolling);
  EXPECT_EQ(strategy_engine(Strategy::kFft).strategy(), Strategy::kFft);
}

TEST(EngineFactory, NamesMatchStrategyStrings) {
  for (const Strategy s :
       {Strategy::kDirect, Strategy::kUnrolling, Strategy::kFft,
        Strategy::kWinograd}) {
    EXPECT_EQ(strategy_engine(s).name(), to_string(s));
  }
}

TEST(EngineRegistry, ListsEveryEngineOnceInTuneOrder) {
  std::vector<std::string_view> names;
  for (const ConvEngine* e : registry()) names.push_back(e->name());
  const std::vector<std::string_view> expected = {
      "direct",   "unrolling", "fft",         "fft-tiled",
      "winograd", "depthwise", "winograd-f4", "unrolling-int8"};
  EXPECT_EQ(names, expected);
  for (const ConvEngine* e : registry()) {
    EXPECT_EQ(find_engine(e->name()), e) << e->name();
    EXPECT_EQ(e->quantized(), e->name().ends_with("-int8")) << e->name();
  }
  EXPECT_EQ(find_engine("fft-complex"), nullptr);
  EXPECT_EQ(find_engine(""), nullptr);
}

TEST(EngineRegistry, StrategyEngineIsTheFirstEngineOfItsStrategy) {
  for (const Strategy s : {Strategy::kDirect, Strategy::kUnrolling,
                           Strategy::kFft, Strategy::kWinograd}) {
    const ConvEngine& engine = strategy_engine(s);
    EXPECT_EQ(engine.strategy(), s);
    for (const ConvEngine* e : registry()) {
      if (e == &engine) break;
      EXPECT_NE(e->strategy(), s) << e->name() << " precedes " << engine.name();
    }
  }
}

}  // namespace
}  // namespace gpucnn::conv
