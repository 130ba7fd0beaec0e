// Int8 conv forwards against the fp32 oracle, with quantization-aware
// tolerances, plus the QuantizedConvLayer / Network::quantize life
// cycle.
#include "conv/quantized_conv.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "nn/activation_layer.hpp"
#include "nn/network.hpp"
#include "nn/quantized_conv_layer.hpp"

namespace gpucnn::conv {
namespace {

// Worst-case dequantized error of one output value: each of the K
// multiply-accumulates can be off by (|w|max * da/2 + |a|max * dw/2 +
// da*dw/4), where da/dw are the activation/weight quantization steps.
double quant_tolerance(const ConvConfig& cfg, float act_absmax,
                       float w_absmax) {
  const double k = static_cast<double>(cfg.group_channels()) * cfg.kernel *
                   cfg.kernel;
  const double da = 2.0 * act_absmax / 255.0;  // range widened around 0
  const double dw = static_cast<double>(w_absmax) / 63.0;
  const double per_term = static_cast<double>(act_absmax) * dw / 2.0 +
                          static_cast<double>(w_absmax) * da / 2.0 +
                          da * dw / 4.0;
  return k * per_term;  // no slack: the bound itself is already loose
}

void expect_quantized_close_to_fp32(const ConvConfig& cfg, bool relu) {
  Rng rng(42);
  Tensor input(cfg.input_shape());
  input.fill_uniform(rng, -1.0F, 1.0F);
  Tensor filters(cfg.filter_shape());
  filters.fill_uniform(rng, -0.5F, 0.5F);
  std::vector<float> bias(cfg.filters);
  for (std::size_t i = 0; i < bias.size(); ++i) {
    bias[i] = 0.1F * static_cast<float>(i % 5) - 0.2F;
  }

  const auto* fp32 = &strategy_engine(Strategy::kUnrolling);
  Tensor want(cfg.output_shape());
  ASSERT_NO_THROW(
      fp32->forward(cfg, input, filters, want, {.bias = bias, .relu = relu}));

  const std::size_t ckk = cfg.group_channels() * cfg.kernel * cfg.kernel;
  const quant::QuantizedFilters qw =
      quant::quantize_filters(filters.data(), cfg.filters, ckk);
  const quant::ActQuant aq = quant::choose_act_quant(-1.0F, 1.0F);
  Tensor got(cfg.output_shape());
  quantized_gemm_forward(cfg, input, qw, nullptr, aq, bias, relu, got);

  const double tol = quant_tolerance(cfg, 1.0F, 0.5F);
  const auto w = want.data();
  const auto g = got.data();
  double max_diff = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(static_cast<double>(w[i]) -
                                            static_cast<double>(g[i])));
  }
  EXPECT_LT(max_diff, tol);
  EXPECT_GT(max_diff, 0.0) << "suspiciously exact for a quantized path";
}

TEST(QuantizedConvTest, GemmPathTracksFp32WithinQuantTolerance) {
  const ConvConfig cfg{.batch = 2, .input = 12, .channels = 3, .filters = 8,
                       .kernel = 3, .stride = 1, .pad = 1, .groups = 1};
  expect_quantized_close_to_fp32(cfg, /*relu=*/false);
  expect_quantized_close_to_fp32(cfg, /*relu=*/true);
}

TEST(QuantizedConvTest, GemmPathSupportsGroupsAndStride) {
  const ConvConfig grouped{.batch = 1, .input = 10, .channels = 4,
                           .filters = 8, .kernel = 3, .stride = 1,
                           .pad = 1, .groups = 2};
  expect_quantized_close_to_fp32(grouped, /*relu=*/false);
  const ConvConfig strided{.batch = 1, .input = 11, .channels = 3,
                           .filters = 6, .kernel = 5, .stride = 2,
                           .pad = 2, .groups = 1};
  expect_quantized_close_to_fp32(strided, /*relu=*/true);
}

TEST(QuantizedConvTest, EngineAdaptersAreForwardOnly) {
  const ConvConfig cfg{.batch = 1, .input = 8, .channels = 2, .filters = 4,
                       .kernel = 3, .stride = 1, .pad = 1, .groups = 1};
  const QuantizedGemmConv engine;
  Rng rng(7);
  Tensor input(cfg.input_shape());
  input.fill_uniform(rng);
  Tensor filters(cfg.filter_shape());
  filters.fill_uniform(rng);
  Tensor out(cfg.output_shape());
  EXPECT_NO_THROW(engine.forward(cfg, input, filters, out));
  Tensor grad(cfg.output_shape());
  Tensor gin(cfg.input_shape());
  EXPECT_THROW(engine.backward_data(cfg, grad, filters, gin), Error);
  Tensor gw(cfg.filter_shape());
  EXPECT_THROW(engine.backward_filter(cfg, input, grad, gw), Error);
}

TEST(QuantizedNetworkTest, QuantizeCalibratesFreezesAndStaysAccurate) {
  const ConvConfig geom{.batch = 1, .input = 8, .channels = 2, .filters = 6,
                        .kernel = 3, .stride = 1, .pad = 1, .groups = 1};
  nn::Network fp32_net;
  fp32_net.emplace<nn::ConvLayer>("c1", geom);
  fp32_net.emplace<nn::ActivationLayer>("relu1", nn::Activation::kRelu);
  Rng rng(21);
  fp32_net.initialize(rng);
  ASSERT_EQ(fp32_net.fuse_conv_relu(), 1U);

  nn::Network int8_net;
  int8_net.emplace<nn::ConvLayer>("c1", geom);
  int8_net.emplace<nn::ActivationLayer>("relu1", nn::Activation::kRelu);
  int8_net.initialize(rng);
  ASSERT_EQ(int8_net.fuse_conv_relu(), 1U);
  int8_net.share_parameters(fp32_net);

  std::vector<Tensor> calibration(2);
  for (auto& t : calibration) {
    t.resize(geom.input_shape());
    t.fill_uniform(rng, -1.0F, 1.0F);
  }
  const auto report = int8_net.quantize(calibration);
  EXPECT_EQ(report.layers_quantized, 1U);
  EXPECT_EQ(report.layers_calibrated, 1U);
  EXPECT_EQ(report.calibration_batches, 2U);
  const auto* qlayer =
      dynamic_cast<const nn::QuantizedConvLayer*>(&int8_net.layer(0));
  ASSERT_NE(qlayer, nullptr);
  EXPECT_TRUE(qlayer->frozen());
  EXPECT_TRUE(qlayer->fused_relu());

  Tensor probe(geom.input_shape());
  probe.fill_uniform(rng, -1.0F, 1.0F);
  const Tensor& want = fp32_net.forward(probe);
  const Tensor& got = int8_net.forward(probe);
  const double tol = quant_tolerance(geom, 1.0F, 1.5F);
  const auto w = want.data();
  const auto g = got.data();
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w[i], g[i], tol);
  }

  int8_net.set_training(true);
  (void)int8_net.forward(probe);
  Tensor grad(want.shape());
  grad.fill(1.0F);
  EXPECT_THROW(int8_net.backward(grad), Error);
}

TEST(QuantizedNetworkTest, QuantizeTwiceIsANoOp) {
  // QuantizedConvLayer derives from Layer, not ConvLayer, so the
  // dynamic_cast filter in Network::quantize() must skip already-
  // quantized slots: a second call rewrites nothing and the outputs
  // stay bit-identical.
  const ConvConfig geom{.batch = 1, .input = 8, .channels = 2, .filters = 4,
                        .kernel = 3, .stride = 1, .pad = 1, .groups = 1};
  nn::Network net;
  net.emplace<nn::ConvLayer>("c1", geom);
  net.emplace<nn::ActivationLayer>("relu1", nn::Activation::kRelu);
  Rng rng(51);
  net.initialize(rng);
  ASSERT_EQ(net.fuse_conv_relu(), 1U);

  std::vector<Tensor> calibration(1);
  calibration[0].resize(geom.input_shape());
  calibration[0].fill_uniform(rng, -1.0F, 1.0F);
  const auto first = net.quantize(calibration);
  EXPECT_EQ(first.layers_quantized, 1U);

  Tensor probe(geom.input_shape());
  probe.fill_uniform(rng, -1.0F, 1.0F);
  Tensor before = net.forward(probe);  // copy: forward() returns a ref

  const auto second = net.quantize(calibration);
  EXPECT_EQ(second.layers_quantized, 0U);
  EXPECT_EQ(second.calibration_batches, 0U);
  const Tensor& after = net.forward(probe);
  EXPECT_EQ(max_abs_diff(before, after), 0.0);
}

TEST(QuantizedNetworkTest, DepthwiseConvLayersQuantize) {
  // A depthwise (groups == channels) layer goes through the grouped
  // im2col + igemm path; quantize() must rewrite it like any conv and
  // track the fp32 network within quantization tolerance.
  const ConvConfig geom{.batch = 2, .input = 8, .channels = 4, .filters = 8,
                        .kernel = 3, .stride = 1, .pad = 1, .groups = 4};
  nn::Network fp32_net;
  fp32_net.emplace<nn::ConvLayer>("dw", geom);
  Rng rng(52);
  fp32_net.initialize(rng);

  nn::Network int8_net;
  int8_net.emplace<nn::ConvLayer>("dw", geom);
  int8_net.initialize(rng);
  int8_net.share_parameters(fp32_net);

  std::vector<Tensor> calibration(2);
  for (auto& t : calibration) {
    t.resize(geom.input_shape());
    t.fill_uniform(rng, -1.0F, 1.0F);
  }
  const auto report = int8_net.quantize(calibration);
  EXPECT_EQ(report.layers_quantized, 1U);
  EXPECT_EQ(report.layers_calibrated, 1U);

  Tensor probe(geom.input_shape());
  probe.fill_uniform(rng, -1.0F, 1.0F);
  const Tensor& want = fp32_net.forward(probe);
  const Tensor& got = int8_net.forward(probe);
  const double tol = quant_tolerance(geom, 1.0F, 1.5F);
  const auto w = want.data();
  const auto g = got.data();
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w[i], g[i], tol);
  }
}

TEST(QuantizedNetworkTest, QuantizeWithoutCalibrationGoesDynamic) {
  const ConvConfig geom{.batch = 1, .input = 6, .channels = 1, .filters = 2,
                        .kernel = 3, .stride = 1, .pad = 1, .groups = 1};
  nn::Network net;
  net.emplace<nn::ConvLayer>("c1", geom);
  Rng rng(33);
  net.initialize(rng);
  const auto report = net.quantize();
  EXPECT_EQ(report.layers_quantized, 1U);
  EXPECT_EQ(report.layers_calibrated, 0U);
  const auto* qlayer =
      dynamic_cast<const nn::QuantizedConvLayer*>(&net.layer(0));
  ASSERT_NE(qlayer, nullptr);
  EXPECT_TRUE(qlayer->frozen());
  EXPECT_FALSE(qlayer->calibrated());
  Tensor probe(geom.input_shape());
  probe.fill_uniform(rng, -2.0F, 2.0F);
  EXPECT_NO_THROW((void)net.forward(probe));
}

}  // namespace
}  // namespace gpucnn::conv
