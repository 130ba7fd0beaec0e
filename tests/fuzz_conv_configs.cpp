// The conv-config fuzzer as a test: a fixed-seed smoke batch must pass
// with zero cross-engine mismatches and zero invariant violations, and
// the generator itself must stay deterministic and adversarial (the
// repro workflow depends on both). The full 200-config smoke run lives
// in CI as `tools/conv_fuzz --seed 1 --count 200`; see docs/TESTING.md.
#include "analysis/conv_fuzz.hpp"

#include <gtest/gtest.h>

#include <set>

#include "conv/conv_engine.hpp"

namespace gpucnn::analysis {
namespace {

TEST(ConvFuzz, SeededSmokeBatchFindsNoFailures) {
  FuzzOptions options;
  options.seed = 1;
  options.count = 40;  // CI's standalone run covers 200; keep ctest fast
  options.tune_cache = true;
  options.tune_cache_path = testing::TempDir() + "fuzz_tune_cache.json";
  const FuzzReport report = run_fuzz(options);
  EXPECT_EQ(report.configs_run, options.count);
  EXPECT_GT(report.engine_checks, 0U);
  EXPECT_GT(report.plan_checks, 0U);
  // One layer-pair comparison per config, plus the bias and bias+ReLU
  // epilogues of every exact engine that supports it.
  std::size_t fused_expected = 0;
  for (std::size_t i = options.start; i < options.start + options.count;
       ++i) {
    const ConvConfig cfg = fuzz_config(options.seed, i);
    fused_expected += 1;
    for (const conv::ConvEngine* engine : conv::registry()) {
      if (!engine->quantized() && engine->supports(cfg)) fused_expected += 2;
    }
  }
  EXPECT_EQ(report.fused_checks, fused_expected);
  EXPECT_EQ(report.tune_checks, options.count);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << '[' << failure.index << "] "
                  << failure.config.to_string() << ": " << failure.what
                  << "\n  repro: " << repro_command(options.seed,
                                                    failure.index);
  }
}

TEST(ConvFuzz, Int8BatchFindsNoFailures) {
  // 40 adversarial configs through the int8-vs-fp32 cross-check. The
  // fused and tune-cache checks already ran in the smoke batch above,
  // so this batch leaves them off.
  FuzzOptions options;
  options.seed = 1;
  options.count = 40;
  options.fused = false;
  options.int8 = true;
  const FuzzReport report = run_fuzz(options);
  EXPECT_EQ(report.configs_run, options.count);
  // Every config gets the two unrolling-int8 variants.
  EXPECT_EQ(report.int8_checks, 2 * options.count);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << '[' << failure.index << "] "
                  << failure.config.to_string() << ": " << failure.what
                  << "\n  repro: "
                  << repro_command(options.seed, failure.index)
                  << " --int8";
  }
}

TEST(ConvFuzz, PrepackBatchFindsNoFailures) {
  // 40 adversarial configs through the prepacked-vs-staged bit-identity
  // cross-check (every registry engine with its own pack and with other
  // engines' packs, plus the int8 path).
  FuzzOptions options;
  options.seed = 1;
  options.count = 40;
  options.fused = false;
  options.prepack = true;
  const FuzzReport report = run_fuzz(options);
  EXPECT_EQ(report.configs_run, options.count);
  // Every config gets the two unrolling variants in fp32 and int8, and
  // more for the other engines with a prepacked path.
  EXPECT_GE(report.prepack_checks, 4 * options.count);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << '[' << failure.index << "] "
                  << failure.config.to_string() << ": " << failure.what
                  << "\n  repro: "
                  << repro_command(options.seed, failure.index)
                  << " --prepack";
  }
}

TEST(ConvFuzz, WinogradBatchFindsNoFailures) {
  // 40 Winograd-eligible configs (k = 3, s = 1, pads 0–2, tile-edge
  // adversarial) through the full engine cross-check — both Winograd
  // tile sizes run against direct on all three passes — plus the
  // prepacked bit-identity check.
  FuzzOptions options;
  options.seed = 1;
  options.count = 40;
  options.fused = false;
  options.winograd = true;
  options.prepack = true;
  const FuzzReport report = run_fuzz(options);
  EXPECT_EQ(report.configs_run, options.count);
  // Every config is Winograd-eligible, so both tile sizes check all
  // three passes on every config: at least 6 winograd comparisons each.
  EXPECT_GE(report.engine_checks, 6 * options.count);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << '[' << failure.index << "] "
                  << failure.config.to_string() << ": " << failure.what
                  << "\n  repro: "
                  << repro_command(options.seed, failure.index,
                                   /*depthwise=*/false, /*winograd=*/true)
                  << " --prepack";
  }
}

TEST(ConvFuzz, ConfigIsAPureFunctionOfSeedAndIndex) {
  // Identical across calls, and independent of which other indices were
  // generated before — the property --start repro relies on.
  const ConvConfig a = fuzz_config(7, 123);
  (void)fuzz_config(7, 5);
  (void)fuzz_config(9, 123);
  const ConvConfig b = fuzz_config(7, 123);
  EXPECT_EQ(a, b);
  EXPECT_NE(fuzz_config(8, 123), a);  // seed actually participates
}

TEST(ConvFuzz, GeneratorCoversTheAdversarialFamilies) {
  bool stride_exceeds_kernel = false;
  bool pad_reaches_kernel = false;
  bool single_channel = false;
  bool single_image = false;
  bool grouped = false;
  bool depthwise = false;
  bool depthwise_multiplier = false;
  bool input_at_most_kernel = false;
  std::set<std::size_t> inputs;
  for (std::size_t i = 0; i < 500; ++i) {
    const ConvConfig cfg = fuzz_config(1, i);
    ASSERT_NO_THROW((void)cfg.output()) << "invalid geometry at index " << i;
    stride_exceeds_kernel |= cfg.stride > cfg.kernel;
    pad_reaches_kernel |= cfg.pad >= cfg.kernel;
    single_channel |= cfg.channels == 1;
    single_image |= cfg.batch == 1;
    grouped |= cfg.groups > 1;
    const bool dw = cfg.groups > 1 && cfg.groups == cfg.channels;
    depthwise |= dw;
    depthwise_multiplier |= dw && cfg.group_filters() > 1;
    input_at_most_kernel |= cfg.input <= cfg.kernel;
    inputs.insert(cfg.input);
  }
  EXPECT_TRUE(stride_exceeds_kernel);
  EXPECT_TRUE(pad_reaches_kernel);
  EXPECT_TRUE(single_channel);
  EXPECT_TRUE(single_image);
  EXPECT_TRUE(grouped);
  EXPECT_TRUE(depthwise);
  EXPECT_TRUE(depthwise_multiplier);
  EXPECT_TRUE(input_at_most_kernel);
  // Non-power-of-two sizes around the FFT padding boundaries appear.
  EXPECT_TRUE(inputs.contains(17) || inputs.contains(33));
  EXPECT_GT(inputs.size(), 8U);
}

TEST(ConvFuzz, ReproCommandPinsOneConfig) {
  EXPECT_EQ(repro_command(42, 17),
            "tools/conv_fuzz --seed 42 --start 17 --count 1");
  EXPECT_EQ(repro_command(42, 17, /*depthwise=*/true),
            "tools/conv_fuzz --seed 42 --start 17 --count 1 --depthwise");
  EXPECT_EQ(repro_command(42, 17, /*depthwise=*/false, /*winograd=*/true),
            "tools/conv_fuzz --seed 42 --start 17 --count 1 --winograd");
}

TEST(ConvFuzz, WinogradGeneratorStaysEligibleAndAdversarial) {
  // Every config from the winograd generator must be in the family both
  // WinogradConv tile sizes own (k = 3, s = 1, pad <= 2, ungrouped),
  // and the sequence must cover the adversarial sub-families: all three
  // pads, C = 1 / F = 1 degenerates, inputs smaller than one tile, and
  // odd output sizes whose final tile overhangs the padded edge for
  // both tile sizes.
  bool pad0 = false;
  bool pad1 = false;
  bool pad2 = false;
  bool single_channel = false;
  bool single_filter = false;
  bool below_tile = false;    // input < 4, smaller than even an F2 tile
  bool f2_overhang = false;   // output % 2 != 0
  bool f4_overhang = false;   // output % 4 != 0
  for (std::size_t i = 0; i < 300; ++i) {
    const ConvConfig cfg = fuzz_winograd_config(1, i);
    ASSERT_NO_THROW((void)cfg.output()) << "invalid geometry at index " << i;
    ASSERT_EQ(cfg.kernel, 3U) << "not 3x3 at index " << i;
    ASSERT_EQ(cfg.stride, 1U) << "not stride-1 at index " << i;
    ASSERT_LE(cfg.pad, 2U) << "pad beyond the supported range at " << i;
    ASSERT_EQ(cfg.groups, 1U) << "grouped at index " << i;
    pad0 |= cfg.pad == 0;
    pad1 |= cfg.pad == 1;
    pad2 |= cfg.pad == 2;
    single_channel |= cfg.channels == 1;
    single_filter |= cfg.filters == 1;
    below_tile |= cfg.input < 4;
    f2_overhang |= cfg.output() % 2 != 0;
    f4_overhang |= cfg.output() % 4 != 0;
  }
  EXPECT_TRUE(pad0);
  EXPECT_TRUE(pad1);
  EXPECT_TRUE(pad2);
  EXPECT_TRUE(single_channel);
  EXPECT_TRUE(single_filter);
  EXPECT_TRUE(below_tile);
  EXPECT_TRUE(f2_overhang);
  EXPECT_TRUE(f4_overhang);

  // Pure function of (seed, index), like the other generators.
  const ConvConfig a = fuzz_winograd_config(7, 42);
  (void)fuzz_winograd_config(7, 1);
  EXPECT_EQ(a, fuzz_winograd_config(7, 42));
}

TEST(ConvFuzz, DepthwiseGeneratorStaysDegenerateAndAdversarial) {
  // Every config from the depthwise generator must be in the family the
  // DepthwiseConv engine owns (channels == groups), and the sequence
  // must still cover the adversarial sub-families: channel multipliers,
  // strides past the kernel, halo-only padding, 1x1 kernels.
  bool multiplier = false;
  bool wide = false;  // groups >= 16 exercises the SIMD row kernels
  bool stride_exceeds_kernel = false;
  bool pad_reaches_kernel = false;
  bool pointwise = false;
  for (std::size_t i = 0; i < 300; ++i) {
    const ConvConfig cfg = fuzz_depthwise_config(1, i);
    ASSERT_NO_THROW((void)cfg.output()) << "invalid geometry at index " << i;
    ASSERT_EQ(cfg.channels, cfg.groups) << "not depthwise at index " << i;
    ASSERT_EQ(cfg.filters % cfg.groups, 0U);
    multiplier |= cfg.group_filters() > 1;
    wide |= cfg.groups >= 16;
    stride_exceeds_kernel |= cfg.stride > cfg.kernel;
    pad_reaches_kernel |= cfg.pad >= cfg.kernel;
    pointwise |= cfg.kernel == 1;
  }
  EXPECT_TRUE(multiplier);
  EXPECT_TRUE(wide);
  EXPECT_TRUE(stride_exceeds_kernel);
  EXPECT_TRUE(pad_reaches_kernel);
  EXPECT_TRUE(pointwise);

  // Pure function of (seed, index), like the main generator.
  const ConvConfig a = fuzz_depthwise_config(7, 42);
  (void)fuzz_depthwise_config(7, 1);
  EXPECT_EQ(a, fuzz_depthwise_config(7, 42));
}

TEST(ConvFuzz, StartOffsetReproducesTheSameFailurelessSlice) {
  // Checking [10, 13) alone equals checking it as part of [0, 20):
  // the report counters for that slice must match.
  FuzzOptions slice;
  slice.seed = 3;
  slice.start = 10;
  slice.count = 3;
  const FuzzReport a = run_fuzz(slice);
  const FuzzReport b = run_fuzz(slice);
  EXPECT_EQ(a.engine_checks, b.engine_checks);
  EXPECT_EQ(a.engine_skips, b.engine_skips);
  EXPECT_EQ(a.plan_checks, b.plan_checks);
  EXPECT_EQ(a.failures.size(), b.failures.size());
}

}  // namespace
}  // namespace gpucnn::analysis
