#include "quant/quant.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "blas/igemm.hpp"
#include "blas/packed.hpp"
#include "core/cpu_features.hpp"
#include "core/error.hpp"
#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "simd_guard.hpp"

namespace gpucnn::quant {
namespace {

// ---------------------------------------------------------------------
// Activation quantization

TEST(ActQuantTest, ChooseCoversRangeAndRepresentsZeroExactly) {
  const ActQuant q = choose_act_quant(-1.5F, 3.0F);
  EXPECT_GT(q.scale, 0.0F);
  EXPECT_GE(q.zero_point, 0);
  EXPECT_LE(q.zero_point, 255);
  // Real zero must quantize to the zero point exactly (padding relies
  // on this) and dequantize back to exactly 0.
  EXPECT_EQ(quantize_act(0.0F, q), q.zero_point);
  EXPECT_EQ(dequantize_act(quantize_act(0.0F, q), q), 0.0F);
}

TEST(ActQuantTest, PositiveOnlyRangeIsWidenedToIncludeZero) {
  const ActQuant q = choose_act_quant(2.0F, 6.0F);
  EXPECT_EQ(q.zero_point, 0);  // lo widened to 0 -> zp at the bottom
  EXPECT_NEAR(q.scale, 6.0F / 255.0F, 1e-6F);
}

TEST(ActQuantTest, DegenerateRangeGetsIdentityScale) {
  const ActQuant q = choose_act_quant(0.0F, 0.0F);
  EXPECT_EQ(q.scale, 1.0F);
  EXPECT_EQ(q.zero_point, 0);
}

TEST(ActQuantTest, RoundTripErrorBoundedByHalfScale) {
  const float lo = -4.0F;
  const float hi = 4.0F;
  const ActQuant q = choose_act_quant(lo, hi);
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> dist(lo, hi);
  for (int i = 0; i < 1000; ++i) {
    const float x = dist(rng);
    const float back = dequantize_act(quantize_act(x, q), q);
    EXPECT_LE(std::fabs(back - x), q.scale * 0.5F + 1e-6F) << x;
  }
}

TEST(ActQuantTest, ValidateRejectsBadParameters) {
  EXPECT_THROW(validate(ActQuant{0.0F, 0}), Error);
  EXPECT_THROW(validate(ActQuant{-1.0F, 0}), Error);
  EXPECT_THROW(validate(ActQuant{1.0F, -1}), Error);
  EXPECT_THROW(validate(ActQuant{1.0F, 256}), Error);
  EXPECT_NO_THROW(validate(ActQuant{1.0F, 255}));
}

TEST(ActQuantTest, QuantizeSaturatesOutOfRangeValues) {
  const ActQuant q{0.1F, 128};
  EXPECT_EQ(quantize_act(1e30F, q), 255);
  EXPECT_EQ(quantize_act(-1e30F, q), 0);
  EXPECT_EQ(quantize_act(std::numeric_limits<float>::quiet_NaN(), q), 0);
}

TEST(ActQuantTest, BulkQuantizeCountsClippedValues) {
  const ActQuant q = choose_act_quant(-1.0F, 1.0F);
  const std::vector<float> src = {0.0F, 0.5F, -1.0F, 1.0F, 50.0F, -50.0F};
  std::vector<std::uint8_t> dst(src.size());
  EXPECT_EQ(quantize_acts(src, q, dst), 2U);  // only the +/-50 clip
  EXPECT_EQ(dst[4], 255);
  EXPECT_EQ(dst[5], 0);
}

TEST(ActQuantTest, RequantizeClampsBeforeIntegerConversion) {
  // An accumulator far outside uint8 range must saturate, not invoke a
  // float->int conversion UB. Exercises values near INT32_MAX.
  const ActQuant out{1.0F, 0};
  EXPECT_EQ(requantize(static_cast<float>(
                           std::numeric_limits<std::int32_t>::max()),
                       out),
            255);
  EXPECT_EQ(requantize(static_cast<float>(
                           std::numeric_limits<std::int32_t>::min()),
                       out),
            0);
}

// ---------------------------------------------------------------------
// Weight quantization

TEST(WeightQuantTest, PerChannelScalesTrackEachRowsAbsmax) {
  // Two rows with very different magnitudes: per-channel scales must
  // differ, and each row's codes must span up to kWeightQMax.
  const std::vector<float> w = {0.5F, -1.0F, 0.25F,   // absmax 1.0
                                100.0F, 50.0F, -200.0F};  // absmax 200
  const QuantizedFilters q = quantize_filters(w, 2, 3);
  EXPECT_NEAR(q.scales[0], 1.0F / 63.0F, 1e-6F);
  EXPECT_NEAR(q.scales[1], 200.0F / 63.0F, 1e-4F);
  EXPECT_EQ(q.data[1], -63);  // row 0 absmax hits the negative end
  EXPECT_EQ(q.data[5], -63);  // row 1 absmax
}

TEST(WeightQuantTest, CodesStayWithinTheMaddubsSafeRange) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> dist(-3.0F, 3.0F);
  std::vector<float> w(8 * 37);
  for (auto& v : w) v = dist(rng);
  const QuantizedFilters q = quantize_filters(w, 8, 37);
  for (const std::int8_t v : q.data) {
    EXPECT_GE(v, -kWeightQMax);
    EXPECT_LE(v, kWeightQMax);
  }
  // Row sums must match the quantized codes (the zero-point correction
  // depends on them being exact).
  for (std::size_t r = 0; r < 8; ++r) {
    std::int32_t sum = 0;
    for (std::size_t c = 0; c < 37; ++c) sum += q.data[r * 37 + c];
    EXPECT_EQ(q.row_sums[r], sum);
  }
}

TEST(WeightQuantTest, RoundTripErrorBoundedByHalfScalePerRow) {
  std::mt19937 rng(13);
  std::uniform_real_distribution<float> dist(-2.0F, 2.0F);
  std::vector<float> w(4 * 25);
  for (auto& v : w) v = dist(rng);
  const QuantizedFilters q = quantize_filters(w, 4, 25);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 25; ++c) {
      const float back = dequantize_weight(q.data[r * 25 + c], q.scales[r]);
      EXPECT_LE(std::fabs(back - w[r * 25 + c]), q.scales[r] * 0.5F + 1e-6F);
    }
  }
}

TEST(WeightQuantTest, AllZeroRowGetsIdentityScaleAndZeroCodes) {
  const std::vector<float> w(2 * 4, 0.0F);
  const QuantizedFilters q = quantize_filters(w, 2, 4);
  EXPECT_EQ(q.scales[0], 1.0F);
  EXPECT_EQ(q.row_sums[0], 0);
  for (const std::int8_t v : q.data) EXPECT_EQ(v, 0);
}

// ---------------------------------------------------------------------
// Observer

TEST(ObserverTest, MinMaxTracksExtremesAcrossBatches) {
  Observer ob(Observer::Kind::kMinMax);
  EXPECT_FALSE(ob.seen());
  const std::vector<float> a = {-1.0F, 2.0F};
  const std::vector<float> b = {-3.0F, 0.5F};
  ob.observe(a);
  ob.observe(b);
  EXPECT_TRUE(ob.seen());
  EXPECT_EQ(ob.min(), -3.0F);
  EXPECT_EQ(ob.max(), 2.0F);
  const ActQuant q = ob.quant();
  EXPECT_NEAR(q.scale, 5.0F / 255.0F, 1e-6F);
}

TEST(ObserverTest, PercentileClipsRareOutliers) {
  // 10k small values and one huge outlier: the percentile observer's
  // scale must track the bulk, the min/max observer's the outlier.
  std::vector<float> values(10000, 0.0F);
  std::mt19937 rng(17);
  std::uniform_real_distribution<float> dist(-1.0F, 1.0F);
  for (auto& v : values) v = dist(rng);
  values[5000] = 1000.0F;
  Observer pct(Observer::Kind::kPercentile);
  Observer mm(Observer::Kind::kMinMax);
  pct.observe(values);
  mm.observe(values);
  EXPECT_LT(pct.quant().scale, mm.quant().scale / 100.0F);
}

TEST(ObserverTest, QuantRequiresData) {
  const Observer ob;
  EXPECT_THROW((void)ob.quant(), Error);
}

// ---------------------------------------------------------------------
// Int8 GEMM exactness

void fill_random_operands(std::size_t m, std::size_t n, std::size_t k,
                          std::vector<std::int8_t>& a,
                          std::vector<std::uint8_t>& b, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> wa(-kWeightQMax, kWeightQMax);
  std::uniform_int_distribution<int> wb(0, 255);
  a.resize(m * k);
  b.resize(k * n);
  for (auto& v : a) v = static_cast<std::int8_t>(wa(rng));
  for (auto& v : b) v = static_cast<std::uint8_t>(wb(rng));
}

void expect_igemm_matches_naive(std::size_t m, std::size_t n,
                                std::size_t k, unsigned seed) {
  std::vector<std::int8_t> a;
  std::vector<std::uint8_t> b;
  fill_random_operands(m, n, k, a, b, seed);
  std::vector<std::int32_t> expect(m * n);
  std::vector<std::int32_t> got(m * n, -1);
  blas::igemm_s32_naive(m, n, k, a, k, b, n, expect, n);
  blas::igemm_s32(m, n, k, a, k, b, n, got, n);
  EXPECT_EQ(got, expect) << m << "x" << n << "x" << k;
}

/// For m * n * k >= 64^3: each of the s32, f32 and u8 calls must take
/// the blocked loop nest — it packs B, so blas.igemm.bytes_packed_b
/// grows — not the naive small-problem fallback, and match
/// igemm_s32_naive plus a hand-written epilogue.
void expect_blocked_igemm_matches_naive(std::size_t m, std::size_t n,
                                        std::size_t k, unsigned seed) {
  ASSERT_GE(m * n * k, std::size_t{64 * 64 * 64});
  std::vector<std::int8_t> a;
  std::vector<std::uint8_t> b;
  fill_random_operands(m, n, k, a, b, seed);
  std::vector<std::int32_t> acc(m * n);
  blas::igemm_s32_naive(m, n, k, a, k, b, n, acc, n);
  const auto& packed_b = obs::metrics().counter("blas.igemm.bytes_packed_b");

  std::vector<std::int32_t> s32(m * n, -1);
  std::int64_t before = packed_b.value();
  blas::igemm_s32(m, n, k, a, k, b, n, s32, n);
  EXPECT_GT(packed_b.value(), before) << "s32 took the small-problem path";
  EXPECT_EQ(s32, acc) << m << "x" << n << "x" << k;

  std::vector<float> scales(m);
  std::vector<std::int32_t> offsets(m);
  std::vector<float> bias(m);
  for (std::size_t r = 0; r < m; ++r) {
    scales[r] = 1e-5F * static_cast<float>(1 + r % 3);
    offsets[r] = static_cast<std::int32_t>(r * 13) - 40;
    bias[r] = 0.25F * static_cast<float>(r % 5) - 0.5F;
  }
  blas::QEpilogue ep;
  ep.scales = scales.data();
  ep.row_offsets = offsets.data();
  ep.bias = bias.data();
  ep.relu = true;
  const auto real = [&](std::size_t r, std::size_t j) {
    const float v =
        scales[r] * static_cast<float>(acc[r * n + j] - offsets[r]) +
        bias[r];
    return v < 0.0F ? 0.0F : v;
  };

  std::vector<float> f32(m * n, -1.0F);
  before = packed_b.value();
  blas::igemm(m, n, k, a, k, b, n, ep, f32, n);
  EXPECT_GT(packed_b.value(), before) << "f32 took the small-problem path";
  std::size_t f32_off = 0;
  for (std::size_t i = 0; i < m * n; ++i) {
    const float want = real(i / n, i % n);
    const float ulps = 4 * std::numeric_limits<float>::epsilon();
    if (std::abs(f32[i] - want) > ulps * std::max(1.0F, std::abs(want))) {
      ++f32_off;
    }
  }
  EXPECT_EQ(f32_off, 0U) << "f32 outputs off the oracle, " << m << "x" << n
                         << "x" << k;

  ep.out = blas::QEpilogue::Out::kU8;
  ep.out_scale = 0.05F;
  ep.out_zero_point = 3;
  std::vector<std::uint8_t> u8(m * n, 1);
  before = packed_b.value();
  blas::igemm(m, n, k, a, k, b, n, ep, u8, n);
  EXPECT_GT(packed_b.value(), before) << "u8 took the small-problem path";
  std::size_t u8_off = 0;
  for (std::size_t i = 0; i < m * n; ++i) {
    const float q = std::round(real(i / n, i % n) / ep.out_scale) +
                    static_cast<float>(ep.out_zero_point);
    if (std::abs(static_cast<float>(u8[i]) - std::clamp(q, 0.0F, 255.0F)) >
        1.0F) {
      ++u8_off;
    }
  }
  EXPECT_EQ(u8_off, 0U) << "u8 outputs off the oracle, " << m << "x" << n
                        << "x" << k;
}

TEST(IgemmTest, MatchesNaiveOnMicroKernelMultiples) {
  expect_igemm_matches_naive(4, 16, 32, 1);
  expect_igemm_matches_naive(8, 32, 64, 2);
}

TEST(IgemmTest, MatchesNaiveOnRaggedEdges) {
  expect_igemm_matches_naive(1, 1, 1, 3);
  expect_igemm_matches_naive(5, 17, 9, 4);
  expect_igemm_matches_naive(7, 31, 30, 5);
  expect_igemm_matches_naive(13, 50, 130, 6);
}

TEST(IgemmTest, MatchesNaiveAcrossKBlockBoundary) {
  // kKc is 1536: a k beyond it exercises the multi-block staging path.
  expect_igemm_matches_naive(5, 18, 1600, 8);
  // 5x18x1600 falls under the 64^3 small-problem cut-off; these reach
  // the blocked loop nest, the second with n past 2048 columns too.
  expect_blocked_igemm_matches_naive(5, 40, 1600, 8);
  expect_blocked_igemm_matches_naive(9, 2100, 1600, 13);
}

TEST(IgemmTest, MatchesNaiveAcrossMBlockBoundary) {
  // kMc is 96: an m beyond it exercises multiple row blocks.
  expect_igemm_matches_naive(100, 17, 40, 9);
  // The same under the blocked loop nest, past the small-problem cut-off.
  expect_blocked_igemm_matches_naive(100, 80, 40, 9);
}

TEST(IgemmTest, PortableAndActiveKernelsAgree) {
  // 9x160x200 is past the 64^3 small-problem cut-off, so both levels run
  // their blocked micro-kernels (each call packs B); A stays within the
  // +-63 weight range, where maddubs cannot saturate.
  constexpr std::size_t m = 9, n = 160, k = 200;
  std::vector<std::int8_t> a;
  std::vector<std::uint8_t> b;
  fill_random_operands(m, n, k, a, b, 10);
  const auto& packed_b = obs::metrics().counter("blas.igemm.bytes_packed_b");
  const auto run = [&](simd::Level level) {
    const SimdGuard guard(level);
    std::vector<std::int32_t> c(m * n, -1);
    const std::int64_t before = packed_b.value();
    blas::igemm_s32(m, n, k, a, k, b, n, c, n);
    EXPECT_GT(packed_b.value(), before)
        << simd::name(level) << " took the small-problem path";
    return c;
  };
  const simd::Level native =
      simd::cpu_has_avx2() ? simd::Level::kAvx2 : simd::Level::kPortable;
  EXPECT_EQ(run(native), run(simd::Level::kPortable));
}

TEST(IgemmTest, EpilogueDequantizesBiasesAndClamps) {
  // 2x3x2: hand-checkable. Row scales differ; row 1 has a negative
  // pre-ReLU value that must clamp to zero.
  const std::vector<std::int8_t> a = {1, 2, -3, -4};          // 2x2
  const std::vector<std::uint8_t> b = {10, 0, 5, 20, 1, 0};   // 2x3
  const std::vector<float> scales = {0.5F, 0.25F};
  const std::vector<std::int32_t> offsets = {3, -2};
  const std::vector<float> bias = {1.0F, -10.0F};
  blas::QEpilogue ep;
  ep.scales = scales.data();
  ep.row_offsets = offsets.data();
  ep.bias = bias.data();
  ep.relu = true;
  std::vector<float> c(2 * 3);
  blas::igemm(2, 3, 2, a, 2, b, 3, ep, c, 3);
  // Row 0: acc = {50, 2, 5}; (acc-3)*0.5+1 = {24.5, 0.5, 2.0}
  EXPECT_FLOAT_EQ(c[0], 24.5F);
  EXPECT_FLOAT_EQ(c[1], 0.5F);
  EXPECT_FLOAT_EQ(c[2], 2.0F);
  // Row 1: acc = {-110, -4, -15}; (acc+2)*0.25-10 = {-37, -10.5, -13.25}
  // -> ReLU clamps all to 0.
  EXPECT_FLOAT_EQ(c[3], 0.0F);
  EXPECT_FLOAT_EQ(c[4], 0.0F);
  EXPECT_FLOAT_EQ(c[5], 0.0F);
}

TEST(IgemmTest, U8OutputRequantizesAndSaturates) {
  const std::vector<std::int8_t> a = {1, 1};        // 1x2
  const std::vector<std::uint8_t> b = {200, 100};   // 2x1
  const std::vector<float> scales = {1.0F};
  const std::vector<std::int32_t> offsets = {0};
  blas::QEpilogue ep;
  ep.scales = scales.data();
  ep.row_offsets = offsets.data();
  ep.out = blas::QEpilogue::Out::kU8;
  ep.out_scale = 1.0F;
  ep.out_zero_point = 10;
  std::vector<std::uint8_t> c(1);
  blas::igemm(1, 1, 2, a, 2, b, 1, ep, c, 1);
  EXPECT_EQ(c[0], 255);  // 300 + 10 saturates
  ep.out_scale = 10.0F;
  blas::igemm(1, 1, 2, a, 2, b, 1, ep, c, 1);
  EXPECT_EQ(c[0], 40);  // round(300/10) + 10
}

TEST(IgemmTest, EpilogueAppliesToAllKBlocksOnce) {
  // Across the k-block boundary the epilogue must fire once on the
  // summed accumulator, not per block: compare against naive + manual
  // epilogue.
  const std::size_t m = 3;
  const std::size_t n = 20;
  const std::size_t k = 1700;
  std::vector<std::int8_t> a;
  std::vector<std::uint8_t> b;
  fill_random_operands(m, n, k, a, b, 12);
  std::vector<std::int32_t> acc(m * n);
  blas::igemm_s32_naive(m, n, k, a, k, b, n, acc, n);
  const std::vector<float> scales = {0.01F, 0.02F, 0.03F};
  const std::vector<std::int32_t> offsets = {100, -50, 0};
  blas::QEpilogue ep;
  ep.scales = scales.data();
  ep.row_offsets = offsets.data();
  std::vector<float> c(m * n);
  blas::igemm(m, n, k, a, k, b, n, ep, c, n);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      const float want =
          scales[r] * static_cast<float>(acc[r * n + j] - offsets[r]);
      EXPECT_FLOAT_EQ(c[r * n + j], want) << r << "," << j;
    }
  }
  // 3x20x1700 falls under the 64^3 small-problem cut-off; this input
  // reaches the blocked loop nest's staged partial sums, for f32 and u8.
  expect_blocked_igemm_matches_naive(3, 60, 1700, 12);
}

// The igemm side of the GEMM partition check (test_gemm.cpp): the call
// on all cores must equal the same call inside a pool task, where it
// runs the one-thread M-split, bit for bit. M straddles igemm's MC = 96
// and its four-worker split at 3 x MC as well as sgemm's edges; k = 1600
// spans two KC = 1536 blocks, so f32 and u8 stage partial sums; n ends
// in a ragged tile.
class IgemmPartition : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IgemmPartition, AllCoresMatchOnePoolTaskBitForBit) {
  const std::size_t m = GetParam();
  const std::size_t n = 181;
  const std::size_t k = 1600;
  std::vector<std::int8_t> a;
  std::vector<std::uint8_t> b;
  fill_random_operands(m, n, k, a, b, static_cast<unsigned>(m) + 5);
  const blas::PackedMatrixI8 pa = blas::pack_a_i8(m, k, a, k);
  std::vector<float> scales(m);
  std::vector<std::int32_t> offsets(m);
  std::vector<float> bias(m);
  for (std::size_t r = 0; r < m; ++r) {
    scales[r] = 1e-5F * static_cast<float>(1 + r % 3);
    offsets[r] = static_cast<std::int32_t>(r % 7) - 3;
    bias[r] = 0.125F * static_cast<float>(r % 5) - 0.25F;
  }
  blas::QEpilogue f32_ep{.scales = scales.data(),
                         .row_offsets = offsets.data(),
                         .bias = bias.data(),
                         .relu = true};
  blas::QEpilogue u8_ep = f32_ep;
  u8_ep.out = blas::QEpilogue::Out::kU8;
  u8_ep.out_scale = 0.05F;
  u8_ep.out_zero_point = 3;

  struct Outputs {
    std::vector<std::int32_t> s32, s32_packed;
    std::vector<float> f32;
    std::vector<std::uint8_t> u8;
  };
  const auto run = [&](Outputs& o) {
    o.s32.assign(m * n, -1);
    o.s32_packed.assign(m * n, -1);
    o.f32.assign(m * n, -1.0F);
    o.u8.assign(m * n, 1);
    blas::igemm_s32(m, n, k, a, k, b, n, o.s32, n);
    blas::igemm_s32(m, n, k, a, k, b, n, o.s32_packed, n, &pa);
    blas::igemm(m, n, k, a, k, b, n, f32_ep, o.f32, n, &pa);
    blas::igemm(m, n, k, a, k, b, n, u8_ep, o.u8, n);
  };
  Outputs spread;
  Outputs inline_ref;
  run(spread);
  parallel_for_chunks(0, 1,
                      [&](std::size_t, std::size_t) { run(inline_ref); });
  EXPECT_EQ(spread.s32, inline_ref.s32) << "m = " << m;
  EXPECT_EQ(spread.s32_packed, inline_ref.s32_packed) << "m = " << m;
  EXPECT_EQ(spread.u8, inline_ref.u8) << "m = " << m;
  ASSERT_EQ(spread.f32.size(), inline_ref.f32.size());
  EXPECT_EQ(std::memcmp(spread.f32.data(), inline_ref.f32.data(),
                        spread.f32.size() * sizeof(float)),
            0)
      << "f32 outputs differ in their bits, m = " << m;
}

INSTANTIATE_TEST_SUITE_P(RowsAroundTheBlockEdges, IgemmPartition,
                         ::testing::Values(1, 7, 64, 96, 97, 120, 121, 288,
                                           289, 360, 361, 512));

}  // namespace
}  // namespace gpucnn::quant
