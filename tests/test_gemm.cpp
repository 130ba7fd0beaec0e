#include "blas/gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "blas/packed.hpp"
#include "core/cpu_features.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "simd_guard.hpp"

namespace gpucnn::blas {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

std::vector<float> random_matrix(std::size_t rows, std::size_t cols,
                                 Rng& rng) {
  std::vector<float> m(rows * cols);
  for (auto& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

TEST(GemmNaive, TwoByTwoHandComputed) {
  // A = [1 2; 3 4], B = [5 6; 7 8] -> C = [19 22; 43 50]
  const std::vector<float> a{1, 2, 3, 4};
  const std::vector<float> b{5, 6, 7, 8};
  std::vector<float> c(4, 0.0F);
  sgemm_naive(Trans::kNo, Trans::kNo, 2, 2, 2, 1.0F, a, 2, b, 2, 0.0F, c, 2);
  EXPECT_FLOAT_EQ(c[0], 19.0F);
  EXPECT_FLOAT_EQ(c[1], 22.0F);
  EXPECT_FLOAT_EQ(c[2], 43.0F);
  EXPECT_FLOAT_EQ(c[3], 50.0F);
}

TEST(GemmNaive, AlphaBetaSemantics) {
  const std::vector<float> a{1, 0, 0, 1};  // identity
  const std::vector<float> b{2, 3, 4, 5};
  std::vector<float> c{10, 10, 10, 10};
  sgemm_naive(Trans::kNo, Trans::kNo, 2, 2, 2, 2.0F, a, 2, b, 2, 0.5F, c, 2);
  EXPECT_FLOAT_EQ(c[0], 2 * 2 + 5.0F);
  EXPECT_FLOAT_EQ(c[3], 2 * 5 + 5.0F);
}

TEST(GemmNaive, TransposeAMatchesManual) {
  // op(A) = A^T where A is k x m = 2x2: A = [1 2; 3 4], A^T = [1 3; 2 4].
  const std::vector<float> a{1, 2, 3, 4};
  const std::vector<float> b{1, 0, 0, 1};
  std::vector<float> c(4, 0.0F);
  sgemm_naive(Trans::kYes, Trans::kNo, 2, 2, 2, 1.0F, a, 2, b, 2, 0.0F, c, 2);
  EXPECT_FLOAT_EQ(c[0], 1.0F);
  EXPECT_FLOAT_EQ(c[1], 3.0F);
  EXPECT_FLOAT_EQ(c[2], 2.0F);
  EXPECT_FLOAT_EQ(c[3], 4.0F);
}

struct GemmCase {
  std::size_t m, n, k;
  Trans ta, tb;
};

class GemmAgreement : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmAgreement, BlockedMatchesNaive) {
  const auto [m, n, k, ta, tb] = GetParam();
  Rng rng(m * 1000 + n * 100 + k);
  const auto a = ta == Trans::kNo ? random_matrix(m, k, rng)
                                  : random_matrix(k, m, rng);
  const auto b = tb == Trans::kNo ? random_matrix(k, n, rng)
                                  : random_matrix(n, k, rng);
  std::vector<float> c_ref(m * n);
  std::vector<float> c_blk(m * n);
  for (std::size_t i = 0; i < m * n; ++i) {
    c_ref[i] = c_blk[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  const std::size_t lda = ta == Trans::kNo ? k : m;
  const std::size_t ldb = tb == Trans::kNo ? n : k;
  sgemm_naive(ta, tb, m, n, k, 1.3F, a, lda, b, ldb, 0.7F, c_ref, n);
  sgemm(ta, tb, m, n, k, 1.3F, a, lda, b, ldb, 0.7F, c_blk, n);
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c_ref[i], c_blk[i],
                2e-4F * (1.0F + static_cast<float>(k) * 0.01F))
        << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmAgreement,
    ::testing::Values(
        GemmCase{1, 1, 1, Trans::kNo, Trans::kNo},
        GemmCase{3, 5, 7, Trans::kNo, Trans::kNo},
        GemmCase{64, 64, 64, Trans::kNo, Trans::kNo},
        GemmCase{65, 67, 63, Trans::kNo, Trans::kNo},
        GemmCase{128, 96, 256, Trans::kNo, Trans::kNo},
        GemmCase{200, 300, 100, Trans::kNo, Trans::kNo},
        GemmCase{129, 257, 255, Trans::kNo, Trans::kNo},
        GemmCase{100, 100, 300, Trans::kYes, Trans::kNo},
        GemmCase{100, 300, 100, Trans::kNo, Trans::kYes},
        GemmCase{150, 150, 150, Trans::kYes, Trans::kYes},
        GemmCase{8, 2048, 64, Trans::kNo, Trans::kNo},
        GemmCase{2048, 8, 64, Trans::kNo, Trans::kNo}));

// BLAS semantics: beta == 0 must overwrite C without reading it, so a
// C full of NaN (e.g. fresh uninitialised scratch) must come out clean.
TEST(GemmNaive, BetaZeroOverwritesNaNFilledC) {
  Rng rng(21);
  const auto a = random_matrix(5, 7, rng);
  const auto b = random_matrix(7, 6, rng);
  std::vector<float> c(5 * 6, kNaN);
  sgemm_naive(Trans::kNo, Trans::kNo, 5, 6, 7, 1.0F, a, 7, b, 6, 0.0F, c, 6);
  for (const float v : c) EXPECT_FALSE(std::isnan(v));
}

TEST(Gemm, BetaZeroOverwritesNaNFilledCBlockedPath) {
  // 80^3 > 64^3 forces the blocked/packed path.
  Rng rng(22);
  const std::size_t n = 80;
  const auto a = random_matrix(n, n, rng);
  const auto b = random_matrix(n, n, rng);
  std::vector<float> c_blk(n * n, kNaN);
  std::vector<float> c_ref(n * n, 0.0F);
  sgemm(Trans::kNo, Trans::kNo, n, n, n, 1.0F, a, n, b, n, 0.0F, c_blk, n);
  sgemm_naive(Trans::kNo, Trans::kNo, n, n, n, 1.0F, a, n, b, n, 0.0F, c_ref,
              n);
  for (std::size_t i = 0; i < c_blk.size(); ++i) {
    ASSERT_FALSE(std::isnan(c_blk[i])) << "NaN leaked at " << i;
    EXPECT_NEAR(c_ref[i], c_blk[i], 2e-3F);
  }
}

TEST(Gemm, BetaZeroOverwritesNaNFilledCSmallPath) {
  // Below the 64^3 threshold sgemm delegates to the naive kernel; the
  // overwrite contract must hold there too.
  Rng rng(23);
  const auto a = random_matrix(8, 8, rng);
  const auto b = random_matrix(8, 8, rng);
  std::vector<float> c(8 * 8, kNaN);
  sgemm(Trans::kNo, Trans::kNo, 8, 8, 8, 2.0F, a, 8, b, 8, 0.0F, c, 8);
  for (const float v : c) EXPECT_FALSE(std::isnan(v));
}

// Leading dimensions larger than the logical row length: operands are
// embedded in wider storage whose padding is poisoned with NaN, so any
// out-of-row read or write shows up immediately. All four transpose
// combinations go through the blocked path (96*80*72 > 64^3).
TEST(Gemm, PaddedLeadingDimensionsAllTransposeCombos) {
  const std::size_t m = 96, n = 80, k = 72, pad = 5;
  for (const Trans ta : {Trans::kNo, Trans::kYes}) {
    for (const Trans tb : {Trans::kNo, Trans::kYes}) {
      Rng rng(31);
      // Stored A is m x k (kNo) or k x m (kYes); same for B.
      const std::size_t a_rows = ta == Trans::kNo ? m : k;
      const std::size_t lda = (ta == Trans::kNo ? k : m) + pad;
      const std::size_t b_rows = tb == Trans::kNo ? k : n;
      const std::size_t ldb = (tb == Trans::kNo ? n : k) + pad;
      const std::size_t ldc = n + pad;
      std::vector<float> a(a_rows * lda, kNaN);
      std::vector<float> b(b_rows * ldb, kNaN);
      std::vector<float> c_ref(m * ldc, 0.25F);
      std::vector<float> c_blk(m * ldc, 0.25F);
      for (std::size_t r = 0; r < a_rows; ++r) {
        for (std::size_t col = 0; col + pad < lda; ++col) {
          a[r * lda + col] = static_cast<float>(rng.uniform(-1.0, 1.0));
        }
      }
      for (std::size_t r = 0; r < b_rows; ++r) {
        for (std::size_t col = 0; col + pad < ldb; ++col) {
          b[r * ldb + col] = static_cast<float>(rng.uniform(-1.0, 1.0));
        }
      }
      sgemm_naive(ta, tb, m, n, k, 1.1F, a, lda, b, ldb, 0.5F, c_ref, ldc);
      sgemm(ta, tb, m, n, k, 1.1F, a, lda, b, ldb, 0.5F, c_blk, ldc);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_NEAR(c_ref[i * ldc + j], c_blk[i * ldc + j], 2e-3F)
              << "ta=" << static_cast<int>(ta) << " tb="
              << static_cast<int>(tb) << " at (" << i << "," << j << ")";
        }
        // Padding columns of C must be untouched.
        for (std::size_t j = n; j < ldc; ++j) {
          EXPECT_FLOAT_EQ(c_blk[i * ldc + j], 0.25F);
        }
      }
    }
  }
}

// The blocked path runs whenever m*n*k >= 64^3 regardless of how skewed
// the shape is; sub-micro-tile edges (m < mr, n < nr) exercise the
// zero-padded packing and partial write_tile in the same breath.
INSTANTIATE_TEST_SUITE_P(
    SubMicroTileShapes, GemmAgreement,
    ::testing::Values(GemmCase{2, 2, 70000, Trans::kNo, Trans::kNo},
                      GemmCase{4, 8, 16384, Trans::kNo, Trans::kYes},
                      GemmCase{5, 2048, 40, Trans::kNo, Trans::kNo},
                      GemmCase{2048, 5, 40, Trans::kYes, Trans::kNo},
                      GemmCase{3, 3, 65536, Trans::kYes, Trans::kYes}));

// Shapes straddling the 64^3 = 262144 flop-product dispatch threshold:
// 63*64*64 and 65*64*63 stay naive, 64^3 and 65*65*63 go blocked. The
// answer must agree either way.
INSTANTIATE_TEST_SUITE_P(
    DispatchBoundary, GemmAgreement,
    ::testing::Values(GemmCase{63, 64, 64, Trans::kNo, Trans::kNo},
                      GemmCase{64, 64, 64, Trans::kNo, Trans::kYes},
                      GemmCase{65, 64, 63, Trans::kYes, Trans::kNo},
                      GemmCase{65, 65, 63, Trans::kNo, Trans::kNo}));

// Portable (8x8) and AVX2 (6x16) micro-kernels must agree on the same
// problem. Skipped where the CPU lacks AVX2 — the portable path is then
// the only one and is already covered by the agreement suite.
TEST(Gemm, PortableAndAvx2KernelsAgree) {
  if (!simd::cpu_has_avx2()) {
    GTEST_SKIP() << "CPU lacks AVX2; nothing to compare";
  }
  Rng rng(41);
  const std::size_t m = 130, n = 96, k = 100;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c_portable(m * n, 0.0F);
  std::vector<float> c_avx2(m * n, 0.0F);
  {
    const SimdGuard guard(simd::Level::kPortable);
    ASSERT_EQ(simd::active(), simd::Level::kPortable);
    sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0F, a, k, b, n, 0.0F,
          c_portable, n);
  }
  {
    const SimdGuard guard(simd::Level::kAvx2);
    ASSERT_EQ(simd::active(), simd::Level::kAvx2);
    sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0F, a, k, b, n, 0.0F, c_avx2,
          n);
  }
  for (std::size_t i = 0; i < c_portable.size(); ++i) {
    EXPECT_NEAR(c_portable[i], c_avx2[i], 2e-3F) << "at " << i;
  }
}

TEST(Gemm, ZeroKScalesByBeta) {
  std::vector<float> c{4.0F, 8.0F};
  sgemm(Trans::kNo, Trans::kNo, 1, 2, 0, 1.0F, {}, 1, {}, 2, 0.5F, c, 2);
  EXPECT_FLOAT_EQ(c[0], 2.0F);
  EXPECT_FLOAT_EQ(c[1], 4.0F);
}

TEST(Gemm, ZeroAlphaOnlyAppliesBeta) {
  Rng rng(3);
  const auto a = random_matrix(70, 70, rng);
  const auto b = random_matrix(70, 70, rng);
  std::vector<float> c(70 * 70, 2.0F);
  sgemm(Trans::kNo, Trans::kNo, 70, 70, 70, 0.0F, a, 70, b, 70, 3.0F, c, 70);
  for (const float v : c) EXPECT_FLOAT_EQ(v, 6.0F);
}

TEST(Gemm, ConvenienceOverloadMatchesExplicit) {
  Rng rng(11);
  const auto a = random_matrix(90, 110, rng);
  const auto b = random_matrix(110, 70, rng);
  std::vector<float> c1(90 * 70, 0.0F);
  std::vector<float> c2(90 * 70, 0.0F);
  sgemm(Trans::kNo, Trans::kNo, 90, 70, 110, 1.0F, a, 110, b, 70, 0.0F, c1,
        70);
  sgemm(Trans::kNo, Trans::kNo, 90, 70, 110, 1.0F, a, b, 0.0F, c2);
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_EQ(c1[i], c2[i]);
}

TEST(Gemm, FlopsFormula) {
  EXPECT_DOUBLE_EQ(gemm_flops(10, 20, 30), 12000.0);
}

// Fused-epilogue agreement: sgemm with an Epilogue must equal the plain
// sgemm followed by the separate bias-broadcast and ReLU passes, bit for
// bit — the property the fused ConvLayer relies on. Sizes cover both the
// small naive fallback and the blocked path (which applies the epilogue
// per write-back tile on the last k-block only).
void reference_epilogue(std::vector<float>& c, std::size_t m,
                        std::size_t n, const float* bias, bool relu) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float& v = c[i * n + j];
      if (bias != nullptr) v += bias[i];
      if (relu) v = v > 0.0F ? v : 0.0F;
    }
  }
}

class GemmEpilogue
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t>> {};

TEST_P(GemmEpilogue, MatchesUnfusedBitForBit) {
  const auto [m, n, k] = GetParam();
  Rng rng(17);
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  const auto bias = random_matrix(m, 1, rng);

  std::vector<float> unfused(m * n, 0.0F);
  sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0F, a, k, b, n, 0.0F, unfused,
        n);
  reference_epilogue(unfused, m, n, bias.data(), true);

  std::vector<float> fused(m * n, kNaN);  // beta = 0 must overwrite NaN
  sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0F, a, k, b, n, 0.0F, fused, n,
        Epilogue{.bias = bias.data(), .relu = true});

  for (std::size_t i = 0; i < unfused.size(); ++i) {
    EXPECT_EQ(unfused[i], fused[i]) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmEpilogue,
    ::testing::Values(std::tuple<std::size_t, std::size_t, std::size_t>{
                          8, 12, 16},  // naive small path
                      std::tuple<std::size_t, std::size_t, std::size_t>{
                          96, 130, 80},  // blocked, one k-block
                      std::tuple<std::size_t, std::size_t, std::size_t>{
                          150, 96, 300}  // blocked, multiple k-blocks
                      ));

TEST(GemmEpilogue, BiasOnlyAndReluOnly) {
  Rng rng(23);
  const std::size_t m = 70, n = 90, k = 120;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  const auto bias = random_matrix(m, 1, rng);

  std::vector<float> plain(m * n, 0.0F);
  sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0F, a, k, b, n, 0.0F, plain, n);

  std::vector<float> bias_only(m * n, 0.0F);
  sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0F, a, k, b, n, 0.0F, bias_only,
        n, Epilogue{.bias = bias.data(), .relu = false});
  std::vector<float> relu_only(m * n, 0.0F);
  sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0F, a, k, b, n, 0.0F, relu_only,
        n, Epilogue{.bias = nullptr, .relu = true});

  auto expected_bias = plain;
  reference_epilogue(expected_bias, m, n, bias.data(), false);
  auto expected_relu = plain;
  reference_epilogue(expected_relu, m, n, nullptr, true);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(bias_only[i], expected_bias[i]) << "at " << i;
    EXPECT_EQ(relu_only[i], expected_relu[i]) << "at " << i;
  }
}

TEST(GemmEpilogue, InactiveEpilogueIsPlainGemm) {
  Rng rng(29);
  const std::size_t m = 40, n = 40, k = 40;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c1(m * n, 0.0F);
  std::vector<float> c2(m * n, 0.0F);
  sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0F, a, k, b, n, 0.0F, c1, n);
  sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0F, a, k, b, n, 0.0F, c2, n,
        Epilogue{});
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_EQ(c1[i], c2[i]);
}

// The partition (blas/blocked.hpp) splits a GEMM with fewer row blocks
// than pool workers over runs of column tiles, and over row blocks
// otherwise. Inside a pool task every dispatch runs inline, so the same
// call there is the one-thread M-split reference: both must agree bit
// for bit on either side of every boundary — M around MC = 120 and the
// four-worker split at 3 x MC, N over three NC = 2048 windows with a
// ragged last tile, K over two KC = 256 blocks.
class GemmPartition : public ::testing::TestWithParam<std::size_t> {};

template <typename Call>
void in_pool_task(const Call& call) {
  parallel_for_chunks(0, 1, [&](std::size_t, std::size_t) { call(); });
}

TEST_P(GemmPartition, AllCoresMatchOnePoolTaskBitForBit) {
  const std::size_t m = GetParam();
  const std::size_t n = 2 * 2048 + 19;
  const std::size_t k = 260;
  Rng rng(m + 31);
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  const auto bt = random_matrix(n, k, rng);  // op(B) = bt^T
  const auto bias = random_matrix(m, 1, rng);
  const auto c0 = random_matrix(m, n, rng);  // beta = 1 starting point
  const PackedMatrix pa = pack_a(Trans::kNo, m, k, a, k);
  const PackedMatrix pb = pack_b(Trans::kYes, k, n, bt, k);
  const Epilogue fused{.bias = bias.data(), .relu = true};

  // Each variant writes C from the same start on both sides.
  const auto variants = [&](std::vector<float>& c, std::size_t v) {
    c = c0;
    switch (v) {
      case 0:  // staged, plain
        sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0F, a, k, b, n, 0.0F, c, n);
        break;
      case 1:  // packed A, bias + ReLU
        sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0F, a, k, b, n, 0.0F, c, n,
              fused, &pa);
        break;
      case 2:  // transposed B, beta = 1
        sgemm(Trans::kNo, Trans::kYes, m, n, k, 0.5F, a, k, bt, k, 1.0F, c,
              n);
        break;
      default:  // packed transposed B, beta = 1, bias + ReLU
        sgemm(Trans::kNo, Trans::kYes, m, n, k, 0.5F, a, k, bt, k, 1.0F, c,
              n, fused, &pb);
        break;
    }
  };
  for (std::size_t v = 0; v < 4; ++v) {
    std::vector<float> spread;
    std::vector<float> inline_ref;
    variants(spread, v);
    in_pool_task([&] { variants(inline_ref, v); });
    ASSERT_EQ(spread.size(), inline_ref.size());
    EXPECT_EQ(std::memcmp(spread.data(), inline_ref.data(),
                          spread.size() * sizeof(float)),
              0)
        << "variant " << v << " differs in its bits, m = " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(RowsAroundTheBlockEdges, GemmPartition,
                         ::testing::Values(1, 7, 64, 120, 121, 360, 361,
                                           512));

// A small-M GEMM spreads over the pool in one dispatch: 64 rows are one
// row block, so before the column split it ran on the caller alone.
TEST(GemmPartition, SmallMSpreadsOverWorkersInOneDispatch) {
  if (global_pool().size() < 2) {
    GTEST_SKIP() << "one pool worker: nothing to spread over";
  }
  const std::size_t m = 64;
  const std::size_t n = 12544;
  const std::size_t k = 32;
  Rng rng(37);
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c(m * n);
  auto& calls = obs::metrics().counter("core.parallel_for.calls");
  auto& worker = obs::metrics().counter("core.parallel_for.chunks_worker");
  const auto worker_before = worker.value();
  // Whether a worker wakes before the caller claims every chunk is up to
  // the scheduler; over a few calls one does.
  for (int rep = 0; rep < 20 && worker.value() == worker_before; ++rep) {
    const auto calls_before = calls.value();
    sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0F, a, k, b, n, 0.0F, c, n);
    EXPECT_EQ(calls.value() - calls_before, 1);
  }
  EXPECT_GT(worker.value(), worker_before);
}

}  // namespace
}  // namespace gpucnn::blas
