// Prepacked GEMM (blas/packed.hpp): sgemm / igemm handed a pack must be
// bit-identical to the same calls staging their operands — same
// micro-kernels, same panel bytes, same write-back order — including the
// fused epilogues, the naive small-problem fallback, and the stale-pack
// (SIMD switch) fallback.
#include "blas/packed.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/cpu_features.hpp"
#include "core/rng.hpp"
#include "obs/metrics.hpp"
#include "simd_guard.hpp"

namespace gpucnn::blas {
namespace {

std::vector<float> random_matrix(std::size_t rows, std::size_t cols,
                                 Rng& rng) {
  std::vector<float> m(rows * cols);
  for (auto& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

struct PrepackCase {
  std::size_t m, n, k;
  Trans ta, tb;
  bool epilogue;
};

// Shapes pinned to hit every driver path: the naive small fallback
// (8*12*16), one k block (96*130*80), a multi-k-block reduction
// (150*96*300, k > KC), an m crossing MC (250*96*128) and an n crossing
// NC (70*2100*64) so the jc-window slice of the pack is exercised.
const PrepackCase kCases[] = {
    {8, 12, 16, Trans::kNo, Trans::kNo, false},
    {8, 12, 16, Trans::kNo, Trans::kNo, true},
    {96, 130, 80, Trans::kNo, Trans::kNo, false},
    {96, 130, 80, Trans::kNo, Trans::kNo, true},
    {96, 130, 80, Trans::kYes, Trans::kNo, false},
    {96, 130, 80, Trans::kNo, Trans::kYes, true},
    {150, 96, 300, Trans::kNo, Trans::kNo, true},
    {150, 96, 300, Trans::kYes, Trans::kYes, false},
    {250, 96, 128, Trans::kNo, Trans::kNo, true},
    {70, 2100, 64, Trans::kNo, Trans::kNo, false},
    {5, 97, 601, Trans::kNo, Trans::kNo, true},
};

void expect_bitwise_equal(const std::vector<float>& expected,
                          const std::vector<float>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << "element " << i;
  }
}

void run_fp32_case(const PrepackCase& pc) {
  Rng rng(pc.m * 7919 + pc.n * 131 + pc.k);
  const auto a = pc.ta == Trans::kNo ? random_matrix(pc.m, pc.k, rng)
                                     : random_matrix(pc.k, pc.m, rng);
  const auto b = pc.tb == Trans::kNo ? random_matrix(pc.k, pc.n, rng)
                                     : random_matrix(pc.n, pc.k, rng);
  const std::size_t lda = pc.ta == Trans::kNo ? pc.k : pc.m;
  const std::size_t ldb = pc.tb == Trans::kNo ? pc.n : pc.k;
  std::vector<float> bias(pc.m);
  for (auto& v : bias) v = static_cast<float>(rng.uniform(-0.5, 0.5));
  const Epilogue ep = pc.epilogue ? Epilogue{bias.data(), true}
                                  : Epilogue{};

  std::vector<float> c_staged(pc.m * pc.n, 0.0F);
  std::vector<float> c_pa(pc.m * pc.n, 0.0F);
  std::vector<float> c_pb(pc.m * pc.n, 0.0F);
  sgemm(pc.ta, pc.tb, pc.m, pc.n, pc.k, 1.0F, a, lda, b, ldb, 0.0F,
        c_staged, pc.n, ep);

  const PackedMatrix packed_a_mat = pack_a(pc.ta, pc.m, pc.k, a, lda);
  sgemm(pc.ta, pc.tb, pc.m, pc.n, pc.k, 1.0F, a, lda, b, ldb, 0.0F, c_pa,
        pc.n, ep, &packed_a_mat);
  expect_bitwise_equal(c_staged, c_pa);

  const PackedMatrix packed_b_mat = pack_b(pc.tb, pc.k, pc.n, b, ldb);
  sgemm(pc.ta, pc.tb, pc.m, pc.n, pc.k, 1.0F, a, lda, b, ldb, 0.0F, c_pb,
        pc.n, ep, &packed_b_mat);
  expect_bitwise_equal(c_staged, c_pb);
}

class PrepackAgreement : public ::testing::TestWithParam<PrepackCase> {};

TEST_P(PrepackAgreement, BitIdenticalToStaged) { run_fp32_case(GetParam()); }

TEST_P(PrepackAgreement, BitIdenticalToStagedPortable) {
  const SimdGuard guard(simd::Level::kPortable);
  run_fp32_case(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Shapes, PrepackAgreement,
                         ::testing::ValuesIn(kCases));

TEST(Prepack, AlphaBetaMatchStaged) {
  Rng rng(42);
  const std::size_t m = 96;
  const std::size_t n = 80;
  const std::size_t k = 70;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c_staged(m * n);
  std::vector<float> c_pre(m * n);
  for (std::size_t i = 0; i < m * n; ++i) {
    c_staged[i] = c_pre[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.3F, a, k, b, n, 0.7F, c_staged,
        n);
  const PackedMatrix pa = pack_a(Trans::kNo, m, k, a, k);
  sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.3F, a, k, b, n, 0.7F, c_pre, n,
        {}, &pa);
  expect_bitwise_equal(c_staged, c_pre);
}

TEST(Prepack, StalePackFallsBackBitIdentically) {
  if (!simd::cpu_has_avx2()) GTEST_SKIP() << "needs AVX2 to switch levels";
  Rng rng(7);
  const std::size_t m = 96;
  const std::size_t n = 130;
  const std::size_t k = 80;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);

  PackedMatrix pa;
  {
    const SimdGuard avx2(simd::Level::kAvx2);
    pa = pack_a(Trans::kNo, m, k, a, k);
    EXPECT_TRUE(pa.valid());
  }
  const SimdGuard portable(simd::Level::kPortable);
  EXPECT_TRUE(pa.packed());
  EXPECT_FALSE(pa.valid());  // packed for 6x16, 8x8 kernels now dispatch

  std::vector<float> c_staged(m * n, 0.0F);
  std::vector<float> c_pre(m * n, 0.0F);
  sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0F, a, k, b, n, 0.0F, c_staged,
        n);
  sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0F, a, k, b, n, 0.0F, c_pre, n,
        {}, &pa);
  expect_bitwise_equal(c_staged, c_pre);
}

TEST(Prepack, HitsCountedAndWeightRepackingEliminated) {
  auto& m_reg = obs::metrics();
  auto& hits = m_reg.counter("blas.sgemm.prepack_hits");
  auto& bytes_a = m_reg.counter("blas.sgemm.bytes_packed_a");
  auto& bytes_b = m_reg.counter("blas.sgemm.bytes_packed_b");

  Rng rng(11);
  const std::size_t m = 96;
  const std::size_t n = 130;
  const std::size_t k = 80;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c(m * n, 0.0F);
  const PackedMatrix pa = pack_a(Trans::kNo, m, k, a, k);

  const auto hits0 = hits.value();
  const auto a0 = bytes_a.value();
  const auto b0 = bytes_b.value();
  sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0F, a, k, b, n, 0.0F, c, n, {},
        &pa);
  EXPECT_EQ(hits.value(), hits0 + 1);
  // The A (weight) operand came from the cache: zero A-packing traffic;
  // the B operand still packs per call.
  EXPECT_EQ(bytes_a.value(), a0);
  EXPECT_GT(bytes_b.value(), b0);
}

std::vector<std::int8_t> random_weights(std::size_t count, Rng& rng) {
  std::vector<std::int8_t> w(count);
  for (auto& v : w) {
    v = static_cast<std::int8_t>(rng.uniform(-63.0, 63.0));
  }
  return w;
}

std::vector<std::uint8_t> random_acts(std::size_t count, Rng& rng) {
  std::vector<std::uint8_t> u(count);
  for (auto& v : u) {
    v = static_cast<std::uint8_t>(rng.uniform(0.0, 255.0));
  }
  return u;
}

struct IgemmCase {
  std::size_t m, n, k;
};

// Naive fallback (4*8*16), one k block, a ragged-edge shape and a
// multi-k-block reduction (k > 1536).
const IgemmCase kIgemmCases[] = {
    {4, 8, 16}, {32, 64, 128}, {33, 130, 100}, {16, 64, 2000}};

class IgemmPrepackAgreement : public ::testing::TestWithParam<IgemmCase> {};

void run_igemm_case(const IgemmCase& ic) {
  Rng rng(ic.m * 31 + ic.n * 17 + ic.k);
  const auto a = random_weights(ic.m * ic.k, rng);
  const auto b = random_acts(ic.k * ic.n, rng);
  const PackedMatrixI8 pa = pack_a_i8(ic.m, ic.k, a, ic.k);

  std::vector<std::int32_t> c_staged(ic.m * ic.n, -1);
  std::vector<std::int32_t> c_pre(ic.m * ic.n, -2);
  igemm_s32(ic.m, ic.n, ic.k, a, ic.k, b, ic.n, c_staged, ic.n);
  igemm_s32(ic.m, ic.n, ic.k, a, ic.k, b, ic.n, c_pre, ic.n, &pa);
  for (std::size_t i = 0; i < c_staged.size(); ++i) {
    ASSERT_EQ(c_staged[i], c_pre[i]) << "s32 element " << i;
  }

  std::vector<float> scales(ic.m);
  std::vector<std::int32_t> offsets(ic.m);
  std::vector<float> bias(ic.m);
  for (std::size_t i = 0; i < ic.m; ++i) {
    scales[i] = 0.001F + 0.0001F * static_cast<float>(i);
    offsets[i] = static_cast<std::int32_t>(i * 13);
    bias[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  QEpilogue ep;
  ep.scales = scales.data();
  ep.row_offsets = offsets.data();
  ep.bias = bias.data();
  ep.relu = true;

  std::vector<float> f_staged(ic.m * ic.n, -1.0F);
  std::vector<float> f_pre(ic.m * ic.n, -2.0F);
  igemm(ic.m, ic.n, ic.k, a, ic.k, b, ic.n, ep, f_staged, ic.n);
  igemm(ic.m, ic.n, ic.k, a, ic.k, b, ic.n, ep, f_pre, ic.n, &pa);
  for (std::size_t i = 0; i < f_staged.size(); ++i) {
    ASSERT_EQ(f_staged[i], f_pre[i]) << "f32 element " << i;
  }

  ep.out = QEpilogue::Out::kU8;
  ep.out_scale = 0.05F;
  ep.out_zero_point = 3;
  std::vector<std::uint8_t> u_staged(ic.m * ic.n, 1);
  std::vector<std::uint8_t> u_pre(ic.m * ic.n, 2);
  igemm(ic.m, ic.n, ic.k, a, ic.k, b, ic.n, ep, u_staged, ic.n);
  igemm(ic.m, ic.n, ic.k, a, ic.k, b, ic.n, ep, u_pre, ic.n, &pa);
  for (std::size_t i = 0; i < u_staged.size(); ++i) {
    ASSERT_EQ(u_staged[i], u_pre[i]) << "u8 element " << i;
  }
}

TEST_P(IgemmPrepackAgreement, BitExactAgainstStaged) {
  run_igemm_case(GetParam());
}

TEST_P(IgemmPrepackAgreement, BitExactAgainstStagedPortable) {
  const SimdGuard guard(simd::Level::kPortable);
  run_igemm_case(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Shapes, IgemmPrepackAgreement,
                         ::testing::ValuesIn(kIgemmCases));

TEST(IgemmPrepack, StalePackFallsBackExactly) {
  if (!simd::cpu_has_avx2()) GTEST_SKIP() << "needs AVX2 to switch levels";
  Rng rng(5);
  const std::size_t m = 32;
  const std::size_t n = 64;
  const std::size_t k = 128;
  const auto a = random_weights(m * k, rng);
  const auto b = random_acts(k * n, rng);
  PackedMatrixI8 pa;
  {
    const SimdGuard avx2(simd::Level::kAvx2);
    pa = pack_a_i8(m, k, a, k);
    EXPECT_TRUE(pa.valid());
  }
  const SimdGuard portable(simd::Level::kPortable);
  EXPECT_FALSE(pa.valid());
  std::vector<std::int32_t> c_staged(m * n);
  std::vector<std::int32_t> c_pre(m * n);
  igemm_s32(m, n, k, a, k, b, n, c_staged, n);
  igemm_s32(m, n, k, a, k, b, n, c_pre, n, &pa);
  EXPECT_EQ(c_staged, c_pre);
}

TEST(IgemmPrepack, HitsCountedAndWeightRepackingEliminated) {
  auto& m_reg = obs::metrics();
  auto& hits = m_reg.counter("blas.igemm.prepack_hits");
  auto& bytes_a = m_reg.counter("blas.igemm.bytes_packed_a");
  auto& bytes_b = m_reg.counter("blas.igemm.bytes_packed_b");

  Rng rng(13);
  const std::size_t m = 64;
  const std::size_t n = 96;
  const std::size_t k = 128;
  const auto a = random_weights(m * k, rng);
  const auto b = random_acts(k * n, rng);
  std::vector<std::int32_t> c(m * n);
  const PackedMatrixI8 pa = pack_a_i8(m, k, a, k);

  const auto hits0 = hits.value();
  const auto a0 = bytes_a.value();
  const auto b0 = bytes_b.value();
  igemm_s32(m, n, k, a, k, b, n, c, n, &pa);
  EXPECT_EQ(hits.value(), hits0 + 1);
  // The A (weight) operand came from the cache: zero A-packing traffic;
  // the B (activation) operand still packs per call.
  EXPECT_EQ(bytes_a.value(), a0);
  EXPECT_GT(bytes_b.value(), b0);
}

}  // namespace
}  // namespace gpucnn::blas
