// The rebuilt Winograd engine's contracts, beyond the direct-agreement
// suite in test_winograd.cpp: the scalar transform identities the
// scattered-GEMM formulation is built on, bit-identity of the fused
// epilogue, the prepacked-panel lifecycle, F(2x2,3x3)-vs-F(4x4,3x3)
// agreement on all three passes, the fallback counter, and bit-identity
// across SIMD levels.
#include "conv/winograd_conv.hpp"

#include <array>
#include <vector>

#include <gtest/gtest.h>

#include "conv/direct_conv.hpp"
#include "core/cpu_features.hpp"
#include "core/rng.hpp"
#include "obs/metrics.hpp"
#include "simd_guard.hpp"

namespace gpucnn::conv {
namespace {

constexpr std::array<WinogradTile, 2> kTiles{WinogradTile::kF2,
                                             WinogradTile::kF4};

std::size_t alpha_of(WinogradTile tile) {
  return tile == WinogradTile::kF2 ? 4U : 6U;
}

const char* label_of(WinogradTile tile) {
  return tile == WinogradTile::kF2 ? "F(2x2,3x3)" : "F(4x4,3x3)";
}

// --- Transform identities -------------------------------------------------

TEST(WinogradTransforms, RoundTripEqualsDirectTileConvolution) {
  // The algorithm's defining identity, per tile:
  //   A^T [(G g G^T) .* (B^T d B)] A  ==  conv_valid(d, g)
  // Checked against the direct engine on a single alpha x alpha image.
  for (const WinogradTile tile : kTiles) {
    const std::size_t alpha = alpha_of(tile);
    const std::size_t m = alpha - 2;
    const ConvConfig cfg{.batch = 1, .input = alpha, .channels = 1,
                         .filters = 1, .kernel = 3, .stride = 1};
    Rng rng(31);
    Tensor d(cfg.input_shape());
    d.fill_uniform(rng);
    Tensor g(cfg.filter_shape());
    g.fill_uniform(rng);

    std::vector<float> v(alpha * alpha);
    std::vector<float> u(alpha * alpha);
    std::vector<float> prod(alpha * alpha);
    std::vector<float> y(m * m);
    wino_detail::transform_data(tile, d.data().data(), v.data());
    wino_detail::transform_filter(tile, g.data().data(), u.data());
    for (std::size_t i = 0; i < prod.size(); ++i) prod[i] = u[i] * v[i];
    wino_detail::transform_output(tile, prod.data(), y.data());

    Tensor want(cfg.output_shape());
    DirectConv{}.forward(cfg, d, g, want);
    const std::span<const float> ref = want.data();
    double max_diff = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      max_diff =
          std::max(max_diff, static_cast<double>(std::abs(y[i] - ref[i])));
    }
    EXPECT_LT(max_diff, 1e-5) << label_of(tile);
  }
}

TEST(WinogradTransforms, CentreDeltaFilterExtractsTheTileInterior) {
  // conv_valid(d, centre delta) is the interior m x m of the tile, so
  // the three transforms composed around the delta spectrum must act as
  // that restriction — a joint identity on B, G and A.
  for (const WinogradTile tile : kTiles) {
    const std::size_t alpha = alpha_of(tile);
    const std::size_t m = alpha - 2;
    std::array<float, 9> g{};
    g[4] = 1.0F;  // centre tap
    Rng rng(30);
    std::vector<float> d(alpha * alpha);
    for (auto& x : d) x = static_cast<float>(rng.uniform(-1.0, 1.0));

    std::vector<float> u(alpha * alpha);
    std::vector<float> v(alpha * alpha);
    std::vector<float> prod(alpha * alpha);
    std::vector<float> y(m * m);
    wino_detail::transform_filter(tile, g.data(), u.data());
    wino_detail::transform_data(tile, d.data(), v.data());
    for (std::size_t i = 0; i < prod.size(); ++i) prod[i] = u[i] * v[i];
    wino_detail::transform_output(tile, prod.data(), y.data());
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < m; ++c) {
        EXPECT_NEAR(y[r * m + c], d[(r + 1) * alpha + (c + 1)], 1e-5)
            << label_of(tile) << " at (" << r << "," << c << ")";
      }
    }
  }
}

TEST(WinogradTransforms, TransformsAreLinear) {
  // Each transform is a fixed linear map; scattering tiles into SoA
  // planes and batching GEMMs over them relies on exactly this.
  for (const WinogradTile tile : kTiles) {
    const std::size_t alpha = alpha_of(tile);
    Rng rng(32);
    std::vector<float> a(alpha * alpha);
    std::vector<float> b(alpha * alpha);
    for (auto& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> sum(alpha * alpha);
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] = a[i] + b[i];

    std::vector<float> va(alpha * alpha);
    std::vector<float> vb(alpha * alpha);
    std::vector<float> vsum(alpha * alpha);
    wino_detail::transform_data(tile, a.data(), va.data());
    wino_detail::transform_data(tile, b.data(), vb.data());
    wino_detail::transform_data(tile, sum.data(), vsum.data());
    for (std::size_t i = 0; i < vsum.size(); ++i) {
      EXPECT_NEAR(vsum[i], va[i] + vb[i], 1e-5) << label_of(tile);
    }
  }
}

// --- Fused epilogue -------------------------------------------------------

TEST(WinogradFused, BiasReluMatchesUnfusedBitForBit) {
  // The epilogue rides the inverse transform's write-back: add-then-max
  // in the same float order as the separate passes, so the comparison
  // demands exact equality, not tolerance.
  const ConvConfig cfg{.batch = 2, .input = 11, .channels = 3, .filters = 4,
                       .kernel = 3, .stride = 1, .pad = 1};
  Rng rng(33);
  Tensor in(cfg.input_shape());
  in.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  std::vector<float> bias(cfg.filters);
  for (auto& b : bias) b = static_cast<float>(rng.uniform(-0.5, 0.5));

  for (const WinogradTile tile : kTiles) {
    const WinogradConv engine(tile);
    Tensor unfused(cfg.output_shape());
    engine.forward(cfg, in, w, unfused);
    const std::size_t plane = cfg.output() * cfg.output();
    const std::span<float> data = unfused.data();
    for (std::size_t n = 0; n < cfg.batch; ++n) {
      for (std::size_t f = 0; f < cfg.filters; ++f) {
        const std::span<float> p =
            data.subspan((n * cfg.filters + f) * plane, plane);
        for (std::size_t i = 0; i < plane; ++i) {
          p[i] = std::max(0.0F, p[i] + bias[f]);
        }
      }
    }
    Tensor fused(cfg.output_shape());
    ASSERT_NO_THROW(
        engine.forward(cfg, in, w, fused, {.bias = bias, .relu = true}))
        << label_of(tile);
    EXPECT_EQ(max_abs_diff(unfused, fused), 0.0) << label_of(tile);
  }
}

// --- Prepacked panels -----------------------------------------------------

TEST(WinogradPrepack, PackBuildsOnePanelPerTilePosition) {
  const ConvConfig cfg{.batch = 1, .input = 12, .channels = 5, .filters = 6,
                       .kernel = 3, .stride = 1, .pad = 1};
  Rng rng(34);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);

  for (const WinogradTile tile : kTiles) {
    const WinogradConv engine(tile);
    const auto packed = engine.prepack(cfg, w);
    ASSERT_NE(packed, nullptr) << label_of(tile);
    EXPECT_EQ(packed->format, engine.name());
    EXPECT_EQ(packed->source, w.data().data());
    const std::size_t positions = winograd_positions(tile);
    EXPECT_EQ(packed->panels.size(), positions) << label_of(tile);
    EXPECT_EQ(packed->transformed.size(),
              positions * cfg.filters * cfg.channels)
        << label_of(tile);
    // The pack accounts for the transformed values it owns.
    std::size_t panels_only = 0;
    for (const auto& p : packed->panels) panels_only += p.bytes();
    EXPECT_GT(packed->bytes(), panels_only) << label_of(tile);
  }
}

TEST(WinogradPrepack, IneligibleConfigsGetNoWinogradSections) {
  const ConvConfig cfg{.batch = 1, .input = 12, .channels = 2, .filters = 2,
                       .kernel = 5, .stride = 1, .pad = 2};
  Rng rng(35);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  for (const WinogradTile tile : kTiles) {
    EXPECT_EQ(WinogradConv(tile).prepack(cfg, w), nullptr) << label_of(tile);
  }
}

TEST(WinogradPrepack, PrepackedForwardIsBitIdenticalToStaged) {
  const ConvConfig cfg{.batch = 2, .input = 14, .channels = 4, .filters = 5,
                       .kernel = 3, .stride = 1, .pad = 1};
  Rng rng(36);
  Tensor in(cfg.input_shape());
  in.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  std::vector<float> bias(cfg.filters);
  for (auto& b : bias) b = static_cast<float>(rng.uniform(-0.5, 0.5));

  for (const WinogradTile tile : kTiles) {
    const WinogradConv engine(tile);
    const auto packed = engine.prepack(cfg, w);
    ASSERT_NE(packed, nullptr) << label_of(tile);
    for (const bool relu : {false, true}) {
      Tensor staged(cfg.output_shape());
      ASSERT_NO_THROW(
          engine.forward(cfg, in, w, staged, {.bias = bias, .relu = relu}));
      Tensor prepacked(cfg.output_shape());
      ASSERT_NO_THROW(engine.forward(
          cfg, in, w, prepacked,
          {.bias = bias, .relu = relu, .packed = packed.get()}))
          << label_of(tile);
      EXPECT_EQ(max_abs_diff(staged, prepacked), 0.0)
          << label_of(tile) << " relu=" << relu;
    }
  }
}

TEST(WinogradPrepack, PackWithoutPanelsFallsBackAndCounts) {
  const ConvConfig cfg{.batch = 1, .input = 8, .channels = 2, .filters = 2,
                       .kernel = 3, .stride = 1, .pad = 1};
  Rng rng(37);
  Tensor in(cfg.input_shape());
  in.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  Tensor out(cfg.output_shape());

  Tensor staged(cfg.output_shape());
  WinogradConv{}.forward(cfg, in, w, staged);

  const auto& fallbacks =
      obs::metrics().counter("conv.winograd.fallbacks");
  const std::int64_t before = fallbacks.value();
  // Packs in another engine's format: GEMM panels, and the other tile
  // size's panels. Each runs the staged path, bit-identically, and
  // counts one fallback.
  const auto gemm_pack = strategy_engine(Strategy::kUnrolling).prepack(cfg, w);
  const auto f4_pack = WinogradConv(WinogradTile::kF4).prepack(cfg, w);
  ASSERT_NE(gemm_pack, nullptr);
  ASSERT_NE(f4_pack, nullptr);
  WinogradConv{}.forward(cfg, in, w, out, {.packed = gemm_pack.get()});
  EXPECT_EQ(max_abs_diff(out, staged), 0.0);
  EXPECT_EQ(fallbacks.value(), before + 1);
  WinogradConv{}.forward(cfg, in, w, out, {.packed = f4_pack.get()});
  EXPECT_EQ(max_abs_diff(out, staged), 0.0);
  EXPECT_EQ(fallbacks.value(), before + 2);
}

// --- Tile-size agreement --------------------------------------------------

TEST(WinogradTileAgreement, F2AndF4AgreeOnAllThreePasses) {
  // Same contract as the fuzzer's cross-check: both tile sizes are the
  // same convolution, differing only in rounding.
  const ConvConfig cfg{.batch = 2, .input = 13, .channels = 5, .filters = 4,
                       .kernel = 3, .stride = 1, .pad = 1};
  const WinogradConv f2(WinogradTile::kF2);
  const WinogradConv f4(WinogradTile::kF4);
  Rng rng(38);
  Tensor in(cfg.input_shape());
  in.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  Tensor gout(cfg.output_shape());
  gout.fill_uniform(rng);

  Tensor fwd2(cfg.output_shape());
  Tensor fwd4(cfg.output_shape());
  f2.forward(cfg, in, w, fwd2);
  f4.forward(cfg, in, w, fwd4);
  EXPECT_LT(max_abs_diff(fwd2, fwd4),
            1e-4 * (1.0 + static_cast<double>(cfg.channels)));

  Tensor gin2(cfg.input_shape());
  Tensor gin4(cfg.input_shape());
  f2.backward_data(cfg, gout, w, gin2);
  f4.backward_data(cfg, gout, w, gin4);
  EXPECT_LT(max_abs_diff(gin2, gin4),
            1e-4 * (1.0 + static_cast<double>(cfg.filters)));

  Tensor gw2(cfg.filter_shape());
  Tensor gw4(cfg.filter_shape());
  f2.backward_filter(cfg, in, gout, gw2);
  f4.backward_filter(cfg, in, gout, gw4);
  const double tol = 1e-4 * (1.0 + 0.05 * static_cast<double>(cfg.batch) *
                                       static_cast<double>(cfg.output()));
  EXPECT_LT(max_abs_diff(gw2, gw4), tol);
}

TEST(WinogradTileAgreement, EngineVariantsAreDistinct) {
  EXPECT_EQ(WinogradConv{}.name(), "winograd");
  EXPECT_EQ(WinogradConv{WinogradTile::kF4}.name(), "winograd-f4");
  EXPECT_EQ(winograd_positions(WinogradTile::kF2), 16U);
  EXPECT_EQ(winograd_positions(WinogradTile::kF4), 36U);
  // Both own the same shape family.
  const ConvConfig eligible{.batch = 1, .input = 8, .channels = 1,
                            .filters = 1, .kernel = 3, .stride = 1,
                            .pad = 2};
  EXPECT_TRUE(WinogradConv{WinogradTile::kF4}.supports(eligible));
  EXPECT_FALSE(WinogradConv{WinogradTile::kF4}.supports(
      {.batch = 1, .input = 8, .channels = 2, .filters = 2, .kernel = 3,
       .stride = 1, .pad = 1, .groups = 2}));
}

// --- SIMD levels ----------------------------------------------------------

TEST(WinogradSimd, PortableAndAvx2AreBitIdentical) {
  if (!simd::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  // Every sgemm here stays under the 64^3 small-problem cut-off, which
  // runs the same loop on both levels, so a difference can only come from
  // the transforms. C = 8 and 16 run the 8-lane filter transform, and
  // C = 3 (and 5, as backward-data's channel count) its channel tail.
  struct Case {
    std::size_t batch, input, channels, filters, pad;
  };
  constexpr std::array<Case, 3> kCases{
      {{2, 12, 8, 8, 1}, {1, 9, 16, 5, 0}, {3, 7, 3, 8, 2}}};
  const SimdGuard restore(simd::active());
  for (const WinogradTile tile : kTiles) {
    const WinogradConv engine(tile);
    for (const Case& c : kCases) {
      const ConvConfig cfg{.batch = c.batch, .input = c.input,
                           .channels = c.channels, .filters = c.filters,
                           .kernel = 3, .stride = 1, .pad = c.pad};
      Rng rng(39);
      Tensor in(cfg.input_shape());
      in.fill_uniform(rng);
      Tensor w(cfg.filter_shape());
      w.fill_uniform(rng);
      Tensor gout(cfg.output_shape());
      gout.fill_uniform(rng);
      std::vector<float> bias(cfg.filters);
      for (auto& b : bias) b = static_cast<float>(rng.uniform(-0.5, 0.5));

      // Forward plain, with bias + ReLU, and from a pack built at the same
      // level; backward-data; backward-filter.
      std::array<std::vector<Tensor>, 2> outputs;
      for (const simd::Level level :
           {simd::Level::kPortable, simd::Level::kAvx2}) {
        ASSERT_EQ(simd::set_active_for_testing(level), level);
        std::vector<Tensor>& out =
            outputs[level == simd::Level::kAvx2 ? 1 : 0];
        out = {Tensor(cfg.output_shape()), Tensor(cfg.output_shape()),
               Tensor(cfg.output_shape()), Tensor(cfg.input_shape()),
               Tensor(cfg.filter_shape())};
        engine.forward(cfg, in, w, out[0]);
        engine.forward(cfg, in, w, out[1], {.bias = bias, .relu = true});
        const auto packed = engine.prepack(cfg, w);
        ASSERT_NE(packed, nullptr);
        engine.forward(cfg, in, w, out[2],
                       {.bias = bias, .relu = true, .packed = packed.get()});
        engine.backward_data(cfg, gout, w, out[3]);
        engine.backward_filter(cfg, in, gout, out[4]);
      }
      for (std::size_t i = 0; i < outputs[0].size(); ++i) {
        EXPECT_EQ(max_abs_diff(outputs[0][i], outputs[1][i]), 0.0)
            << label_of(tile) << " C=" << c.channels << " output " << i;
      }
    }
  }
}

TEST(WinogradSimd, StaleOwnPackStagesItsTransformedFilters) {
  if (!simd::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  // Every tile position's 64 x patches x 64 sgemm reaches the blocked
  // path, where a fresh pack would stand in for the staged panels. A pack
  // built at AVX2 is stale at portable: sgemm stages the pack's own U
  // instead, bit-identically to the portable staged forward.
  const ConvConfig cfg{.batch = 1, .input = 32, .channels = 64,
                       .filters = 64, .kernel = 3, .stride = 1, .pad = 1};
  Rng rng(40);
  Tensor in(cfg.input_shape());
  in.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  std::vector<float> bias(cfg.filters);
  for (auto& b : bias) b = static_cast<float>(rng.uniform(-0.5, 0.5));
  const auto& fallbacks = obs::metrics().counter("conv.winograd.fallbacks");
  const SimdGuard restore(simd::active());
  for (const WinogradTile tile : kTiles) {
    const WinogradConv engine(tile);
    ASSERT_EQ(simd::set_active_for_testing(simd::Level::kAvx2),
              simd::Level::kAvx2);
    const auto packed = engine.prepack(cfg, w);
    ASSERT_NE(packed, nullptr);
    ASSERT_TRUE(packed->fresh());
    ASSERT_EQ(simd::set_active_for_testing(simd::Level::kPortable),
              simd::Level::kPortable);
    ASSERT_FALSE(packed->fresh());

    Tensor staged(cfg.output_shape());
    engine.forward(cfg, in, w, staged, {.bias = bias, .relu = true});
    const std::int64_t before = fallbacks.value();
    Tensor stale(cfg.output_shape());
    engine.forward(cfg, in, w, stale,
                   {.bias = bias, .relu = true, .packed = packed.get()});
    EXPECT_EQ(fallbacks.value(), before + 1) << label_of(tile);
    EXPECT_EQ(max_abs_diff(staged, stale), 0.0) << label_of(tile);
  }
}

}  // namespace
}  // namespace gpucnn::conv
