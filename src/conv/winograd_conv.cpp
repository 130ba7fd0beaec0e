#include "conv/winograd_conv.hpp"

#include <algorithm>
#include <cstring>

#include "blas/gemm.hpp"
#include "core/cpu_features.hpp"
#include "core/thread_pool.hpp"
#include "core/workspace.hpp"
#include "obs/metrics.hpp"

namespace gpucnn::conv {
namespace {

obs::Counter& fallback_counter() {
  static obs::Counter& c = obs::metrics().counter("conv.winograd.fallbacks");
  return c;
}

// ---------------------------------------------------------------------------
// Transforms. Each is Y = M X M^T for one constant matrix M (kOut x kIn):
// a struct, specialised per tile size, writes M's 1-D pass once over a
// value type T, and apply() runs that pass down the columns and then
// along the rows. T = float transforms one tile; T = Lanes8 transforms 8
// tiles held SoA, one tile per lane. Every instantiation performs the
// same IEEE operations in the written order, so all of them, on every
// SIMD level, round identically.
// ---------------------------------------------------------------------------

using Lanes8 = float __attribute__((vector_size(32)));

template <WinogradTile>
struct DataTf;  ///< V = B^T d B
template <WinogradTile>
struct FilterTf;  ///< U = G g G^T
template <WinogradTile>
struct OutputTf;  ///< Y = A^T m A
template <WinogradTile>
struct GradOutputTf;  ///< dM = A dY A^T, the output transform's adjoint
template <WinogradTile>
struct GradFilterTf;  ///< dg = G^T dU G, the filter transform's adjoint

// F(2x2,3x3): B^T = [1 0 -1 0; 0 1 1 0; 0 -1 1 0; 0 1 0 -1]
template <>
struct DataTf<WinogradTile::kF2> {
  static constexpr int kIn = 4;
  static constexpr int kOut = 4;
  template <typename T>
  static void pass(const T* a, T* y) {
    y[0] = a[0] - a[2];
    y[1] = a[1] + a[2];
    y[2] = a[2] - a[1];
    y[3] = a[1] - a[3];
  }
};

// F(4x4,3x3): B^T = [4 0 -5 0 1 0; 0 -4 -4 1 1 0; 0 4 -4 -1 1 0;
//                    0 -2 -1 2 1 0; 0 2 -1 -2 1 0; 0 4 0 -5 0 1]
template <>
struct DataTf<WinogradTile::kF4> {
  static constexpr int kIn = 6;
  static constexpr int kOut = 6;
  template <typename T>
  static void pass(const T* a, T* y) {
    y[0] = (4.0F * a[0] - 5.0F * a[2]) + a[4];
    y[1] = (a[3] + a[4]) - 4.0F * (a[1] + a[2]);
    y[2] = 4.0F * (a[1] - a[2]) + (a[4] - a[3]);
    y[3] = 2.0F * (a[3] - a[1]) + (a[4] - a[2]);
    y[4] = 2.0F * (a[1] - a[3]) + (a[4] - a[2]);
    y[5] = (4.0F * a[1] - 5.0F * a[3]) + a[5];
  }
};

// F(2x2,3x3): G = [1 0 0; .5 .5 .5; .5 -.5 .5; 0 0 1]
template <>
struct FilterTf<WinogradTile::kF2> {
  static constexpr int kIn = 3;
  static constexpr int kOut = 4;
  template <typename T>
  static void pass(const T* g, T* y) {
    y[0] = g[0];
    y[1] = 0.5F * ((g[0] + g[1]) + g[2]);
    y[2] = 0.5F * ((g[0] - g[1]) + g[2]);
    y[3] = g[2];
  }
};

// F(4x4,3x3): G = [1/4 0 0; -1/6 -1/6 -1/6; -1/6 1/6 -1/6;
//                  1/24 1/12 1/6; 1/24 -1/12 1/6; 0 0 1]
constexpr float kN6 = -1.0F / 6.0F;
constexpr float kP6 = 1.0F / 6.0F;
constexpr float kP12 = 1.0F / 12.0F;
constexpr float kP24 = 1.0F / 24.0F;

template <>
struct FilterTf<WinogradTile::kF4> {
  static constexpr int kIn = 3;
  static constexpr int kOut = 6;
  template <typename T>
  static void pass(const T* g, T* y) {
    y[0] = 0.25F * g[0];
    y[1] = kN6 * ((g[0] + g[1]) + g[2]);
    y[2] = kP6 * ((g[1] - g[0]) - g[2]);
    y[3] = (kP24 * g[0] + kP12 * g[1]) + kP6 * g[2];
    y[4] = (kP24 * g[0] - kP12 * g[1]) + kP6 * g[2];
    y[5] = g[2];
  }
};

// F(2x2,3x3): A^T = [1 1 1 0; 0 1 -1 -1]
template <>
struct OutputTf<WinogradTile::kF2> {
  static constexpr int kIn = 4;
  static constexpr int kOut = 2;
  template <typename T>
  static void pass(const T* m, T* y) {
    y[0] = (m[0] + m[1]) + m[2];
    y[1] = (m[1] - m[2]) - m[3];
  }
};

// F(4x4,3x3): A^T = [1 1 1 1 1 0; 0 1 -1 2 -2 0; 0 1 1 4 4 0;
//                    0 1 -1 8 -8 1]
template <>
struct OutputTf<WinogradTile::kF4> {
  static constexpr int kIn = 6;
  static constexpr int kOut = 4;
  template <typename T>
  static void pass(const T* m, T* y) {
    const T p1 = m[1] + m[2];
    const T p2 = m[3] + m[4];
    const T q1 = m[1] - m[2];
    const T q2 = m[3] - m[4];
    y[0] = (m[0] + p1) + p2;
    y[1] = q1 + 2.0F * q2;
    y[2] = p1 + 4.0F * p2;
    y[3] = (q1 + 8.0F * q2) + m[5];
  }
};

// F(2x2,3x3): A (4x2) rows = (1,0), (1,1), (1,-1), (0,-1).
template <>
struct GradOutputTf<WinogradTile::kF2> {
  static constexpr int kIn = 2;
  static constexpr int kOut = 4;
  template <typename T>
  static void pass(const T* d, T* y) {
    y[0] = d[0];
    y[1] = d[0] + d[1];
    y[2] = d[0] - d[1];
    y[3] = -d[1];
  }
};

// F(4x4,3x3): A (6x4) rows = (1,0,0,0), (1,1,1,1), (1,-1,1,-1),
// (1,2,4,8), (1,-2,4,-8), (0,0,0,1).
template <>
struct GradOutputTf<WinogradTile::kF4> {
  static constexpr int kIn = 4;
  static constexpr int kOut = 6;
  template <typename T>
  static void pass(const T* d, T* y) {
    y[0] = d[0];
    y[1] = (d[0] + d[1]) + (d[2] + d[3]);
    y[2] = (d[0] - d[1]) + (d[2] - d[3]);
    y[3] = (d[0] + 2.0F * d[1]) + (4.0F * d[2] + 8.0F * d[3]);
    y[4] = (d[0] - 2.0F * d[1]) + (4.0F * d[2] - 8.0F * d[3]);
    y[5] = d[3];
  }
};

template <>
struct GradFilterTf<WinogradTile::kF2> {
  static constexpr int kIn = 4;
  static constexpr int kOut = 3;
  template <typename T>
  static void pass(const T* u, T* y) {
    y[0] = u[0] + 0.5F * (u[1] + u[2]);
    y[1] = 0.5F * (u[1] - u[2]);
    y[2] = 0.5F * (u[1] + u[2]) + u[3];
  }
};

template <>
struct GradFilterTf<WinogradTile::kF4> {
  static constexpr int kIn = 6;
  static constexpr int kOut = 3;
  template <typename T>
  static void pass(const T* u, T* y) {
    y[0] = (0.25F * u[0] + kN6 * (u[1] + u[2])) + kP24 * (u[3] + u[4]);
    y[1] = kP6 * (u[2] - u[1]) + kP12 * (u[3] - u[4]);
    y[2] = kP6 * ((u[3] + u[4]) - (u[1] + u[2])) + u[5];
  }
};

/// Y = M X M^T from a kIn x kIn source whose element e starts at
/// src[e * ss] to a kOut x kOut destination whose element e starts at
/// dst[e * ds], one T per element. The full unrolls let every T stay in
/// registers instead of passing through stack arrays.
template <typename T, typename Tf>
void apply(const float* src, std::size_t ss, float* dst, std::size_t ds) {
  constexpr int kIn = Tf::kIn;
  constexpr int kOut = Tf::kOut;
  T t[kOut * kIn];
#pragma GCC unroll 6
  for (int col = 0; col < kIn; ++col) {
    T x[kIn];
    T y[kOut];
#pragma GCC unroll 6
    for (int i = 0; i < kIn; ++i) {
      std::memcpy(&x[i], src + (i * kIn + col) * ss, sizeof(T));
    }
    Tf::pass(x, y);
#pragma GCC unroll 6
    for (int j = 0; j < kOut; ++j) t[j * kIn + col] = y[j];
  }
#pragma GCC unroll 6
  for (int row = 0; row < kOut; ++row) {
    T y[kOut];
    Tf::pass(t + row * kIn, y);
#pragma GCC unroll 6
    for (int j = 0; j < kOut; ++j) {
      std::memcpy(dst + (row * kOut + j) * ds, &y[j], sizeof(T));
    }
  }
}

/// Transform Tf at the engine's tile size.
template <typename T, template <WinogradTile> class Tf>
void apply(WinogradTile tile, const float* src, std::size_t ss, float* dst,
           std::size_t ds) {
  if (tile == WinogradTile::kF2) {
    apply<T, Tf<WinogradTile::kF2>>(src, ss, dst, ds);
  } else {
    apply<T, Tf<WinogradTile::kF4>>(src, ss, dst, ds);
  }
}

#if GPUCNN_X86_SIMD
// AVX2 only, never FMA: GCC contracts C++ float expressions by default
// (-ffp-contract=fast), which would fuse the multiply-adds and break
// bit-identity with the baseline build of the same code. flatten inlines
// apply() and the passes here; a call would run their baseline copies.
template <typename Tf>
[[gnu::flatten]] __attribute__((target("avx2"))) void apply8_avx2(
    const float* src, std::size_t ss, float* dst, std::size_t ds) {
  apply<Lanes8, Tf>(src, ss, dst, ds);
}
#endif

/// Transforms 8 SoA tiles (lane l of element e at src[e * ss + l]) on the
/// active SIMD level — the engine's one dispatch point. The tile size is
/// picked first so each AVX2 function holds one transform.
template <template <WinogradTile> class Tf>
[[gnu::flatten]] void apply8(WinogradTile tile, const float* src,
                             std::size_t ss, float* dst, std::size_t ds) {
#if GPUCNN_X86_SIMD
  if (simd::active() == simd::Level::kAvx2) {
    if (tile == WinogradTile::kF2) {
      apply8_avx2<Tf<WinogradTile::kF2>>(src, ss, dst, ds);
    } else {
      apply8_avx2<Tf<WinogradTile::kF4>>(src, ss, dst, ds);
    }
    return;
  }
#endif
  apply<Lanes8, Tf>(tile, src, ss, dst, ds);
}

// ---------------------------------------------------------------------------
// Scattered-GEMM driver
// ---------------------------------------------------------------------------

struct Geometry {
  std::size_t alpha;      ///< input tile side (4 or 6)
  std::size_t m;          ///< output tile side (2 or 4)
  std::size_t positions;  ///< alpha^2 tile positions = GEMM count
  std::size_t o;          ///< output spatial side
  std::size_t in;         ///< input spatial side
  std::size_t pad;
  std::size_t tiles;      ///< tiles per spatial side
  std::size_t per_image;  ///< tiles^2
  std::size_t patches;    ///< batch * tiles^2 = GEMM n extent
  std::size_t block;      ///< patch-block size (multiple of 8)
  std::size_t channels;
  std::size_t filters;
};

Geometry make_geometry(const ConvConfig& cfg, WinogradTile tile) {
  Geometry g{};
  g.alpha = tile == WinogradTile::kF2 ? 4 : 6;
  g.m = g.alpha - 2;
  g.positions = g.alpha * g.alpha;
  g.o = cfg.output();
  g.in = cfg.input;
  g.pad = cfg.pad;
  g.tiles = (g.o + g.m - 1) / g.m;
  g.per_image = g.tiles * g.tiles;
  g.patches = cfg.batch * g.per_image;
  g.channels = cfg.channels;
  g.filters = cfg.filters;
  // Block the patch dimension so the V and M planes — positions *
  // (C + F) * block floats — stay within a fixed workspace budget.
  // Multiples of 8 keep the SIMD strips inside the block edge.
  constexpr std::size_t kWorkspaceBudget = 8U << 20U;
  std::size_t block =
      kWorkspaceBudget /
      (sizeof(float) * g.positions * (g.channels + g.filters));
  block = std::min(block, (g.patches + 7) / 8 * 8);
  g.block = std::max<std::size_t>(block / 8 * 8, 8);
  return g;
}

/// Scatters one patch block of the input through V = B^T d B into the
/// SoA planes v[t][c][p] (plane stride C * block).
void scatter_data_transform(const Geometry& g, WinogradTile tile,
                            const Tensor& input, std::size_t p0,
                            std::size_t pb, float* v) {
  const std::size_t groups8 = (pb + 7) / 8;
  const std::size_t ts = g.channels * g.block;
  parallel_for(0, g.channels * groups8, [&](std::size_t unit) {
    const std::size_t c = unit / groups8;
    const std::size_t pl = (unit % groups8) * 8;
    alignas(32) float buf[36 * 8];
    std::memset(buf, 0, g.positions * 8 * sizeof(float));
    const std::size_t lanes = std::min<std::size_t>(8, pb - pl);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::size_t p = p0 + pl + lane;
      const std::size_t r = p % g.per_image;
      const float* plane = input.plane(p / g.per_image, c);
      const long iy0 = static_cast<long>(r / g.tiles * g.m) -
                       static_cast<long>(g.pad);
      const long ix0 = static_cast<long>(r % g.tiles * g.m) -
                       static_cast<long>(g.pad);
      const long dy_lo = std::max(0L, -iy0);
      const long dy_hi =
          std::min<long>(static_cast<long>(g.alpha),
                         static_cast<long>(g.in) - iy0);
      const long dx_lo = std::max(0L, -ix0);
      const long dx_hi =
          std::min<long>(static_cast<long>(g.alpha),
                         static_cast<long>(g.in) - ix0);
      for (long dy = dy_lo; dy < dy_hi; ++dy) {
        const float* row = plane + (iy0 + dy) * static_cast<long>(g.in) + ix0;
        for (long dx = dx_lo; dx < dx_hi; ++dx) {
          buf[(static_cast<std::size_t>(dy) * g.alpha +
               static_cast<std::size_t>(dx)) *
                  8 +
              lane] = row[dx];
        }
      }
    }
    apply8<DataTf>(tile, buf, 8, v + c * g.block + pl, ts);
  });
}

/// Transforms every filter through U = G g G^T into u[t][f][c]
/// (plane stride F * C).
void transform_filters(const Geometry& g, WinogradTile tile,
                       const Tensor& filters, float* u) {
  const std::size_t groups8 = (g.channels + 7) / 8;
  const std::size_t ts = g.filters * g.channels;
  parallel_for(0, g.filters * groups8, [&](std::size_t unit) {
    const std::size_t f = unit / groups8;
    const std::size_t c0 = (unit % groups8) * 8;
    const std::size_t lanes = std::min<std::size_t>(8, g.channels - c0);
    alignas(32) float buf[9 * 8];
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const float* gsrc = filters.plane(f, c0 + lane);
      for (std::size_t e = 0; e < 9; ++e) buf[e * 8 + lane] = gsrc[e];
    }
    float* dst = u + f * g.channels + c0;
    if (lanes == 8) {
      apply8<FilterTf>(tile, buf, 8, dst, ts);
      return;
    }
    // A channel tail: 8-lane stores would spill into the next filter's
    // row, so transform the remaining lanes one tile at a time.
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      apply<float, FilterTf>(tile, buf + lane, 8, dst + lane, ts);
    }
  });
}

/// Gathers one patch block of the product planes m[t][f][p] through
/// Y = A^T m A and scatters the (clipped) m x m output tiles, fusing the
/// bias broadcast and ReLU clamp into the write-back. Addition and max
/// round identically here and in the unfused passes, so fused and
/// unfused results are bit-identical.
void gather_output_transform(const Geometry& g, WinogradTile tile,
                             const float* mbuf, std::size_t p0,
                             std::size_t pb, const float* bias, bool relu,
                             Tensor& output) {
  const std::size_t groups8 = (pb + 7) / 8;
  const std::size_t ts = g.filters * g.block;
  parallel_for(0, g.filters * groups8, [&](std::size_t unit) {
    const std::size_t f = unit / groups8;
    const std::size_t pl = (unit % groups8) * 8;
    const float* msrc = mbuf + f * g.block + pl;
    alignas(32) float y[16 * 8];
    apply8<OutputTf>(tile, msrc, ts, y, 8);
    const float b = bias != nullptr ? bias[f] : 0.0F;
    const std::size_t lanes = std::min<std::size_t>(8, pb - pl);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::size_t p = p0 + pl + lane;
      const std::size_t r = p % g.per_image;
      const std::size_t ty = r / g.tiles;
      const std::size_t tx = r % g.tiles;
      float* out_plane = output.plane(p / g.per_image, f);
      for (std::size_t dy = 0; dy < g.m; ++dy) {
        const std::size_t oy = ty * g.m + dy;
        if (oy >= g.o) break;
        for (std::size_t dx = 0; dx < g.m; ++dx) {
          const std::size_t ox = tx * g.m + dx;
          if (ox >= g.o) break;
          float val = y[(dy * g.m + dx) * 8 + lane];
          if (bias != nullptr) val += b;
          if (relu) val = std::max(val, 0.0F);
          out_plane[oy * g.o + ox] = val;
        }
      }
    }
  });
}

/// Scatters one patch block of grad_output through dM = A dY A^T (the
/// output transform's adjoint) into dm[t][f][p]; tile overhang past the
/// output edge contributes zero.
void scatter_grad_transform(const Geometry& g, WinogradTile tile,
                            const Tensor& grad_output, std::size_t p0,
                            std::size_t pb, float* dm) {
  const std::size_t groups8 = (pb + 7) / 8;
  const std::size_t ts = g.filters * g.block;
  parallel_for(0, g.filters * groups8, [&](std::size_t unit) {
    const std::size_t f = unit / groups8;
    const std::size_t pl = (unit % groups8) * 8;
    alignas(32) float buf[16 * 8];
    std::memset(buf, 0, g.m * g.m * 8 * sizeof(float));
    const std::size_t lanes = std::min<std::size_t>(8, pb - pl);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::size_t p = p0 + pl + lane;
      const std::size_t r = p % g.per_image;
      const std::size_t ty = r / g.tiles;
      const std::size_t tx = r % g.tiles;
      const float* plane = grad_output.plane(p / g.per_image, f);
      for (std::size_t dy = 0; dy < g.m; ++dy) {
        const std::size_t oy = ty * g.m + dy;
        if (oy >= g.o) break;
        for (std::size_t dx = 0; dx < g.m; ++dx) {
          const std::size_t ox = tx * g.m + dx;
          if (ox >= g.o) break;
          buf[(dy * g.m + dx) * 8 + lane] = plane[oy * g.o + ox];
        }
      }
    }
    apply8<GradOutputTf>(tile, buf, 8, dm + f * g.block + pl, ts);
  });
}

/// The multiply stage: one (F x C) x (C x pb) sgemm per tile position,
/// from the pack's panels when there is one.
void multiply_stage(const Geometry& g, const float* u,
                    const PackedFilters* packed, const float* v, float* m,
                    std::size_t pb) {
  const std::size_t uplane = g.filters * g.channels;
  const std::size_t vplane = g.channels * g.block;
  const std::size_t mplane = g.filters * g.block;
  for (std::size_t t = 0; t < g.positions; ++t) {
    blas::sgemm(blas::Trans::kNo, blas::Trans::kNo, g.filters, pb,
                g.channels, 1.0F, {u + t * uplane, uplane}, g.channels,
                {v + t * vplane, vplane}, g.block, 0.0F,
                {m + t * mplane, mplane}, g.block, {}, panel(packed, t));
  }
}

}  // namespace

void WinogradConv::run_forward(const ConvConfig& cfg, const Tensor& input,
                               const Tensor& filters, Tensor& output,
                               const Epilogue& epilogue) const {
  const PackedFilters* packed =
      own_pack(epilogue, winograd_positions(tile_));
  if (epilogue.packed != nullptr && (packed == nullptr || !packed->fresh())) {
    // Another engine's pack (GEMM panels, or the other tile size)
    // degrades to the transform-on-the-fly path; a stale own pack
    // (SIMD dispatch changed since packing) makes sgemm stage the pack's
    // U per call — correct, but the slow path.
    fallback_counter().add(1);
  }
  const float* bias = epilogue.bias.empty() ? nullptr : epilogue.bias.data();
  const Geometry g = make_geometry(cfg, tile_);
  ws::Scratch<float> v(g.positions * g.channels * g.block);
  ws::Scratch<float> m(g.positions * g.filters * g.block);
  // U is the pack's own transformed filters, or transformed here.
  ws::Scratch<float> u(packed != nullptr
                           ? 1
                           : g.positions * g.filters * g.channels);
  if (packed == nullptr) transform_filters(g, tile_, filters, u.data());
  const float* u_data =
      packed != nullptr ? packed->transformed.data() : u.data();
  for (std::size_t p0 = 0; p0 < g.patches; p0 += g.block) {
    const std::size_t pb = std::min(g.block, g.patches - p0);
    scatter_data_transform(g, tile_, input, p0, pb, v.data());
    multiply_stage(g, u_data, packed, v.data(), m.data(), pb);
    gather_output_transform(g, tile_, m.data(), p0, pb, bias, epilogue.relu,
                            output);
  }
}

void WinogradConv::backward_data(const ConvConfig& cfg,
                                 const Tensor& grad_output,
                                 const Tensor& filters,
                                 Tensor& grad_input) const {
  check(grad_output.shape() == cfg.output_shape(),
        "grad_output shape mismatch");
  check(filters.shape() == cfg.filter_shape(), "filter shape mismatch");
  check(grad_input.shape() == cfg.input_shape(), "grad_input shape mismatch");
  check(supports(cfg),
        "Winograd F(m,3) requires kernel 3, stride 1, pad <= 2, ungrouped");

  // The data gradient of a stride-1 3x3 correlation is itself a stride-1
  // 3x3 correlation: gin = corr(gout, rot180(W)^T) with padding 2 - p.
  ConvConfig back = cfg;
  back.input = cfg.output();
  back.channels = cfg.filters;
  back.filters = cfg.channels;
  back.pad = 2 - cfg.pad;
  check(back.output() == cfg.input, "winograd backward geometry mismatch");

  Tensor rotated(back.filter_shape());
  for (std::size_t c = 0; c < cfg.channels; ++c) {
    for (std::size_t f = 0; f < cfg.filters; ++f) {
      for (std::size_t ky = 0; ky < 3; ++ky) {
        for (std::size_t kx = 0; kx < 3; ++kx) {
          rotated(c, f, ky, kx) = filters(f, c, 2 - ky, 2 - kx);
        }
      }
    }
  }
  forward(back, grad_output, rotated, grad_input);
}

void WinogradConv::backward_filter(const ConvConfig& cfg, const Tensor& input,
                                   const Tensor& grad_output,
                                   Tensor& grad_filters) const {
  check(input.shape() == cfg.input_shape(), "input shape mismatch");
  check(grad_output.shape() == cfg.output_shape(),
        "grad_output shape mismatch");
  check(grad_filters.shape() == cfg.filter_shape(),
        "grad_filters shape mismatch");
  check(supports(cfg),
        "Winograd F(m,3) requires kernel 3, stride 1, pad <= 2, ungrouped");

  // Transpose formulation: with M_t = U_t V_t in the forward,
  //   dU_t = dM_t V_t^T   (F x C, accumulated over patch blocks),
  //   dg   = G^T dU G     (the filter transform's adjoint).
  const Geometry g = make_geometry(cfg, tile_);
  ws::Scratch<float> v(g.positions * g.channels * g.block);
  ws::Scratch<float> dm(g.positions * g.filters * g.block);
  ws::Scratch<float> du(g.positions * g.filters * g.channels);
  const std::size_t uplane = g.filters * g.channels;
  for (std::size_t p0 = 0; p0 < g.patches; p0 += g.block) {
    const std::size_t pb = std::min(g.block, g.patches - p0);
    scatter_data_transform(g, tile_, input, p0, pb, v.data());
    scatter_grad_transform(g, tile_, grad_output, p0, pb, dm.data());
    const float beta = p0 == 0 ? 0.0F : 1.0F;
    for (std::size_t t = 0; t < g.positions; ++t) {
      blas::sgemm(blas::Trans::kNo, blas::Trans::kYes, g.filters, g.channels,
                  pb, 1.0F,
                  {dm.data() + t * g.filters * g.block, g.filters * g.block},
                  g.block,
                  {v.data() + t * g.channels * g.block, g.channels * g.block},
                  g.block, beta, {du.data() + t * uplane, uplane},
                  g.channels);
    }
  }
  parallel_for(0, g.filters * g.channels, [&](std::size_t i) {
    const std::size_t f = i / g.channels;
    const std::size_t c = i % g.channels;
    float ubuf[36];
    for (std::size_t t = 0; t < g.positions; ++t) {
      ubuf[t] = du.data()[t * uplane + f * g.channels + c];
    }
    apply<float, GradFilterTf>(tile_, ubuf, 1, grad_filters.plane(f, c), 1);
  });
}

std::shared_ptr<const PackedFilters> WinogradConv::prepack(
    const ConvConfig& cfg, const Tensor& filters) const {
  if (!supports(cfg)) return nullptr;
  check(filters.shape() == cfg.filter_shape(), "filter shape mismatch");
  const Geometry g = make_geometry(cfg, tile_);
  const std::size_t uplane = g.filters * g.channels;
  auto packed = std::make_shared<PackedFilters>();
  packed->format = name();
  packed->source = filters.data().data();
  packed->transformed.assign(g.positions * uplane, 0.0F);
  transform_filters(g, tile_, filters, packed->transformed.data());
  packed->panels.reserve(g.positions);
  for (std::size_t t = 0; t < g.positions; ++t) {
    packed->panels.push_back(blas::pack_a(
        blas::Trans::kNo, g.filters, g.channels,
        {packed->transformed.data() + t * uplane, uplane}, g.channels));
  }
  return packed;
}

namespace wino_detail {

void transform_data(WinogradTile tile, const float* d, float* v) {
  apply<float, DataTf>(tile, d, 1, v, 1);
}

void transform_filter(WinogradTile tile, const float* g, float* u) {
  apply<float, FilterTf>(tile, g, 1, u, 1);
}

void transform_output(WinogradTile tile, const float* m, float* y) {
  apply<float, OutputTf>(tile, m, 1, y, 1);
}

}  // namespace wino_detail

}  // namespace gpucnn::conv
