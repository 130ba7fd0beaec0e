// The one blocked GEMM loop nest (GotoBLAS-style), run by both the fp32
// family (sgemm, gemm.cpp) and the int8 family (igemm, igemm.cpp).
// Private to src/blas/.
//
// C is updated in mr x nr micro tiles. For each NC-column window and
// KC-deep k block, op(B) is packed once into nr-column panels and shared
// by every row block of MC rows, each packing its mr-row panels of
// op(A). The work spreads over row blocks, or over runs of column tiles
// when there are too few row blocks (see run_blocked). A panel
// holds kcs = round_up(kc, kStepK) k steps of one tile; panel_offset is
// where a whole operand's pack (a Packed<T>) keeps each one, and both
// the pack builder and the loop nest use it, which keeps prepacked
// results bit-identical to staged ones.
//
// A family is a stateless struct that supplies everything the two
// element types do differently:
//   using A, B, Acc;                  operand and accumulator types
//   kName                             counter prefix: blas.<kName>.*
//   kMc, kKc, kNc                     the MC/KC/NC windows
//   kStepK                            k granularity of a panel
//   kMaxTile                          largest mr * nr of any kernel
//   kernel()                          the micro-kernel of simd::active()
//   pack_a(a, i0, im, p0, kc, mr, dst)  one mr-row panel of op(A)
//   pack_b(b, p0, kc, j0, jn, nr, dst)  one nr-column panel of op(B)
// Each call supplies its write-back, a callable invoked once per micro
// tile and k block as write(acc, nr, i0, im, j0, jn, first_k, last_k);
// it is a template argument, so the only indirect call per micro tile
// is the micro-kernel pointer.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>

#include "blas/packed.hpp"
#include "core/cpu_features.hpp"
#include "core/thread_pool.hpp"
#include "core/workspace.hpp"
#include "obs/metrics.hpp"

namespace gpucnn::blas {

/// One GEMM operand as the packers read it: op(X)(row, col) is
/// data[row * ld + col], or data[col * ld + row] when transposed.
template <typename T>
struct Operand {
  std::span<const T> data;
  std::size_t ld = 0;
  Trans trans = Trans::kNo;
};

/// The micro-kernel contract: fn(steps, packed_a, packed_b, acc) fully
/// overwrites acc (mr x nr, row-major) with the product of one A panel
/// and one B panel, `steps` k steps of kStepK each.
template <typename A, typename B, typename Acc>
struct MicroKernel {
  std::size_t mr;
  std::size_t nr;
  // __restrict matters: the kernels are called through this pointer, so
  // without it the compiler must assume acc aliases the packed panels
  // and cannot vectorise the accumulation.
  void (*fn)(std::size_t steps, const A* __restrict packed_a,
             const B* __restrict packed_b, Acc* __restrict acc);
};

namespace detail {

/// Packing traffic split by operand: for the conv engines A is the
/// weights and B the activations; for FcLayer the fp32 roles flip. The
/// split lets dashboards separate the weight packing a prepack
/// eliminates from the unavoidable per-call activation packing.
enum class PackStat { kBytesPackedA, kBytesPackedB, kPrepackHits,
                      kPrepackBytes };

/// blas.<family>.<stat>, registered on first use.
template <typename F, PackStat S>
obs::Counter& pack_stat() {
  static constexpr const char* kSuffix[] = {
      ".bytes_packed_a", ".bytes_packed_b", ".prepack_hits",
      ".prepack_bytes"};
  static obs::Counter& c = obs::metrics().counter(
      std::string("blas.") + F::kName + kSuffix[static_cast<int>(S)]);
  return c;
}

constexpr std::size_t ceil_div(std::size_t x, std::size_t d) {
  return (x + d - 1) / d;
}

/// k steps one panel stores for a k block of depth kc.
template <typename F>
constexpr std::size_t stored_k(std::size_t kc) {
  return ceil_div(kc, F::kStepK) * F::kStepK;
}

/// Offset of tile t's panel (kcs k steps) of k block `block` in a pack
/// of `tiles` tiles of edge `tile`.
template <typename F>
constexpr std::size_t panel_offset(std::size_t block, std::size_t tiles,
                                   std::size_t tile, std::size_t t,
                                   std::size_t kcs) {
  return (block * tiles * F::kKc + t * kcs) * tile;
}

/// True when `p` can stand in for the operand of this call: packed for
/// the micro-tile shape that will run, with this family's KC, and
/// describing exactly this operand.
template <typename F, typename T>
bool pack_usable(const Packed<T>& p, PackRole role, std::size_t rows,
                 std::size_t cols, std::size_t tile) {
  return p.valid() && p.role() == role && p.rows() == rows &&
         p.cols() == cols && p.tile() == tile && p.kc_block() == F::kKc;
}

template <typename F>
struct PackBuilder {
  /// Element type of the operand in role R.
  template <PackRole R>
  using Elem = std::conditional_t<R == PackRole::kA, typename F::A,
                                  typename F::B>;

  /// Packs a whole operand — op(A) as rows x cols = m x k for kA, op(B)
  /// as k x n for kB — with the family's own panel packers, every k
  /// block and tile where run_blocked stages it.
  template <PackRole R>
  static Packed<Elem<R>> build(std::size_t rows, std::size_t cols,
                               const Operand<Elem<R>>& x) {
    using T = Elem<R>;
    Packed<T> p;
    p.role_ = R;
    p.rows_ = rows;
    p.cols_ = cols;
    p.source_ = x.data.data();
    if (rows == 0 || cols == 0) return p;
    const auto uk = F::kernel();
    const std::size_t tile = R == PackRole::kA ? uk.mr : uk.nr;
    const std::size_t extent = R == PackRole::kA ? rows : cols;
    const std::size_t k = R == PackRole::kA ? cols : rows;
    p.level_ = simd::active();
    p.tile_ = tile;
    p.kc_block_ = F::kKc;
    const std::size_t tiles = ceil_div(extent, tile);
    // The pack ends where a panel past the last tile of the last k block
    // would start.
    const std::size_t last = (k - 1) / F::kKc;
    p.data_.resize(panel_offset<F>(
        last, tiles, tile, tiles, stored_k<F>(k - last * F::kKc)));
    for (std::size_t pc = 0; pc < k; pc += F::kKc) {
      const std::size_t kc = std::min(F::kKc, k - pc);
      const std::size_t kcs = stored_k<F>(kc);
      for (std::size_t t = 0; t < tiles; ++t) {
        const std::size_t e0 = t * tile;
        const std::size_t en = std::min(tile, extent - e0);
        T* dst = p.data_.data() +
                 panel_offset<F>(pc / F::kKc, tiles, tile, t, kcs);
        if constexpr (R == PackRole::kA) {
          F::pack_a(x, e0, en, pc, kc, tile, dst);
        } else {
          F::pack_b(x, pc, kc, e0, en, tile, dst);
        }
      }
    }
    pack_stat<F, PackStat::kPrepackBytes>().add(
        static_cast<std::int64_t>(p.bytes()));
    return p;
  }
};

}  // namespace detail

/// C(m x n) = op(A)(m x k) * op(B)(k x n) through `write`, for k > 0.
/// `pa` / `pb` (either may be null) supply prepacked panels; a pack that
/// fails pack_usable (stale SIMD level, another role, other dims) is
/// demoted to staged packing from `a` / `b`, so every call runs one code
/// shape.
///
/// The multiply is partitioned per shape, in one dispatch either way:
///   * M-split: row blocks of MC rows run in parallel against one B pack
///     per column window and k block, itself packed tiles in parallel;
///   * N-split, when there are fewer row blocks than workers and more
///     column tiles than row blocks: each task takes a run of whole nr
///     column tiles, packs (or slices) its own B panels, and runs every
///     row block against them, staging A itself.
/// Both run the same window loop below; only whether it fans out
/// differs. Every tile sees the same panels and the same k-block order
/// either way, so the two partitions are bit-identical. Inside a pool
/// task the width is 1: the M-split loop runs on that thread, in the
/// order it always had, and makes no nested dispatch.
template <typename F, typename WriteBack>
void run_blocked(std::size_t m, std::size_t n, std::size_t k,
                 const Operand<typename F::A>& a,
                 const Operand<typename F::B>& b,
                 const Packed<typename F::A>* pa,
                 const Packed<typename F::B>* pb, const WriteBack& write) {
  using A = typename F::A;
  using B = typename F::B;
  using detail::ceil_div;
  using detail::pack_stat;
  using detail::panel_offset;
  using detail::PackStat;
  const auto uk = F::kernel();
  const std::size_t mr = uk.mr;
  const std::size_t nr = uk.nr;
  if (pa != nullptr && !detail::pack_usable<F>(*pa, PackRole::kA, m, k, mr)) {
    pa = nullptr;
  }
  if (pb != nullptr && !detail::pack_usable<F>(*pb, PackRole::kB, k, n, nr)) {
    pb = nullptr;
  }
  if (pa != nullptr || pb != nullptr) {
    pack_stat<F, PackStat::kPrepackHits>().add(1);
  }
  // Global tile counts the pack layouts are blocked by (NC is a multiple
  // of nr and MC of mr, so staged windows land on whole global tiles and
  // a window's panels are a contiguous pack slice).
  const std::size_t a_tiles_total = ceil_div(m, mr);
  const std::size_t b_tiles_total = ceil_div(n, nr);
  const std::size_t row_blocks = ceil_div(m, F::kMc);
  const std::size_t window_tiles = F::kNc / nr;

  // One k block of the row block at `ic` against column tiles
  // [t0, t0 + tiles), whose B panels start at `b_panels`: stage the row
  // block's A panels (or take the pack's slice), then run its tiles.
  const auto row_block = [&](std::size_t ic, std::size_t pc, std::size_t t0,
                             std::size_t tiles, const B* b_panels) {
    const std::size_t kc = std::min(F::kKc, k - pc);
    const std::size_t kcs = detail::stored_k<F>(kc);
    const std::size_t m_tiles = ceil_div(std::min(F::kMc, m - ic), mr);
    ws::Scratch<A> staged_a(pa == nullptr ? m_tiles * kcs * mr : 0);
    const A* a_panels = staged_a.data();
    if (pa == nullptr) {
      for (std::size_t t = 0; t < m_tiles; ++t) {
        const std::size_t i0 = ic + t * mr;
        F::pack_a(a, i0, std::min(mr, m - i0), pc, kc, mr,
                  staged_a.data() + t * kcs * mr);
      }
      pack_stat<F, PackStat::kBytesPackedA>().add(
          static_cast<std::int64_t>(m_tiles * kcs * mr * sizeof(A)));
    } else {
      a_panels = pa->data() + panel_offset<F>(pc / F::kKc, a_tiles_total,
                                              mr, ic / mr, kcs);
    }
    alignas(64) typename F::Acc acc[F::kMaxTile];
    for (std::size_t ti = 0; ti < m_tiles; ++ti) {
      const std::size_t i0 = ic + ti * mr;
      const std::size_t im = std::min(mr, m - i0);
      for (std::size_t tj = 0; tj < tiles; ++tj) {
        const std::size_t j0 = (t0 + tj) * nr;
        uk.fn(kcs / F::kStepK, a_panels + ti * kcs * mr,
              b_panels + tj * kcs * nr, acc);
        write(acc, nr, i0, im, j0, std::min(nr, n - j0), pc == 0,
              pc + kc == k);
      }
    }
  };

  // Column tiles [t_begin, t_end) in windows of at most NC columns. Per
  // window and k block, B is packed once (or sliced from the pack) and
  // every row block runs against it. With `spread` the B tiles and the
  // row blocks fan out over the pool; without, this thread runs them.
  const auto windows = [&](std::size_t t_begin, std::size_t t_end,
                           bool spread) {
    for (std::size_t t0 = t_begin, tiles = 0; t0 < t_end; t0 += tiles) {
      tiles = std::min(window_tiles, t_end - t0);
      for (std::size_t pc = 0; pc < k; pc += F::kKc) {
        const std::size_t kc = std::min(F::kKc, k - pc);
        const std::size_t kcs = detail::stored_k<F>(kc);
        ws::Scratch<B> staged_b(pb == nullptr ? tiles * kcs * nr : 0);
        const B* b_panels = staged_b.data();
        if (pb == nullptr) {
          const auto pack = [&](std::size_t t) {
            const std::size_t j0 = (t0 + t) * nr;
            F::pack_b(b, pc, kc, j0, std::min(nr, n - j0), nr,
                      staged_b.data() + t * kcs * nr);
          };
          if (spread) {
            parallel_for(0, tiles, pack, /*serial_threshold=*/8);
          } else {
            for (std::size_t t = 0; t < tiles; ++t) pack(t);
          }
          pack_stat<F, PackStat::kBytesPackedB>().add(
              static_cast<std::int64_t>(tiles * kcs * nr * sizeof(B)));
        } else {
          b_panels = pb->data() + panel_offset<F>(pc / F::kKc, b_tiles_total,
                                                  nr, t0, kcs);
        }
        const auto run = [&](std::size_t mb) {
          row_block(mb * F::kMc, pc, t0, tiles, b_panels);
        };
        if (spread) {
          parallel_for(0, row_blocks, run);
        } else {
          for (std::size_t mb = 0; mb < row_blocks; ++mb) run(mb);
        }
      }
    }
  };

  const std::size_t width = parallel_width();
  if (row_blocks < width && row_blocks < b_tiles_total) {
    const std::size_t runs = std::min(width, b_tiles_total);
    parallel_for(0, runs, [&](std::size_t r) {
      windows(r * b_tiles_total / runs, (r + 1) * b_tiles_total / runs,
              /*spread=*/false);
    });
  } else {
    // Width 1 runs the same loop on this thread without dispatching.
    windows(0, b_tiles_total, /*spread=*/width > 1);
  }
}

}  // namespace gpucnn::blas
